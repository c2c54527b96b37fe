"""Surfaces no entry point ran stay gone.

The staleness-SLA control loop, YCSB workloads E and F (scans and
read-modify-write), sstables with their commit log, three latency models and
the generic coordinator response handler were removed because nothing but
their own tests ran them.  No ``src/repro`` module may define or import their
names again, their config fields stay off the config classes, and the names
that selected them are rejected like any unknown name.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import os
from collections import defaultdict
from typing import Dict, Set

import pytest

from repro.cluster.node import NodeConfig
from repro.experiments.runner import make_policy
from repro.experiments.scenarios import GRID5000
from repro.workload.distributions import make_key_chooser
from repro.workload.workloads import WorkloadConfig

SOURCE_ROOT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "repro"
)

REMOVED_NAMES = [
    "StalenessSLAPolicy",
    "SLAConsistencyPolicy",
    "SSTable",
    "CommitLog",
    "UniformLatency",
    "GammaLatency",
    "CompositeLatencyModel",
    "HotspotKeyChooser",
    "handle_response",
]


@functools.lru_cache(maxsize=None)
def _names_by_module() -> Dict[str, Set[str]]:
    """Every name each module defines (def, class, assignment) or imports."""
    found: Dict[str, Set[str]] = defaultdict(set)
    for directory, _, files in os.walk(SOURCE_ROOT):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            with open(path, "r", encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
            names = found[os.path.relpath(path, SOURCE_ROOT)]
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    names.add(node.name)
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    names.update(alias.asname or alias.name.split(".")[-1] for alias in node.names)
                    names.update(alias.name for alias in node.names)
                elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(
                    node.ctx, ast.Store
                ):
                    names.add(node.id if isinstance(node, ast.Name) else node.attr)
    return found


def test_the_scan_sees_the_live_names():
    names = _names_by_module()
    assert "LogNormalLatency" in names[os.path.join("network", "latency.py")]
    assert "handle_read_response_payload" in names[os.path.join("cluster", "coordinator.py")]
    assert "StorageEngine" in names[os.path.join("cluster", "node.py")]


@pytest.mark.parametrize("name", REMOVED_NAMES)
def test_no_module_defines_or_imports_a_removed_name(name):
    holders = sorted(module for module, names in _names_by_module().items() if name in names)
    assert not holders, f"{name} is back in {holders}"


@pytest.mark.parametrize(
    "config, field",
    [
        (WorkloadConfig, "scan_proportion"),
        (WorkloadConfig, "read_modify_write_proportion"),
        (WorkloadConfig, "max_scan_length"),
        (NodeConfig, "memtable_flush_threshold"),
        (NodeConfig, "compaction_threshold"),
    ],
)
def test_a_removed_config_field_is_rejected(config, field):
    assert field not in {f.name for f in dataclasses.fields(config)}
    with pytest.raises(TypeError):
        config(**{field: 1})


def test_sla_policy_names_are_unknown():
    with pytest.raises(ValueError, match="unknown policy name"):
        make_policy("sla-50ms", GRID5000)


def test_the_hotspot_key_chooser_name_is_unknown():
    with pytest.raises(ValueError):
        make_key_chooser("hotspot", 10)
