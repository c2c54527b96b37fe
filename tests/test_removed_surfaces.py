"""Surfaces no entry point ran stay gone.

The staleness-SLA control loop, YCSB workloads E and F (scans and
read-modify-write), sstables with their commit log, three latency models and
the generic coordinator response handler were removed because nothing but
their own tests ran them; the coordinator's two response-payload shims went
when nodes began handing responses to its response methods directly.  So were the config fields nothing outside the
tests set to a second value -- they are module constants now -- with the
classes left empty by that (``BackoffConfig``, ``MembershipConfig``) and the
paths only a second value reached: ``SimpleStrategy``, ``RandomPartitioner``,
global message loss, backoff jitter, the p99 scale-out trigger, repair pair
subsets and per-link capacities.  When the paper's loop folded into
``repro.control``, ``repro.core`` and ``repro.geo`` went, with the second
model class (``StaleReadModel``) and the eight constructor names that
duplicated :func:`~repro.control.make_policy`.  The Section VII future-work
package, ``repro.extensions`` (per-key consistency categories by k-means over
access counts, and an application-cost tolerance model), went because no
simulated run consulted it: its policy's read level ignored the key, nothing
on the op path asked for the per-key one, and only an example and its own
tests called it.  The run-series recorder (``run_experiment(series_interval=)``)
went with the gauges only it read, because each series it sampled was a
windowed copy of an account the run already keeps; the tracer's per-layer
attach methods went with it, since every hook site now copies
``cluster.tracer`` when it is built.  ``NodeRestart`` went when a crash
became a window: ``NodeCrash`` carries its ``duration`` and restarts its node
when that ends, like every other windowed fault.  No ``src/repro`` module may
define or import their names again, their config fields stay off the config
classes, and the names that selected them are rejected like any unknown name.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import importlib
import os
from collections import defaultdict
from typing import Dict, Set

import pytest

from repro.chaos.replay import ChaosConfig
from repro.cluster.antientropy import AntiEntropyConfig
from repro.cluster.cluster import ClusterConfig
from repro.cluster.coordinator import CoordinatorConfig
from repro.cluster.node import NodeConfig
from repro.control.policies import HarmonyConfig, RepairControlConfig, ScaleOutConfig, make_policy
from repro.network.transfers import BandwidthConfig
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import GRID5000
from repro.workload.executor import WorkloadExecutor
from repro.workload.distributions import make_key_chooser
from repro.workload.workloads import WORKLOAD_A, WorkloadConfig

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
    "handle_read_response_payload",
    "handle_write_response_payload",
    "BackoffConfig",
    "MembershipConfig",
    "SimpleStrategy",
    "RandomPartitioner",
    "StaleReadModel",
    "HarmonyPolicy",
    "StaticEventualPolicy",
    "StaticStrongPolicy",
    "StaticQuorumPolicy",
    "ThresholdPolicy",
    "GeoHarmonyPolicy",
    "GeoHarmonyRWPolicy",
    "StaticGeoPolicy",
    "CategorizedHarmonyPolicy",
    "ConsistencyCategorizer",
    "ConsistencyCategory",
    "KeyAccessTracker",
    "KeyAccessStats",
    "ApplicationProfile",
    "recommend_tolerance",
    "naive_tolerance_for",
    "RunSeriesRecorder",
    "utilization_integrals",
    "transfer_utilization",
    "busy_integral",
    "pending_range_count",
    "streaming_backlog_bytes",
    "as_rows",
    "attach_plane",
    "attach_injector",
    "attach_service",
    "attach_membership",
    "NodeRestart",
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
    assert "on_read_response" in names[os.path.join("cluster", "coordinator.py")]
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
        (ClusterConfig, "strategy"),
        (ClusterConfig, "partitioner"),
        (ClusterConfig, "drop_probability"),
        (ClusterConfig, "vnodes"),
        (ClusterConfig, "write_size_bytes"),
        (CoordinatorConfig, "read_timeout"),
        (CoordinatorConfig, "write_timeout"),
        (CoordinatorConfig, "request_overhead"),
        (NodeConfig, "digest_service_factor"),
        (NodeConfig, "queue_capacity"),
        (HarmonyConfig, "rate_smoothing"),
        (HarmonyConfig, "latency_probes_per_sample"),
        (HarmonyConfig, "avg_write_size"),
        (HarmonyConfig, "bandwidth_bytes_per_s"),
        (HarmonyConfig, "propagation_overhead"),
        (BandwidthConfig, "transfer_threshold_bytes"),
        (BandwidthConfig, "transfer_kinds"),
        (BandwidthConfig, "kind_groups"),
        (BandwidthConfig, "min_foreground_fraction"),
        (BandwidthConfig, "link_capacities"),
        (AntiEntropyConfig, "depth"),
        (AntiEntropyConfig, "digest_size_bytes"),
        (AntiEntropyConfig, "request_size_bytes"),
        (AntiEntropyConfig, "leaf_index_size_bytes"),
        (AntiEntropyConfig, "pairs"),
        (RepairControlConfig, "tighten_factor"),
        (RepairControlConfig, "relax_factor"),
        (RepairControlConfig, "divergence_threshold"),
        (ScaleOutConfig, "high_p99"),
        (ScaleOutConfig, "p99_source"),
        (ChaosConfig, "read_proportion"),
        (ChaosConfig, "think_time"),
        (ChaosConfig, "repair_interval"),
        (ChaosConfig, "repair_rounds"),
        (ChaosConfig, "post_heal_grace"),
        (ChaosConfig, "stale_bound"),
        (ChaosConfig, "per_dc_stale_bound"),
        (ChaosConfig, "min_judged_reads"),
        (WorkloadConfig, "zipfian_theta"),
        (WorkloadConfig, "field_count"),
        (WorkloadConfig, "field_length"),
    ],
)
def test_a_removed_config_field_is_rejected(config, field):
    assert field not in {f.name for f in dataclasses.fields(config)}
    with pytest.raises(TypeError):
        config(**{field: 1})


@pytest.mark.parametrize("field, value", [("strategy", "simple"), ("drop_probability", 0.1)])
def test_the_cluster_config_rejects_the_removed_strategy_and_global_loss(field, value):
    with pytest.raises(TypeError):
        ClusterConfig(**{field: value})


@pytest.mark.parametrize("package", ["repro.core", "repro.geo"])
def test_the_folded_packages_are_gone(package):
    """The loop lives in ``repro.control``; its old homes import as nothing."""
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(package)


def test_the_section_vii_package_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.extensions")


def test_sla_policy_names_are_unknown():
    with pytest.raises(ValueError, match="unknown policy name"):
        make_policy("sla-50ms", GRID5000)


def test_the_hotspot_key_chooser_name_is_unknown():
    with pytest.raises(ValueError):
        make_key_chooser("hotspot", 10)


def test_the_series_recorder_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.obs.export")


@pytest.mark.parametrize(
    "call",
    [
        lambda: run_experiment(GRID5000, WORKLOAD_A, "eventual", 1, series_interval=1.0),
        lambda: WorkloadExecutor(None, WORKLOAD_A, make_policy("eventual"), tracer=None),
    ],
    ids=["run_experiment.series_interval", "WorkloadExecutor.tracer"],
)
def test_the_removed_options_are_rejected(call):
    with pytest.raises(TypeError):
        call()
