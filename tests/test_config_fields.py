"""Every ``*Config`` field is a knob something turns.

A field no code reads is a dead option: a caller may set it and nothing
changes.  For every ``@dataclass`` under ``src/repro`` whose name ends in
``Config``, each field must be read -- as ``x.<field>`` or through
``getattr(x, "<field>")`` -- somewhere in ``src/repro`` other than the class's
own ``__post_init__``, whose reads only validate the value.
"""

from __future__ import annotations

import ast
import functools
import os
from collections import Counter
from typing import Dict, List, Optional, Tuple

SOURCE_ROOT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "repro"
)


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(ast.unparse(decorator).startswith("dataclass") for decorator in node.decorator_list)


def _read_at(node: ast.AST) -> Optional[str]:
    """The attribute ``node`` itself loads: ``x.name`` or ``getattr(x, "name")``."""
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        return node.attr
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "getattr"
        and len(node.args) >= 2
        and isinstance(node.args[1], ast.Constant)
        and isinstance(node.args[1].value, str)
    ):
        return node.args[1].value
    return None


def _reads(node: ast.AST) -> Counter:
    return Counter(name for child in ast.walk(node) if (name := _read_at(child)) is not None)


@functools.lru_cache(maxsize=None)
def _scan() -> Tuple[Dict[str, List[str]], Counter, Dict[str, Counter]]:
    """One walk of ``src/repro``.

    Returns every ``*Config`` dataclass's field names, the count of every
    attribute read, and per config class the reads inside its own
    ``__post_init__``.
    """
    configs: Dict[str, List[str]] = {}
    validation: Dict[str, Counter] = {}
    reads: Counter = Counter()
    for folder, _, files in os.walk(SOURCE_ROOT):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            with open(path, "r", encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
            reads.update(_reads(tree))
            for node in ast.walk(tree):
                if not (
                    isinstance(node, ast.ClassDef)
                    and node.name.endswith("Config")
                    and _is_dataclass(node)
                ):
                    continue
                configs[node.name] = [
                    statement.target.id
                    for statement in node.body
                    if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name)
                ]
                counted = validation.setdefault(node.name, Counter())
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name == "__post_init__":
                        counted.update(_reads(item))
    return configs, reads, validation


def test_config_dataclasses_are_found():
    configs, _, _ = _scan()
    assert {"HarmonyConfig", "ClusterConfig", "ExperimentConfig", "WorkloadConfig"} <= set(configs)
    assert all(configs.values())


def test_every_config_field_is_read_outside_its_validation():
    configs, reads, validation = _scan()
    unread = [
        f"{owner}.{field}"
        for owner, fields in sorted(configs.items())
        for field in fields
        if reads[field] - validation[owner][field] <= 0
    ]
    assert unread == []
