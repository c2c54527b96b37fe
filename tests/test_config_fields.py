"""Every ``*Config`` field is a knob something turns.

A field no code reads is a dead option: a caller may set it and nothing
changes.  For every ``@dataclass`` under ``src/repro`` whose name ends in
``Config``, each field must be read -- as ``x.<field>`` or through
``getattr(x, "<field>")`` -- somewhere in ``src/repro`` other than the class's
own ``__post_init__``, whose reads only validate the value.

A field nothing but a test sets is a constant with extra steps: each field
must also be passed as a keyword -- to its class, ``dataclasses.replace``,
``with_overrides`` or ``scaled`` -- somewhere in ``src/repro``,
``benchmarks``, ``tools`` or ``examples``.
"""

from __future__ import annotations

import ast
import functools
import os
from collections import Counter
from typing import Dict, List, Optional, Set, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE_ROOT = os.path.join(REPO_ROOT, "src", "repro")
#: Where a field may be set: every tree that runs outside ``tests/``.
SETTER_ROOTS = (SOURCE_ROOT,) + tuple(
    os.path.join(REPO_ROOT, name) for name in ("benchmarks", "tools", "examples")
)
#: Callees that set fields of any config they are handed.
COPIERS = frozenset({"replace", "with_overrides", "scaled"})


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


def _callee(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


@functools.lru_cache(maxsize=None)
def _scan() -> Tuple[Dict[str, List[str]], Counter, Dict[str, Counter], Dict[str, Set[str]]]:
    """One walk of ``src/repro``, ``benchmarks``, ``tools`` and ``examples``.

    Returns every ``*Config`` dataclass's field names, the count of every
    attribute read in ``src/repro``, per config class the reads inside its
    own ``__post_init__``, and per callee name the keywords it is passed.
    """
    configs: Dict[str, List[str]] = {}
    validation: Dict[str, Counter] = {}
    reads: Counter = Counter()
    keywords: Dict[str, Set[str]] = {}
    for root in SETTER_ROOTS:
        for folder, _, files in os.walk(root):
            for name in sorted(files):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(folder, name)
                with open(path, "r", encoding="utf-8") as handle:
                    tree = ast.parse(handle.read(), filename=path)
                in_source = root == SOURCE_ROOT
                if in_source:
                    reads.update(_reads(tree))
                for node in ast.walk(tree):
                    if isinstance(node, ast.Call) and (callee := _callee(node)) is not None:
                        keywords.setdefault(callee, set()).update(
                            keyword.arg for keyword in node.keywords if keyword.arg is not None
                        )
                    if not (
                        in_source
                        and isinstance(node, ast.ClassDef)
                        and node.name.endswith("Config")
                        and _is_dataclass(node)
                    ):
                        continue
                    configs[node.name] = [
                        statement.target.id
                        for statement in node.body
                        if isinstance(statement, ast.AnnAssign)
                        and isinstance(statement.target, ast.Name)
                    ]
                    counted = validation.setdefault(node.name, Counter())
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef) and item.name == "__post_init__":
                            counted.update(_reads(item))
    return configs, reads, validation, keywords


def test_config_dataclasses_are_found():
    configs, _, _, _ = _scan()
    assert {"HarmonyConfig", "ClusterConfig", "ExperimentConfig", "WorkloadConfig"} <= set(configs)
    assert all(configs.values())


def test_every_config_field_is_read_outside_its_validation():
    configs, reads, validation, _ = _scan()
    unread = [
        f"{owner}.{field}"
        for owner, fields in sorted(configs.items())
        for field in fields
        if reads[field] - validation[owner][field] <= 0
    ]
    assert unread == []


def test_every_config_field_is_set_outside_tests():
    configs, _, _, keywords = _scan()
    copied = set().union(*(keywords.get(name, set()) for name in COPIERS))
    unset = [
        f"{owner}.{field}"
        for owner, fields in sorted(configs.items())
        for field in fields
        if field not in keywords.get(owner, set()) and field not in copied
    ]
    assert unset == []
