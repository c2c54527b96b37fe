"""Every ``*Config`` field is a knob something turns.

A field no code reads is a dead option: a caller may set it and nothing
changes.  For every ``@dataclass`` under ``src/repro`` whose name ends in
``Config``, each field must be read -- as ``x.<field>`` or through
``getattr(x, "<field>")`` -- somewhere in ``src/repro`` other than the class's
own ``__post_init__``, whose reads only validate the value.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, List, Optional, Set

SOURCE_ROOT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "repro"
)


def _modules() -> List[ast.Module]:
    modules = []
    for folder, _, files in os.walk(SOURCE_ROOT):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path, "r", encoding="utf-8") as handle:
                    modules.append(ast.parse(handle.read(), filename=path))
    return modules


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(ast.unparse(decorator).startswith("dataclass") for decorator in node.decorator_list)


def _config_fields(modules) -> Dict[str, List[str]]:
    """``{class name: field names}`` for every ``*Config`` dataclass."""
    configs = {}
    for tree in modules:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name.endswith("Config") and _is_dataclass(node):
                configs[node.name] = [
                    statement.target.id
                    for statement in node.body
                    if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name)
                ]
    return configs


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


def _reads_outside_post_init(modules, owner: str) -> Set[str]:
    """Every attribute read in ``src/repro`` except inside ``owner.__post_init__``."""
    names = set()
    for tree in modules:
        stack: List[ast.AST] = [tree]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.ClassDef) and node.name == owner:
                stack.extend(
                    item
                    for item in node.body
                    if not (isinstance(item, ast.FunctionDef) and item.name == "__post_init__")
                )
                continue
            name = _read_at(node)
            if name is not None:
                names.add(name)
            stack.extend(ast.iter_child_nodes(node))
    return names


def test_config_dataclasses_are_found():
    configs = _config_fields(_modules())
    assert {"HarmonyConfig", "ClusterConfig", "ExperimentConfig", "WorkloadConfig"} <= set(configs)
    assert all(configs.values())


def test_every_config_field_is_read_outside_its_validation():
    modules = _modules()
    unread = []
    for owner, fields in sorted(_config_fields(modules).items()):
        reads = _reads_outside_post_init(modules, owner)
        unread += [f"{owner}.{field}" for field in fields if field not in reads]
    assert unread == []
