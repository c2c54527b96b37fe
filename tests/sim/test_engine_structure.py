"""Only the engine touches its queue.

The heap's entry format, its sequence counter and its contents are private to
``sim/engine.py``: every other module schedules through ``call_at`` /
``schedule`` / ``at`` / ``call_soon`` and looks at pending work through
``pending_callbacks()`` / ``next_event_time()``.  The one exception is the
engine's published ``lane()``, which hands the heap and the counter to the
message fabric so a delivery costs no ``call_at`` frame; no other module may
take it.  This walks every module
under ``src/repro`` and fails on any read of an engine's ``_queue``, ``_seq``
or ``_free`` -- ``engine._queue``, ``self._engine._seq``,
``cluster.engine._free`` or ``getattr(engine, "_queue")``.  A component's own
attributes of the same name (a node's request deque ``self._queue``) are not
an engine's and are not covered.
"""

from __future__ import annotations

import ast
import os
from typing import List, Optional

SOURCE_ROOT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
    "repro",
)
ENGINE_MODULE = os.path.join("sim", "engine.py")
PRIVATE = frozenset({"_queue", "_seq", "_free"})


def _is_engine(node: ast.AST) -> bool:
    """Whether ``node`` names an engine: ``engine``, ``x.engine``, ``x._engine``."""
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    else:
        return False
    return name.lstrip("_").endswith("engine")


def _private_read(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Attribute) and node.attr in PRIVATE and _is_engine(node.value):
        return ast.unparse(node)
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "getattr"
        and len(node.args) >= 2
        and _is_engine(node.args[0])
        and isinstance(node.args[1], ast.Constant)
        and node.args[1].value in PRIVATE
    ):
        return ast.unparse(node)
    return None


def private_engine_reads(source: str, filename: str = "<source>") -> List[str]:
    """``"line: expression"`` for each read of an engine's private state."""
    return [
        f"{node.lineno}: {found}"
        for node in ast.walk(ast.parse(source, filename=filename))
        if (found := _private_read(node)) is not None
    ]


def test_no_module_but_the_engine_reads_its_queue():
    offenders = []
    for folder, _, files in os.walk(SOURCE_ROOT):
        for name in sorted(files):
            path = os.path.join(folder, name)
            relative = os.path.relpath(path, SOURCE_ROOT)
            if not name.endswith(".py") or relative == ENGINE_MODULE:
                continue
            with open(path, "r", encoding="utf-8") as handle:
                reads = private_engine_reads(handle.read(), path)
            offenders.extend(f"{relative}:{read}" for read in reads)
    assert offenders == []


def test_the_scan_sees_each_spelling_and_spares_a_components_own_queue():
    source = "\n".join(
        [
            "engine._queue",
            "self._engine._seq",
            "cluster.engine._free",
            "getattr(engine, '_queue')",
            "self._queue",  # a node's own request deque
            "self._seq",  # a scheduler's own counter
            "engine.now",
        ]
    )
    assert private_engine_reads(source) == [
        "1: engine._queue",
        "2: self._engine._seq",
        "3: cluster.engine._free",
        "4: getattr(engine, '_queue')",
    ]


def lane_takers() -> List[str]:
    """Modules (relative to ``src/repro``) that call an engine's ``lane()``."""
    takers = []
    for folder, _, files in os.walk(SOURCE_ROOT):
        for name in sorted(files):
            path = os.path.join(folder, name)
            relative = os.path.relpath(path, SOURCE_ROOT)
            if not name.endswith(".py") or relative == ENGINE_MODULE:
                continue
            with open(path, "r", encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
            if any(
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "lane"
                and _is_engine(node.func.value)
                for node in ast.walk(tree)
            ):
                takers.append(relative.replace(os.sep, "/"))
    return takers


def test_only_the_fabric_takes_the_lane():
    assert lane_takers() == ["network/fabric.py"]
