#!/usr/bin/env python
"""Reach: every ``src/repro`` function the real entry points never enter.

Runs the repository's entry points in this one process under a
``sys.setprofile`` hook that records each code object entered:

* the quick scorecard build and the 7 examples (``dc_outage.py --quick``);
* ``tools/chaos_search.py`` on seeds 0-5 of the three multi-DC scenarios at
  budget 6, with no ``--time-budget`` so the sweep is the same on every host;
* the replay of every corpus entry in ``tests/chaos/corpus/``;
* each perf workload's ``run_experiment`` call at ``--quick`` size, the
  sharded one at ``workers=1`` (the same window protocol, in-process, so the
  hook sees the shard code).

Every ``def`` under ``src/repro`` (parsed with ``ast``) that none of them
entered goes into ``tools/unreached.txt``, one ``path  qualname  lines`` line
each, sorted, followed by the totals for all of ``src/repro`` and for
everything outside ``sim/parallel/``.  A def nested in an unreached def is
counted in its parent's lines, not listed again.  ``__repr__``, ``__str__``
and ``@abstractmethod`` defs are exempt.  No def line numbers are written, so
an edit elsewhere in a file leaves the list as it was; CI regenerates it and
``git diff --exit-code`` fails on any change that was not committed.

Usage::

    PYTHONPATH=src python tools/reach.py [--out tools/unreached.txt]
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import dataclasses
import io
import os
import runpy
import sys
from typing import Callable, Dict, Iterator, List, Set, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_ROOT = os.path.join(REPO_ROOT, "src", "repro")
DEFAULT_OUT = os.path.join(REPO_ROOT, "tools", "unreached.txt")
PARALLEL = "src/repro/sim/parallel/"

EXEMPT_NAMES = frozenset({"__repr__", "__str__"})
CHAOS_SCENARIOS = ("grid5000_3sites", "grid5000_3sites_elastic", "ec2_multiregion")
CHAOS_SEEDS = "0:6"
CHAOS_BUDGET = "6"


@dataclasses.dataclass(frozen=True)
class Def:
    """One ``def`` in a source file: where it starts and how long it is."""

    path: str  # repo-relative, "/"-separated
    qualname: str
    first_line: int  # the first decorator's line, as ``co_firstlineno`` has it
    lines: int  # ``def`` line through the last line of the body
    parent: "Def | None"


def _is_exempt(node: ast.AST) -> bool:
    if node.name in EXEMPT_NAMES:
        return True
    for decorator in node.decorator_list:
        name = decorator.attr if isinstance(decorator, ast.Attribute) else getattr(decorator, "id", "")
        if name == "abstractmethod":
            return True
    return False


def file_defs(path: str, root: str = REPO_ROOT) -> Iterator[Tuple[Def, bool]]:
    """Every def in ``path`` with whether it is exempt, parents before children."""
    with open(path, "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    rel = os.path.relpath(path, root).replace(os.sep, "/")

    def walk(node: ast.AST, prefix: str, parent):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.", parent)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found = Def(
                    rel, prefix + child.name, first, child.end_lineno - child.lineno + 1, parent
                )
                yield found, _is_exempt(child)
                yield from walk(child, f"{found.qualname}.<locals>.", found)
            else:
                yield from walk(child, prefix, parent)

    yield from walk(tree, "", None)


def source_files(root: str = SRC_ROOT) -> List[str]:
    found = []
    for directory, _, names in os.walk(root):
        found.extend(os.path.join(directory, n) for n in names if n.endswith(".py"))
    return sorted(found)


def unreached(entered: Set[Tuple[str, int]]) -> List[Def]:
    """Defs whose code was never entered, minus exempt and nested-in-unreached ones."""
    missed: List[Def] = []
    missed_set: Set[Def] = set()
    for path in source_files():
        real = os.path.realpath(path)
        for found, exempt in file_defs(path):
            if exempt or (real, found.first_line) in entered:
                continue
            missed_set.add(found)
            if found.parent not in missed_set:
                missed.append(found)
    return missed


def render(missed: List[Def]) -> str:
    rows = sorted(f"{d.path}  {d.qualname}  {d.lines}" for d in missed)
    outside = [d for d in missed if not d.path.startswith(PARALLEL)]
    rows.append(f"total  src/repro  {len(missed)}  {sum(d.lines for d in missed)}")
    rows.append(
        f"total  outside {PARALLEL}  {len(outside)}  {sum(d.lines for d in outside)}"
    )
    return "\n".join(rows) + "\n"


# -- the entry points --------------------------------------------------------


def _scorecard() -> None:
    from benchmarks import scorecard

    scorecard.build(quick=True)


def _examples() -> None:
    directory = os.path.join(REPO_ROOT, "examples")
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".py"):
            continue
        argv = [name, "--quick"] if name == "dc_outage.py" else [name]
        if _run_script(os.path.join(directory, name), argv) != 0:
            raise RuntimeError(f"examples/{name} exited non-zero")


def _run_script(path: str, argv: List[str]) -> int:
    saved = sys.argv
    sys.argv = argv
    try:
        runpy.run_path(path, run_name="__main__")
    except SystemExit as exc:
        return int(exc.code or 0)
    finally:
        sys.argv = saved
    return 0


def _chaos_search() -> None:
    script = os.path.join(REPO_ROOT, "tools", "chaos_search.py")
    for scenario in CHAOS_SCENARIOS:
        # Exit status 1 only says a seed failed (and was shrunk): still a run.
        status = _run_script(
            script,
            ["chaos_search.py", "--seed-range", CHAOS_SEEDS, "--scenario", scenario,
             "--budget", CHAOS_BUDGET, "--keep-going"],
        )
        if status not in (0, 1):
            raise RuntimeError(f"chaos_search on {scenario} exited {status}")


def _corpus() -> None:
    from repro.chaos import ChaosConfig, load_reproducer, run_chaos

    directory = os.path.join(REPO_ROOT, "tests", "chaos", "corpus")
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        reproducer = load_reproducer(os.path.join(directory, name))
        config = {**dataclasses.asdict(ChaosConfig()), **reproducer.config}
        config.update(scenario=reproducer.scenario, seed=reproducer.seed)
        run_chaos(reproducer.schedule, ChaosConfig(**config))


def _perf_workloads() -> None:
    from benchmarks.perf import probe, spec
    from repro.experiments.runner import run_experiment

    seed = spec.input_seeds(spec.DEFAULT_SEED)[0]
    for workload in spec.WORKLOADS:
        args, kwargs = probe.call_arguments(workload.sized(True), seed)
        if workload.sharded:
            kwargs["workers"] = 1
        run_experiment(*args, **kwargs)


ENTRY_POINTS: Tuple[Tuple[str, Callable[[], None]], ...] = (
    ("quick scorecard", _scorecard),
    ("examples", _examples),
    ("chaos search", _chaos_search),
    ("corpus replay", _corpus),
    ("perf workloads", _perf_workloads),
)


def entered_code() -> Set[Tuple[str, int]]:
    """``(real path, first line)`` of every code object the entry points enter."""
    codes: Dict[int, object] = {}

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            codes[id(code)] = code  # holding the code keeps its id unique

    for label, run in ENTRY_POINTS:
        print(f"reach: running {label}", file=sys.stderr, flush=True)
        sys.setprofile(hook)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                run()
        finally:
            sys.setprofile(None)
    return {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in codes.values()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=DEFAULT_OUT, help="list to write (default %(default)s)")
    args = parser.parse_args(argv)
    for path in (REPO_ROOT, os.path.join(REPO_ROOT, "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    text = render(unreached(entered_code()))
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"wrote {args.out}:", *text.splitlines()[-2:], sep="\n  ")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
