"""The pieces of ``tools/reach.py``, on small sources and on ``src/repro``.

The hook matches a def by ``(real path, co_firstlineno)``, so what the
tool reads from the AST must be what the compiler puts on the code object:
a def whose first line disagreed would be listed however often it ran.
"""

from __future__ import annotations

import inspect
import os
import sys
import textwrap

import pytest

from tools import reach

SAMPLE = '''\
import abc
import functools


class Outer:
    class Inner:
        def method(self):
            def helper():
                return 1

            return helper

    @staticmethod
    @functools.lru_cache(
        maxsize=None,
    )
    def cached(x):
        return x


async def fetch():
    return [y for y in range(3)]


def plain():
    square = lambda v: v * v
    return square(2)
'''


def _write(tmp_path, source, name="sample.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return str(path)


def _compiled_defs(path):
    """``(qualname, co_firstlineno)`` of every def the compiler makes of ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        module = compile(handle.read(), path, "exec")
    found = set()

    def walk(code, prefix):
        for const in code.co_consts:
            if not inspect.iscode(const) or const.co_name.startswith("<"):
                continue  # lambdas and comprehensions are not defs
            if const.co_flags & inspect.CO_NEWLOCALS:
                qualname = prefix + const.co_name
                found.add((qualname, const.co_firstlineno))
                walk(const, f"{qualname}.<locals>.")
            else:  # a class body
                walk(const, f"{prefix}{const.co_name}.")

    walk(module, "")
    return found


def test_qualnames_and_first_lines_are_the_compilers(tmp_path):
    path = _write(tmp_path, SAMPLE)
    defs = [d for d, _ in reach.file_defs(path, root=str(tmp_path))]
    assert [d.qualname for d in defs] == [
        "Outer.Inner.method",
        "Outer.Inner.method.<locals>.helper",
        "Outer.cached",
        "fetch",
        "plain",
    ]
    assert {(d.qualname, d.first_line) for d in defs} == _compiled_defs(path)
    assert {d.path for d in defs} == {"sample.py"}


def test_every_src_def_is_found_where_the_hook_looks_for_it():
    for path in reach.source_files():
        tool = {(d.qualname, d.first_line) for d, _ in reach.file_defs(path)}
        assert tool == _compiled_defs(path), path


def test_lines_run_from_the_def_line_to_the_end_of_the_body(tmp_path):
    path = _write(tmp_path, SAMPLE)
    defs = {d.qualname: d for d, _ in reach.file_defs(path, root=str(tmp_path))}
    # Decorators move the first line up but add nothing to the length.
    assert defs["Outer.cached"].first_line == 13
    assert defs["Outer.cached"].lines == 2
    assert defs["Outer.Inner.method"].lines == 5
    assert defs["Outer.Inner.method.<locals>.helper"].parent is defs["Outer.Inner.method"]
    assert defs["plain"].parent is None


@pytest.mark.parametrize(
    "header, exempt",
    [
        ("def __repr__(self):", True),
        ("def __str__(self):", True),
        ("@abstractmethod\n    def run(self):", True),
        ("@abc.abstractmethod\n    def run(self):", True),
        ("def __eq__(self, other):", False),
        ("@staticmethod\n    def run():", False),
        ("@property\n    def run(self):", False),
    ],
)
def test_exempt_defs(tmp_path, header, exempt):
    path = _write(tmp_path, f"class C:\n    {header}\n        return 0\n")
    [(found, is_exempt)] = list(reach.file_defs(path, root=str(tmp_path)))
    assert is_exempt is exempt, found.qualname


NESTED = '''\
def entered():
    def skipped_inside_entered():
        return 0
    return 1


def missed():
    def folded_into_missed():
        return 0
    return 1


def __repr__():
    return ""
'''


def test_unreached_lists_misses_and_folds_defs_nested_in_one(tmp_path, monkeypatch):
    path = _write(tmp_path, NESTED)
    monkeypatch.setattr(reach, "source_files", lambda: [path])
    entered = {(os.path.realpath(path), 1)}
    missed = reach.unreached(entered)
    assert [d.qualname for d in missed] == ["entered.<locals>.skipped_inside_entered", "missed"]
    assert [d.lines for d in missed] == [2, 4]


def test_render_sorts_the_rows_and_totals_both_scopes():
    missed = [
        reach.Def("src/repro/z.py", "late", 1, 3, None),
        reach.Def(reach.PARALLEL + "shard.py", "window", 1, 7, None),
        reach.Def("src/repro/a.py", "early", 1, 2, None),
    ]
    assert reach.render(missed).splitlines() == [
        "src/repro/a.py  early  2",
        "src/repro/sim/parallel/shard.py  window  7",
        "src/repro/z.py  late  3",
        "total  src/repro  3  12",
        f"total  outside {reach.PARALLEL}  2  5",
    ]


def _noisy_entry_point():
    print("entry point output")
    return 1


def test_entered_code_records_each_entered_code_and_swallows_stdout(monkeypatch, capsys):
    monkeypatch.setattr(reach, "ENTRY_POINTS", (("noisy", _noisy_entry_point),))
    before = sys.getprofile()
    entered = reach.entered_code()
    code = _noisy_entry_point.__code__
    assert (os.path.realpath(code.co_filename), code.co_firstlineno) in entered
    assert sys.getprofile() is before
    captured = capsys.readouterr()
    assert "entry point output" not in captured.out
    assert "reach: running noisy" in captured.err


def _failing_entry_point():
    raise RuntimeError("entry point failed")


def test_entered_code_removes_the_hook_when_an_entry_point_fails(monkeypatch):
    monkeypatch.setattr(reach, "ENTRY_POINTS", (("failing", _failing_entry_point),))
    before = sys.getprofile()
    with pytest.raises(RuntimeError, match="entry point failed"):
        reach.entered_code()
    assert sys.getprofile() is before


def test_run_script_returns_the_exit_status_and_restores_argv(tmp_path):
    path = _write(
        tmp_path,
        "import sys\nif len(sys.argv) > 1:\n    sys.exit(int(sys.argv[1]))\n",
        name="script.py",
    )
    saved = list(sys.argv)
    assert reach._run_script(path, ["script.py"]) == 0
    assert reach._run_script(path, ["script.py", "0"]) == 0
    assert reach._run_script(path, ["script.py", "3"]) == 3
    assert sys.argv == saved


def test_main_writes_the_rendered_list(tmp_path, monkeypatch, capsys):
    path = _write(tmp_path, NESTED)
    out = tmp_path / "unreached.txt"
    monkeypatch.setattr(reach, "source_files", lambda: [path])
    monkeypatch.setattr(reach, "entered_code", lambda: {(os.path.realpath(path), 1)})
    assert reach.main(["--out", str(out)]) == 0
    expected = reach.render(reach.unreached({(os.path.realpath(path), 1)}))
    assert out.read_text(encoding="utf-8") == expected
    assert expected.splitlines()[-1] in capsys.readouterr().out
