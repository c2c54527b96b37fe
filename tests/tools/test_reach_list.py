"""``tools/unreached.txt`` names defs that exist, as they are now.

``tools/reach.py`` regenerates the list by running every entry point (about
two minutes; CI diffs the result).  This guard reads source only: each entry
must name a def at that path with that qualname and line count, the entries
must be sorted, and the totals must be the sums of the entries.  So a change
that deletes or edits a listed function without regenerating the list fails
here too, not only in CI.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

from tools import reach

REPO_ROOT = Path(__file__).resolve().parents[2]
LIST = REPO_ROOT / "tools" / "unreached.txt"


def _read_list():
    entries, totals = [], {}
    for line in LIST.read_text(encoding="utf-8").splitlines():
        fields = line.split("  ")
        if fields[0] == "total":
            totals[fields[1]] = (int(fields[2]), int(fields[3]))
        else:
            path, qualname, lines = fields
            entries.append((path, qualname, int(lines)))
    return entries, totals


def test_every_entry_names_a_def_of_that_length():
    entries, _ = _read_list()
    assert entries
    listed = Counter(entries)
    present = Counter()
    for path in {path for path, _, _ in entries}:
        source = REPO_ROOT / path
        if source.is_file():
            present.update((path, d.qualname, d.lines) for d, _ in reach.file_defs(str(source)))
    stale = sorted((listed - present).elements())
    assert not stale, f"regenerate with `PYTHONPATH=src python tools/reach.py`: {stale}"


def test_entries_are_sorted():
    lines = LIST.read_text(encoding="utf-8").splitlines()
    body = [line for line in lines if not line.startswith("total  ")]
    assert lines[: len(body)] == body, "the totals close the list"
    assert body == sorted(body)


def test_totals_are_the_sums_of_the_entries():
    entries, totals = _read_list()
    outside = [e for e in entries if not e[0].startswith(reach.PARALLEL)]
    assert totals == {
        "src/repro": (len(entries), sum(lines for _, _, lines in entries)),
        f"outside {reach.PARALLEL}": (len(outside), sum(lines for _, _, lines in outside)),
    }
