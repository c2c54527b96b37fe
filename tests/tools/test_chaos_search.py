"""``tools/chaos_search.py`` writes reproducers only where it is told to.

Every committed corpus entry must replay clean in tier-1, so a search that
drops its failing seeds into ``tests/chaos/corpus/`` by default breaks the
suite for whoever runs it.  ``run_chaos`` is stubbed to fail every seed.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.chaos import load_reproducer
from tools import chaos_search

CORPUS_DIR = Path(__file__).resolve().parents[1] / "chaos" / "corpus"
ARGS = ["--seed-range", "0:2", "--scenario", "grid5000_3sites", "--no-shrink", "--keep-going"]


class FailingReport:
    violations = ["stub: every seed fails"]

    def failed(self) -> bool:
        return True

    def violated_invariants(self):
        return ["stub_invariant"]


@pytest.fixture
def every_seed_fails(monkeypatch):
    monkeypatch.setattr(chaos_search, "run_chaos", lambda schedule, config: FailingReport())


def test_failing_seeds_leave_the_committed_corpus_untouched(every_seed_fails):
    before = set(CORPUS_DIR.iterdir())
    try:
        assert chaos_search.main(ARGS) == 1
    finally:
        added = set(CORPUS_DIR.iterdir()) - before
        for path in added:
            path.unlink()
    assert not added


def test_emit_corpus_writes_each_failing_seed_into_its_directory(every_seed_fails, tmp_path):
    assert chaos_search.main(ARGS + ["--emit-corpus", str(tmp_path)]) == 1
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == ["found_grid5000_3sites_seed0.json", "found_grid5000_3sites_seed1.json"]
    reproducer = load_reproducer(tmp_path / written[0])
    assert (reproducer.scenario, reproducer.seed) == ("grid5000_3sites", 0)
    assert reproducer.expected_violations == ["stub_invariant"]
