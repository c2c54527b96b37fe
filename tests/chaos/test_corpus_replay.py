"""Replay every committed corpus reproducer and assert all invariants hold.

The corpus is the regression suite distilled from chaos search: each entry
is a minimized fault schedule that once exposed (or deliberately probes) a
tricky recovery path.  A corpus entry failing here means current code broke
an invariant an earlier version upheld.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from repro.chaos import (
    ChaosConfig,
    load_reproducer,
    run_chaos,
    schedule_from_dict,
    schedule_signature,
    schedule_to_dict,
)

CORPUS_DIR = Path(__file__).parent / "corpus"
CORPUS_FILES = sorted(CORPUS_DIR.glob("*.json"))


def config_for(reproducer) -> ChaosConfig:
    """Default chaos config with the entry's recorded overrides applied."""
    base = dataclasses.asdict(ChaosConfig())
    base.update(reproducer.config)
    base["scenario"] = reproducer.scenario
    base["seed"] = reproducer.seed
    return ChaosConfig(**base)


@pytest.mark.parametrize(
    "field, value",
    [
        ("threads", 0),
        ("record_count", 0),
        ("operation_count", 0),
        ("horizon", 0.0),
        ("scenario", "no_such_scenario"),
    ],
)
def test_chaos_config_validates_on_construction(field, value):
    with pytest.raises(ValueError, match=field):
        ChaosConfig(**{field: value})


def test_corpus_is_not_empty():
    assert len(CORPUS_FILES) >= 3, (
        "the committed corpus must keep at least three reproducers; "
        f"found {len(CORPUS_FILES)} in {CORPUS_DIR}"
    )


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
def test_corpus_entry_replays_clean(path):
    reproducer = load_reproducer(path)
    report = run_chaos(reproducer.schedule, config_for(reproducer))
    assert not report.failed(), (
        f"{path.name} ({reproducer.description!r}) violated "
        f"{report.violated_invariants()}: "
        + "; ".join(str(v) for v in report.violations)
    )
    # Recovery completed for real, not just quietly: every stored hint was
    # accounted for and nothing is still pending.
    assert report.hints["pending"] == 0


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
def test_corpus_entry_round_trips(path):
    reproducer = load_reproducer(path)
    restored = schedule_from_dict(schedule_to_dict(reproducer.schedule))
    assert schedule_signature(restored) == schedule_signature(reproducer.schedule)
