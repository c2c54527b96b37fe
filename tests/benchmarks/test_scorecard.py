"""The committed scorecard is what the one entry point writes.

``SCORECARD.json`` / ``SCORECARD.md`` are exact for a seed; CI regenerates
them at full size and diffs.  Tier-1 holds the parts that do not need the
full run: the committed record is clean, complete and rendered, and a
``--quick`` build reaches the same verdict on every row.
"""

from __future__ import annotations

import json
import os
import pickle
import re
import sys
from collections import Counter

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
if REPO_ROOT not in sys.path:
    sys.path.insert(0, REPO_ROOT)

from benchmarks import scorecard  # noqa: E402
from benchmarks._shared import assert_no_placeholders  # noqa: E402
from repro.control.policies import make_policy  # noqa: E402
from repro.experiments import ablations, claims, figures  # noqa: E402
from repro.experiments.runner import ExperimentResult, run_experiment  # noqa: E402
from repro.experiments.scenarios import GRID5000  # noqa: E402


@pytest.fixture(scope="module")
def committed():
    with open(os.path.join(REPO_ROOT, "SCORECARD.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def _keys(value):
    if isinstance(value, dict):
        for key, item in value.items():
            yield key
            yield from _keys(item)
    elif isinstance(value, list):
        for item in value:
            yield from _keys(item)


def _verdicts(doc):
    return {row["id"]: row["verdict"] for row in doc["rows"]}


class TestCommittedScorecard:
    def test_is_a_full_size_measurement_without_placeholders(self, committed):
        assert committed["quick"] is False
        assert_no_placeholders(committed)

    def test_records_no_wall_clock_or_host_field(self, committed):
        offenders = [key for key in _keys(committed) if re.search("wall|host|elapsed_wall", key)]
        assert offenders == []

    def test_names_every_registered_section(self, committed):
        assert list(committed["tables"]) == list(scorecard.SECTIONS)
        assert {row["section"] for row in committed["rows"]} == set(scorecard.SECTIONS)
        ids = [row["id"] for row in committed["rows"]]
        assert len(ids) == len(set(ids))
        assert {row["verdict"] for row in committed["rows"]} <= {"holds", "differs"}

    def test_markdown_is_the_rendering_of_the_json(self, committed):
        with open(os.path.join(REPO_ROOT, "SCORECARD.md"), "r", encoding="utf-8") as handle:
            assert handle.read() == scorecard.render(committed)


def test_policy_labels_match_the_policies_own_names():
    assert [scorecard._pct(rate / 100) for rate in range(1, 100)] == [
        make_policy(f"harmony-{rate / 100}", GRID5000).label for rate in range(1, 100)
    ]


def _argument_set(args, kwargs):
    """A comparable ``run_experiment`` argument set (a hook by its code and bound values)."""
    return repr(args) + repr(
        sorted(
            (key, (value.__qualname__, value.__defaults__) if callable(value) else value)
            for key, value in kwargs.items()
        )
    )


@pytest.mark.slow
def test_quick_build_reaches_the_committed_verdicts(committed, monkeypatch):
    """Verdicts are size-independent by construction; numbers are not compared.

    While it builds, the figure, claim, ablation and geo runs are counted:
    Fig. 5 and Fig. 6 share one sweep, and the three runs the policy
    ablation asks for that Fig. 5's Grid'5000 sweep already made at 40
    threads are read from the build's table, so no argument set runs twice.
    The nine Fig. 4(b) runs carry a cluster hook and are all made.  Every
    record the build reads has been through pickle and back.  (The
    subsystem benchmarks repeat runs on purpose, to check determinism; they
    are not counted.)
    """
    calls = []
    hooked = []

    def counted(*args, **kwargs):
        calls.append(_argument_set(args, kwargs))
        if "cluster_hook" in kwargs:
            hooked.append(kwargs["cluster_hook"])
        return run_experiment(*args, **kwargs)

    def round_tripped(result, key):
        record = make_record(result, key)
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record
        return copy

    def asked(defaults, *args, **kwargs):
        asks.append(args)
        return ask(defaults, *args, **kwargs)

    asks = []
    ask = figures.FigureDefaults.run
    monkeypatch.setattr(figures.FigureDefaults, "run", asked)
    make_record = ExperimentResult.record
    monkeypatch.setattr(ExperimentResult, "record", round_tripped)
    for module in (figures, claims, ablations, scorecard):
        if getattr(module, "run_experiment", None) is run_experiment:
            monkeypatch.setattr(module, "run_experiment", counted)
    quick = scorecard.build(quick=True)
    assert (len(asks), len(calls)) == (50, 47)
    assert [args for args, n in Counter(calls).items() if n > 1] == []
    assert len(hooked) == len(scorecard.LATENCIES_MS)
    assert quick["quick"] is True
    assert _verdicts(quick) == _verdicts(committed)
    # Exact for a seed: the cheapest section, built again, is the same section.
    rows, table = scorecard.build_section("geo", quick=True)
    assert table == quick["tables"]["geo"]
    assert rows == [row for row in quick["rows"] if row["section"] == "geo"]
