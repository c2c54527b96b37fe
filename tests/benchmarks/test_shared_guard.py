"""The benchmark JSON writer must refuse placeholder values.

A ``PLACEHOLDER`` baseline label once survived a whole change inside a recorded
result file; these tests pin the guard that prevents a repeat, and verify
the recorded result files themselves are clean.
"""

from __future__ import annotations

import fnmatch
import json
import os
import re
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
if REPO_ROOT not in sys.path:
    sys.path.insert(0, REPO_ROOT)

from benchmarks._shared import (  # noqa: E402
    PlaceholderValueError,
    RepetitionMismatchError,
    assert_no_placeholders,
    assert_repetitions_consistent,
    percentile,
    write_benchmark_json,
)
from benchmarks.perf import spec  # noqa: E402


class TestPlaceholderGuard:
    def test_clean_report_passes(self):
        assert_no_placeholders(
            {"benchmark": "x", "ops_per_wall_s": 123.4, "rows": [{"a": 1}, {"b": "ok"}]}
        )

    @pytest.mark.parametrize("marker", ["PLACEHOLDER", "TBD", "FIXME", "CHANGEME"])
    def test_placeholder_strings_rejected(self, marker):
        with pytest.raises(PlaceholderValueError):
            assert_no_placeholders({"baseline": f"{marker}: measure me"})

    def test_placeholder_in_nested_list_rejected(self):
        with pytest.raises(PlaceholderValueError) as excinfo:
            assert_no_placeholders({"rows": [{"ok": 1}, {"bad": ["fine", "PLACEHOLDER"]}]})
        assert "rows" in str(excinfo.value)

    def test_placeholder_dict_key_rejected(self):
        with pytest.raises(PlaceholderValueError):
            assert_no_placeholders({"PLACEHOLDER_FIELD": 1})

    def test_non_finite_numbers_rejected(self):
        with pytest.raises(PlaceholderValueError):
            assert_no_placeholders({"speedup": float("nan")})
        with pytest.raises(PlaceholderValueError):
            assert_no_placeholders({"speedup": float("inf")})

    def test_write_refuses_and_leaves_no_file(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        with pytest.raises(PlaceholderValueError):
            write_benchmark_json(str(path), {"baseline": "PLACEHOLDER"})
        assert not path.exists()

    def test_write_accepts_clean_report(self, tmp_path):
        path = tmp_path / "BENCH_ok.json"
        report = {"benchmark": "demo", "value": 1.5}
        write_benchmark_json(str(path), report)
        assert json.loads(path.read_text()) == report


class TestRepetitionGuard:
    def test_matching_reps_pass(self):
        assert_repetitions_consistent(
            {"repetitions": 3, "optimized_all_reps_ops_per_wall_s": [1.0, 2.0, 3.0]}
        )

    def test_mismatched_reps_rejected(self):
        # The historical bug: "repetitions": 3 with four recorded entries.
        with pytest.raises(RepetitionMismatchError):
            assert_repetitions_consistent(
                {"repetitions": 3, "optimized_all_reps_ops_per_wall_s": [1.0, 2.0, 3.0, 4.0]}
            )

    def test_nested_sections_are_checked(self):
        with pytest.raises(RepetitionMismatchError):
            assert_repetitions_consistent(
                {"inner": {"repetitions": 2, "all_reps_wall_s": [0.1]}}
            )

    def test_reports_without_reps_metadata_pass(self):
        assert_repetitions_consistent({"benchmark": "x", "values": [1, 2, 3]})

    def test_write_refuses_mismatch(self, tmp_path):
        path = tmp_path / "BENCH_bad_reps.json"
        with pytest.raises(RepetitionMismatchError):
            write_benchmark_json(
                str(path), {"repetitions": 1, "all_reps_ops": [1.0, 2.0]}
            )
        assert not path.exists()


LEDGER = "benchmarks/perf/recorded/ledger.json"


def _load(name):
    with open(os.path.join(REPO_ROOT, name), "r", encoding="utf-8") as handle:
        return json.load(handle)


class TestRecordedBenchmarkFilesAreClean:
    @pytest.mark.parametrize("name", ["SCORECARD.json", "BENCHMARK.json", LEDGER])
    def test_recorded_results_contain_no_placeholders(self, name):
        report = _load(name)
        assert_no_placeholders(report)
        assert_repetitions_consistent(report)

    def test_sharded_baseline_is_a_real_measurement(self):
        ledger = _load(LEDGER)
        row = ledger["workloads"]["scale1000_sharded"]
        assert ledger["provenance"]["quick"] is False
        assert row["failed"] == 0 and row["checks"] == []
        for metric in spec.END_TO_END:
            cell = row["end_to_end"][metric.name]
            # Host timings are one per repetition; simulated results are
            # exact for an input, so they hold one value per input.
            assert cell["n"] >= (5 if metric.clock == "host" else 1), metric.name
            assert cell["median"] > 0, metric.name
        assert re.fullmatch(r"[0-9a-f]{64}", row["sim_digest"])

    def test_the_root_holds_no_other_recorded_results(self):
        with open(os.path.join(REPO_ROOT, ".gitignore"), "r", encoding="utf-8") as handle:
            ignored = [line.strip() for line in handle if line.strip()]
        recorded = {
            name
            for name in os.listdir(REPO_ROOT)
            if name.endswith(".json")
            and not any(fnmatch.fnmatch(name, pattern) for pattern in ignored)
        }
        assert recorded == {"BENCHMARK.json", "SCORECARD.json"}


class TestPercentile:
    def test_nearest_rank_of_unsorted_values(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 50) == 3.0
        assert percentile(values, 99) == 5.0
        assert percentile(values, 100) == 5.0

    def test_empty_input_has_no_percentile(self):
        assert percentile([], 50) is None
