"""Unit tests for the CI perf-trend guard."""

from __future__ import annotations

import importlib.util
import json
import os

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
GUARD = os.path.join(REPO_ROOT, "tools", "check_perf_trend.py")

spec = importlib.util.spec_from_file_location("check_perf_trend", GUARD)
_module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(_module)
main = _module.main
compare_repair = _module.compare_repair


def repair_report(bytes_per_session=2000.0, ratio=8.0, claims=None):
    doc = {
        "steady_state": {
            "incremental": {"bytes_per_session": bytes_per_session},
            "full_vs_incremental_bytes_ratio": ratio,
        }
    }
    if claims is not None:
        doc["bandwidth_contention"] = {"claims": claims}
    return doc


ALL_CLAIMS = {
    "bandwidth_inflates_foreground_p99": True,
    "throttle_bounds_p99_inflation": True,
    "recovery_completes_in_every_arm": True,
    "throttle_engages_backpressure": True,
}


class TestCompareRepair:
    def test_all_claims_holding_pass(self):
        _lines, failures = compare_repair(
            repair_report(claims=ALL_CLAIMS), repair_report(claims=ALL_CLAIMS), 0.25
        )
        assert failures == []

    def test_missing_contention_section_fails(self):
        _lines, failures = compare_repair(
            repair_report(), repair_report(claims=ALL_CLAIMS), 0.25
        )
        assert any("bandwidth_contention" in f for f in failures)

    def test_failed_claim_is_named(self):
        claims = dict(ALL_CLAIMS, throttle_bounds_p99_inflation=False)
        _lines, failures = compare_repair(
            repair_report(claims=claims), repair_report(claims=ALL_CLAIMS), 0.25
        )
        assert any("throttle_bounds_p99_inflation" in f for f in failures)

    def test_real_recorded_repair_baseline_passes(self):
        path = os.path.join(REPO_ROOT, "BENCH_repair.json")
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        _lines, failures = compare_repair(doc, doc, 0.25)
        assert failures == []


class TestMain:
    def _write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_exit_codes(self, tmp_path):
        fresh = self._write(tmp_path, "fresh.json", repair_report(claims=ALL_CLAIMS))
        base = self._write(tmp_path, "base.json", repair_report(claims=ALL_CLAIMS))
        assert main(["--repair-fresh", fresh, "--repair-baseline", base]) == 0
        bad = self._write(
            tmp_path, "bad.json", repair_report(bytes_per_session=9000.0, claims=ALL_CLAIMS)
        )
        assert main(["--repair-fresh", bad, "--repair-baseline", base]) == 1

    def test_threshold_flag(self, tmp_path):
        fresh = self._write(
            tmp_path, "fresh.json", repair_report(bytes_per_session=2160.0, claims=ALL_CLAIMS)
        )
        base = self._write(tmp_path, "base.json", repair_report(claims=ALL_CLAIMS))
        pair = ["--repair-fresh", fresh, "--repair-baseline", base]
        assert main([*pair, "--max-regression", "0.05"]) == 1
        assert main([*pair, "--max-regression", "0.1"]) == 0

    def test_a_run_that_selects_no_guard_fails(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", repair_report(claims=ALL_CLAIMS))
        assert main(["--repair-baseline", base]) == 1
        assert "no guard selected" in capsys.readouterr().err

    def test_real_recorded_baseline_compares_with_itself(self):
        # Each guard's default baseline is its recorded file at the repo root.
        recorded = os.path.join(REPO_ROOT, "BENCH_fabric.json")
        assert main(["--parallel-fresh", recorded]) == 0
