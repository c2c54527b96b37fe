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


def parallel_report(aggregate=50_000.0, deterministic=True):
    """A ``bench_fabric.py`` report that clears every recorded floor."""
    return {
        "benchmark": "bench_fabric_parallel",
        "scenario": "scale_300",
        "config": {"shards": 8, "workers": 4},
        "deterministic": deterministic,
        "workers_n": {"aggregate_ops_per_busy_s": aggregate},
        "speedup_aggregate_vs_workers_1": 2.5,
        "speedup_vs_single_process": 3.5,
    }


class TestMain:
    def _write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_exit_codes(self, tmp_path):
        fresh = self._write(tmp_path, "fresh.json", parallel_report())
        base = self._write(tmp_path, "base.json", parallel_report())
        assert main(["--parallel-fresh", fresh, "--parallel-baseline", base]) == 0
        bad = self._write(tmp_path, "bad.json", parallel_report(deterministic=False))
        assert main(["--parallel-fresh", bad, "--parallel-baseline", base]) == 1

    def test_threshold_flag(self, tmp_path):
        fresh = self._write(tmp_path, "fresh.json", parallel_report(aggregate=46_000.0))
        base = self._write(tmp_path, "base.json", parallel_report())
        pair = ["--parallel-fresh", fresh, "--parallel-baseline", base]
        assert main([*pair, "--max-regression", "0.05"]) == 1
        assert main([*pair, "--max-regression", "0.1"]) == 0

    def test_a_run_that_selects_no_guard_fails(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", parallel_report())
        assert main(["--parallel-baseline", base]) == 1
        assert "no guard selected" in capsys.readouterr().err

    def test_real_recorded_baseline_compares_with_itself(self):
        # The guard's default baseline is the recorded file at the repo root.
        recorded = os.path.join(REPO_ROOT, "BENCH_fabric.json")
        assert main(["--parallel-fresh", recorded]) == 0
