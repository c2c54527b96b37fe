"""Ablation experiments for two design choices of Harmony.

* **A1 -- monitoring window**: Harmony's estimates come from windowed counter
  deltas; short windows react fast but are noisy, long windows are smooth but
  sluggish.  :func:`monitoring_interval_ablation` sweeps the interval and
  reports staleness and latency at each setting.
* **A2 -- model vs threshold**: the paper argues a model-driven choice of the
  replica count beats the static read/write-ratio thresholds of earlier
  adaptive-consistency work.  :func:`policy_comparison_ablation` runs Harmony
  next to the threshold baseline (plus the static policies) under identical
  conditions.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.figures import DEFAULTS, FigureDefaults
from repro.experiments.scenarios import GRID5000, Scenario
from repro.metrics.report import MetricsReport
from repro.workload.workloads import WORKLOAD_A, WorkloadConfig

__all__ = ["monitoring_interval_ablation", "policy_comparison_ablation"]


def monitoring_interval_ablation(
    intervals: Sequence[float] = (0.1, 0.25, 0.5, 1.0, 2.0),
    scenario: Scenario = GRID5000,
    defaults: FigureDefaults = DEFAULTS,
    workload: WorkloadConfig = WORKLOAD_A,
    threads: int = 40,
    asr: Optional[float] = None,
) -> MetricsReport:
    """Ablation A1: sweep the monitoring interval at a fixed ASR."""
    tolerated = asr if asr is not None else scenario.harmony_stale_rates[1]
    report = MetricsReport(
        title=f"Ablation A1: monitoring interval sweep (ASR={tolerated}, {threads} threads)"
    )
    rows: List[Dict[str, object]] = []
    for interval in intervals:
        record = defaults.run(
            scenario, workload, f"harmony-{tolerated}", threads, monitoring_interval=interval
        )
        rows.append(
            {"monitoring_interval_s": interval, "decisions": len(record.estimates)}
            | record.columns("stale_rate", "stale_reads", "read_p99_ms", "throughput_ops_s")
            | {"mean_estimate": round(record.estimate_mean, 4)}
        )
    report.add_section("interval sweep", rows)
    report.add_note(
        "Shorter intervals give the controller more decisions per run (faster "
        "reaction) at a slightly noisier estimate; the measured stale rate should stay "
        "at or below the tolerated rate across the sweep."
    )
    return report


def policy_comparison_ablation(
    scenario: Scenario = GRID5000,
    defaults: FigureDefaults = DEFAULTS,
    workload: WorkloadConfig = WORKLOAD_A,
    threads: int = 40,
    thresholds: Sequence[float] = (0.1, 0.3, 1.0),
    asr: Optional[float] = None,
) -> MetricsReport:
    """Ablation A2: Harmony vs static policies vs read/write-ratio thresholds."""
    tolerated = asr if asr is not None else scenario.harmony_stale_rates[1]
    policies: List[str] = [
        "eventual",
        "quorum",
        "strong",
        f"harmony-{tolerated}",
    ] + [f"threshold-{t}" for t in thresholds]
    report = MetricsReport(
        title=f"Ablation A2: policy comparison ({scenario.name}, {threads} threads)"
    )
    rows: List[Dict[str, object]] = []
    for policy in policies:
        record = defaults.run(scenario, workload, policy, threads)
        rows.append(
            record.columns("policy", "stale_rate", "stale_reads", "read_p99_ms", "throughput_ops_s")
            | {"level_usage": dict(record.level_usage)}
        )
    report.add_section("policy comparison", rows)
    report.add_note(
        "Harmony should dominate the threshold rules: equal or lower staleness at "
        "equal or better latency/throughput, because the replica count follows the "
        "estimated stale-read rate instead of a fixed ratio cut-off."
    )
    return report
