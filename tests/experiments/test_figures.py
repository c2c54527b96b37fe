"""Tests for the per-figure regenerators (scaled down for speed).

These are functional tests of the harness, not fidelity checks -- the
figure-shape assertions (who wins, by roughly how much) live in
``tests/integration/test_paper_shapes.py`` and in the benchmark harness.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.experiments import figures
from repro.experiments.claims import headline_claims
from repro.experiments.ablations import monitoring_interval_ablation, policy_comparison_ablation
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import GRID5000
from repro.metrics.report import MetricsReport
from repro.workload.workloads import WORKLOAD_A, WORKLOAD_B


@pytest.fixture
def defaults(quick_figure_defaults):
    return quick_figure_defaults


def test_figure_4a_produces_traces_for_both_workloads(defaults):
    report = figures.figure_4a_estimation_over_time(defaults, scenario=GRID5000)
    assert isinstance(report, MetricsReport)
    assert "estimate trace: workload-a" in report.sections
    assert "estimate trace: workload-b" in report.sections
    summary = report.sections["per-step summary"]
    assert len(summary) == 2 * len(defaults.thread_steps)
    for row in summary:
        assert 0.0 <= row["mean_estimate"] <= 1.0


def test_figure_4b_produces_analytic_and_simulated_sections(defaults):
    report = figures.figure_4b_latency_impact(
        latencies_ms=(1, 10), defaults=defaults, threads=4
    )
    analytic = report.sections["analytic model sweep"]
    assert [row["network_latency_ms"] for row in analytic] == [1, 10]
    # The analytic estimate must not decrease with latency.
    assert analytic[0]["estimated_stale_probability"] <= analytic[1][
        "estimated_stale_probability"
    ]
    simulated = report.sections["simulated sweep (fabric latency scaled)"]
    assert len(simulated) == 2


def test_figures_5_and_6_come_from_one_sweep(defaults, monkeypatch):
    policies = ("eventual", "strong")
    runs = []

    def counted(scenario, workload, policy, threads, **kwargs):
        runs.append((threads, policy))
        return run_experiment(scenario, workload, policy, threads, **kwargs)

    monkeypatch.setattr(figures, "run_experiment", counted)
    fig5, fig6 = figures.figure_5_6_thread_sweep(
        scenario=GRID5000,
        defaults=defaults,
        workload=WORKLOAD_A,
        policies=policies,
    )
    # Each (threads, policy) pair runs exactly once, and all three tables come from it.
    pairs = [(threads, policy) for threads in defaults.thread_steps for policy in policies]
    assert runs == pairs
    latency_rows = fig5.sections["99th percentile read latency (Fig. 5a/5b)"]
    throughput_rows = fig5.sections["overall throughput (Fig. 5c/5d)"]
    stale_rows = fig6.sections["stale reads (Fig. 6a/6b)"]
    for rows in (latency_rows, throughput_rows, stale_rows):
        assert [(row["threads"], row["policy"]) for row in rows] == pairs
    assert all(row["read_p99_ms"] >= 0 for row in latency_rows)
    assert all(row["throughput_ops_s"] > 0 for row in throughput_rows)
    assert all(row["stale_reads"] == 0 for row in stale_rows if row["policy"] == "strong")


def test_headline_claims_report_and_outcomes(defaults):
    report, outcomes = headline_claims(
        scenario=GRID5000, defaults=defaults, threads=8
    )
    assert len(outcomes) == 2
    assert "policy comparison" in report.sections
    assert "claims" in report.sections
    names = {o.claim for o in outcomes}
    assert any("stale-read reduction" in n for n in names)
    assert any("throughput improvement" in n for n in names)


def test_monitoring_interval_ablation_runs(defaults):
    report = monitoring_interval_ablation(
        intervals=(0.05, 0.2), defaults=defaults, threads=6
    )
    rows = report.sections["interval sweep"]
    assert [row["monitoring_interval_s"] for row in rows] == [0.05, 0.2]
    assert rows[0]["decisions"] >= rows[1]["decisions"]


def test_policy_comparison_ablation_runs(defaults):
    report = policy_comparison_ablation(
        defaults=defaults, threads=6, thresholds=(0.3,)
    )
    rows = report.sections["policy comparison"]
    policies = {row["policy"] for row in rows}
    assert {"eventual", "quorum", "strong"} <= policies
    assert any(p.startswith("harmony") for p in policies)
    assert any(p.startswith("threshold") for p in policies)


def test_reports_render_to_text(defaults):
    fig5, fig6 = figures.figure_5_6_thread_sweep(
        scenario=GRID5000,
        defaults=defaults,
        workload=WORKLOAD_A,
        policies=("eventual",),
    )
    for report, title in ((fig5, "Figure 5"), (fig6, "Figure 6")):
        text = report.render()
        assert title in text
        assert "threads" in text


def _counted_runs(monkeypatch):
    runs = []

    def counted(*args, **kwargs):
        runs.append(args)
        return run_experiment(*args, **kwargs)

    monkeypatch.setattr(figures, "run_experiment", counted)
    return runs


def test_an_argument_set_is_simulated_once_per_defaults(defaults, monkeypatch):
    runs = _counted_runs(monkeypatch)
    first = defaults.run(GRID5000, WORKLOAD_A, "eventual", 2)
    assert defaults.run(GRID5000, WORKLOAD_A, "eventual", 2, seed=defaults.seed) is first
    assert len(runs) == 1
    # The key is the argument set itself, pickled.
    scenario, workload, policy, threads, options = pickle.loads(first.key)
    assert (scenario.name, workload, policy, threads) == ("grid5000", *runs[0][1:])
    assert dict(options) == {
        "seed": defaults.seed,
        "n_nodes": defaults.n_nodes,
        "monitoring_interval": defaults.monitoring_interval,
    }
    # Any argument that differs is another run, and a copy starts its own table.
    defaults.run(GRID5000, WORKLOAD_A, "eventual", 2, monitoring_interval=0.1)
    dataclasses.replace(defaults).run(GRID5000, WORKLOAD_A, "eventual", 2)
    assert len(runs) == 3


def test_hooked_runs_are_never_shared(defaults, monkeypatch):
    runs = _counted_runs(monkeypatch)
    hooked = []
    first, second = (
        defaults.run(GRID5000, WORKLOAD_A, "eventual", 2, cluster_hook=hooked.append)
        for _ in range(2)
    )
    assert len(runs) == len(hooked) == 2
    assert first is not second and first == second
    assert first.key is None
    # The hook saw each cluster; a hook that changes nothing leaves the row as it was.
    assert defaults.run(GRID5000, WORKLOAD_A, "eventual", 2).row == first.row
    assert len(runs) == 3


def test_a_full_size_record_pickles_under_64_kib():
    # Fig. 4(a)'s workload-B single-thread run has the longest estimate series.
    record = dataclasses.replace(figures.DEFAULTS).run(GRID5000, WORKLOAD_B, "harmony-1.0", 1)
    assert len(record.estimates) > 500
    assert len(pickle.dumps(record)) <= 64 * 1024
