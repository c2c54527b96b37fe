"""Per-figure regenerators.

One function per figure of the paper's evaluation section, except Figures 5
and 6, which plot columns of the same runs and come from one sweep.  Each
figure is a :class:`~repro.metrics.report.MetricsReport` whose sections contain
the rows or series the original figure plots, so the scorecard
(``python -m benchmarks.scorecard``) can judge them and SCORECARD.md can quote them.
:meth:`FigureDefaults.run` is how every figure, claim and ablation run is
made: it returns the run's :class:`~repro.experiments.runner.RunRecord`, and
each record's columns are what the tables hold.

The paper's absolute numbers come from 84-node Grid'5000 clusters and 20-node
EC2 deployments running millions of YCSB operations; the regenerators default
to smaller operation counts (figure fidelity scales with ``operation_count``
and ``record_count`` if more fidelity is wanted).  What must hold are the
*shapes*: orderings between policies, growth trends with thread count and
latency, and the approximate improvement factors.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.cluster import SimulatedCluster
from repro.control.estimator import StalenessEstimator
from repro.control.monitor import AVG_WRITE_SIZE, propagation_time
from repro.experiments.runner import RunRecord, run_experiment
from repro.experiments.scenarios import EC2, GRID5000, Scenario
from repro.metrics.report import MetricsReport
from repro.workload.workloads import WORKLOAD_A, WORKLOAD_B, WorkloadConfig

__all__ = [
    "FigureDefaults",
    "figure_4a_estimation_over_time",
    "figure_4b_latency_impact",
    "figure_5_6_thread_sweep",
]


@dataclass(frozen=True)
class FigureDefaults:
    """Scaled-down run sizes used by the figure regenerators.

    The paper steps the client thread count through 90, 70, 40, 15 and 1;
    the same steps are kept.  Operation and record counts are reduced so a
    full figure regenerates in seconds-to-minutes of wall-clock time.
    """

    record_count: int = 1500
    operation_count: int = 6000
    thread_steps: Sequence[int] = (1, 15, 40, 70, 90)
    n_nodes: Optional[int] = 10
    seed: int = 11
    monitoring_interval: float = 0.05

    _runs: Dict[bytes, RunRecord] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def run(
        self,
        scenario: Scenario,
        workload: WorkloadConfig,
        policy: str,
        threads: int,
        **overrides: object,
    ) -> RunRecord:
        """One figure-size run's record: ``workload`` at these sizes, seed, ring and interval.

        ``overrides`` are :func:`run_experiment` keywords that replace or
        extend those (an interval sweep point, a ``cluster_hook``).

        Each instance keeps a table of the records it made, keyed by the
        complete argument set, pickled (``pickle.loads(record.key)`` gives
        it back), and simulates each argument set once: a figure, claim or
        ablation that asks for a run another already made reads the same
        record.  A run with a ``cluster_hook`` is code, not data: it has no
        key and is never shared.  The table lives as long as the instance;
        the scorecard's ``build()`` makes its own instances, so its table
        lives one build.
        """
        workload = workload.scaled(
            record_count=self.record_count, operation_count=self.operation_count
        )
        options = dict(
            seed=self.seed, n_nodes=self.n_nodes, monitoring_interval=self.monitoring_interval
        ) | overrides
        key = None
        if "cluster_hook" not in options:
            key = pickle.dumps((scenario, workload, policy, threads, sorted(options.items())))
        record = self._runs.get(key)
        if record is None:
            record = run_experiment(scenario, workload, policy, threads, **options).record(key)
            if key is not None:
                self._runs[key] = record
        return record


DEFAULTS = FigureDefaults()


# ----------------------------------------------------------------------
# Figure 4(a): estimated stale-read probability over running time,
# workload A vs workload B, thread count stepping 90 -> 70 -> 40 -> 15 -> 1.
# ----------------------------------------------------------------------
def figure_4a_estimation_over_time(
    defaults: FigureDefaults = DEFAULTS,
    scenario: Scenario = GRID5000,
) -> MetricsReport:
    """Regenerate Fig. 4(a): the Harmony estimate trace for workloads A and B.

    The paper runs each workload while stepping the number of client threads
    down from 90 to 1 and plots the estimated stale-read probability against
    running time.  We reproduce the same staircase by running one Harmony
    experiment per thread step and concatenating the estimate traces, which
    yields the same qualitative curve: higher estimates for the heavy-update
    workload A, lower for the read-mostly workload B, and estimates dropping
    as the thread count (and hence the write rate) drops.
    """
    report = MetricsReport(
        title="Figure 4(a): stale-read estimation vs running time (workload A vs B)"
    )
    summary_rows: List[Dict[str, object]] = []
    for workload in (WORKLOAD_A, WORKLOAD_B):
        series_rows: List[Dict[str, object]] = []
        clock_offset = 0.0
        for threads in sorted(defaults.thread_steps, reverse=True):
            # A pure estimation run: ASR=100% keeps reads at ONE.
            record = defaults.run(scenario, workload, "harmony-1.0", threads)
            for time, value in record.estimates:
                series_rows.append(
                    {
                        "workload": workload.name,
                        "threads": threads,
                        "time_s": round(clock_offset + time, 4),
                        "estimated_stale_probability": round(value, 4),
                    }
                )
            clock_offset += record.duration
            summary_rows.append(
                {
                    "workload": workload.name,
                    "threads": threads,
                    "mean_estimate": round(record.estimate_mean, 4),
                    "max_estimate": round(record.estimate_max, 4),
                    "measured_stale_rate": record.row["stale_rate"],
                }
            )
        report.add_section(f"estimate trace: {workload.name}", series_rows)
    report.add_section("per-step summary", summary_rows)
    report.add_note(
        "Expected shape: workload A (50% updates) produces higher estimates than "
        "workload B (5% updates); estimates fall as the thread count drops."
    )
    return report


# ----------------------------------------------------------------------
# Figure 4(b): estimated stale-read probability vs network latency.
# ----------------------------------------------------------------------
def figure_4b_latency_impact(
    latencies_ms: Sequence[float] = (0.5, 1, 2, 5, 10, 20, 30, 40, 50),
    defaults: FigureDefaults = DEFAULTS,
    scenario: Scenario = EC2,
    threads: int = 4,
) -> MetricsReport:
    """Regenerate Fig. 4(b): stale-read estimate as a function of network latency.

    Two complementary views are produced:

    * the closed-form model evaluated at fixed, representative read/write
      rates across the latency sweep (the analytic curve);
    * full simulated runs where the fabric's latency scale is adjusted so the
      mean one-way latency matches each sweep point, reporting the Harmony
      estimate measured during the run (the empirical curve).
    """
    report = MetricsReport(title="Figure 4(b): stale-read estimation vs network latency")

    # Analytic curve: representative workload-A rates on the EC2 platform.
    estimator = StalenessEstimator({None: scenario.replication_factor})
    reference = defaults.run(scenario, WORKLOAD_A, "harmony-1.0", threads)
    # Recover representative rates from the reference run's counters.
    duration = max(reference.duration, 1e-9)
    read_rate = reference.reads / duration
    write_rate = max(reference.writes / duration, 1e-9)
    analytic_rows: List[Dict[str, object]] = []
    for latency_ms in latencies_ms:
        tp = propagation_time(network_latency=latency_ms / 1e3, avg_write_size=AVG_WRITE_SIZE)
        probability = estimator.estimate(
            read_rate=read_rate, write_rate=write_rate, propagation_time=tp
        ).probability
        analytic_rows.append(
            {
                "network_latency_ms": latency_ms,
                "read_rate_ops_s": round(read_rate, 1),
                "write_rate_ops_s": round(write_rate, 1),
                "estimated_stale_probability": round(probability, 4),
            }
        )
    report.add_section("analytic model sweep", analytic_rows)

    # Empirical curve: scale the simulated network so its mean matches the
    # sweep point, then measure the run-time estimate.
    base_mean_ms = (
        SimulatedCluster(scenario.cluster_config(seed=defaults.seed, n_nodes=defaults.n_nodes))
        .mean_inter_replica_latency()
        * 1e3
    )
    empirical_rows: List[Dict[str, object]] = []
    for latency_ms in latencies_ms:
        scale = max(latency_ms / base_mean_ms, 1e-3)

        def scale_latency(cluster: SimulatedCluster, factor: float = scale) -> None:
            cluster.fabric.latency_scale = factor

        record = defaults.run(
            scenario, WORKLOAD_A, "harmony-1.0", threads, cluster_hook=scale_latency
        )
        empirical_rows.append(
            {
                "network_latency_ms": latency_ms,
                "mean_estimate": round(record.estimate_mean, 4),
                "max_estimate": round(record.estimate_max, 4),
                "measured_stale_rate": record.row["stale_rate"],
            }
        )
    report.add_section("simulated sweep (fabric latency scaled)", empirical_rows)
    report.add_note(
        "Expected shape: the estimate rises monotonically with network latency and "
        "saturates towards (N-1)/N for high latencies, where it dominates the rates."
    )
    return report


# ----------------------------------------------------------------------
# Figures 5 and 6: read p99, throughput and stale reads vs client threads.
# ----------------------------------------------------------------------
def figure_5_6_thread_sweep(
    scenario: Scenario = GRID5000,
    defaults: FigureDefaults = DEFAULTS,
    workload: WorkloadConfig = WORKLOAD_A,
    policies: Optional[Sequence[str]] = None,
) -> Tuple[MetricsReport, MetricsReport]:
    """Regenerate Fig. 5 and Fig. 6 for one platform; returns ``(fig5, fig6)``.

    Fig. 5(a)+(c) and 6(a) on Grid'5000, 5(b)+(d) and 6(b) on EC2.  The two
    figures plot different columns of the same runs (read p99 and
    throughput; stale reads), so each (threads, policy) pair runs once.
    Policies default to the platform's two Harmony settings plus the
    eventual- and strong-consistency baselines, exactly the four series of
    each subfigure.
    """
    lenient, restrictive = scenario.harmony_stale_rates
    if policies is None:
        policies = (f"harmony-{lenient}", f"harmony-{restrictive}", "eventual", "strong")
    latency_rows: List[Dict[str, object]] = []
    throughput_rows: List[Dict[str, object]] = []
    stale_rows: List[Dict[str, object]] = []
    for threads in defaults.thread_steps:
        for policy in policies:
            record = defaults.run(scenario, workload, policy, threads)
            latency_rows.append(
                record.columns("threads", "policy", "read_p99_ms", "read_mean_ms")
            )
            throughput_rows.append(
                record.columns("threads", "policy", "throughput_ops_s")
                | {"operations": record.row["ops"]}
            )
            stale_rows.append(
                record.columns("threads", "policy", "stale_reads")
                | {
                    "reads": record.reads,
                    "stale_rate": record.row["stale_rate"],
                    "level_usage": dict(record.level_usage),
                }
            )

    fig5 = MetricsReport(
        title=(
            f"Figure 5 ({scenario.name}): 99th-percentile read latency and throughput "
            f"vs client threads, {workload.name}"
        )
    )
    fig5.add_section("99th percentile read latency (Fig. 5a/5b)", latency_rows)
    fig5.add_section("overall throughput (Fig. 5c/5d)", throughput_rows)
    fig5.add_note(
        "Expected shape: strong consistency has the highest p99 latency and the lowest "
        "throughput; eventual consistency the lowest latency / highest throughput; the "
        "Harmony settings sit close to eventual consistency, with the more restrictive "
        "setting slightly slower."
    )
    fig6 = MetricsReport(
        title=f"Figure 6 ({scenario.name}): number of stale reads vs client threads, {workload.name}"
    )
    fig6.add_section("stale reads (Fig. 6a/6b)", stale_rows)
    fig6.add_note(
        "Expected shape: strong consistency produces zero stale reads; eventual "
        "consistency the most; Harmony sits in between, with the restrictive setting "
        "producing fewer stale reads than the lenient one."
    )
    return fig5, fig6
