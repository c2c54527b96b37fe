"""Integration tests checking the qualitative shapes of the paper's figures.

The benchmark harness regenerates the full figures; these tests run reduced
versions of the same experiments and assert the orderings and trends the
paper reports, so a regression that breaks a figure's shape is caught by
``pytest tests/`` without running the benches.
"""

from __future__ import annotations

import pytest

from repro.control.estimator import StalenessEstimator
from repro.control.monitor import propagation_time
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import EC2, GRID5000
from repro.workload.workloads import WORKLOAD_A, WORKLOAD_B

#: Full experiment runs per policy make this the slowest module in the
#: suite; `-m "not slow"` skips it for quick local iterations.
pytestmark = pytest.mark.slow

WORKLOAD = WORKLOAD_A.scaled(record_count=400, operation_count=2500)
THREADS = 40
SEED = 11
N_NODES = 8
INTERVAL = 0.05


@pytest.fixture(scope="module")
def grid5000_runs():
    """One run per policy on the Grid'5000 scenario at a fixed thread count.

    Keys are the display policy names ("eventual", "strong", "harmony-40%",
    "harmony-20%") so assertions read like the paper's legends.
    """
    results = {}
    for policy in ("eventual", "strong", "harmony-0.4", "harmony-0.2"):
        result = run_experiment(
            GRID5000,
            WORKLOAD,
            policy,
            THREADS,
            seed=SEED,
            n_nodes=N_NODES,
            monitoring_interval=INTERVAL,
        )
        results[result.metrics.policy_name] = result
    return results


class TestFigure5Shapes:
    def test_strong_consistency_has_the_highest_p99_latency(self, grid5000_runs):
        p99 = {name: r.metrics.read_latency.p99() for name, r in grid5000_runs.items()}
        assert p99["strong"] >= p99["eventual"]
        assert p99["strong"] >= p99["harmony-40%"]

    def test_eventual_consistency_has_the_highest_throughput(self, grid5000_runs):
        tp = {name: r.metrics.ops_per_second() for name, r in grid5000_runs.items()}
        assert tp["eventual"] >= tp["strong"]
        assert tp["eventual"] >= tp["harmony-20%"]

    def test_harmony_throughput_beats_strong_consistency(self, grid5000_runs):
        tp = {name: r.metrics.ops_per_second() for name, r in grid5000_runs.items()}
        # The paper reports ~45% improvement; require a clear improvement here.
        assert tp["harmony-40%"] > 1.1 * tp["strong"]

    def test_harmony_latency_is_closer_to_eventual_than_strong(self, grid5000_runs):
        p99 = {name: r.metrics.read_latency.p99() for name, r in grid5000_runs.items()}
        gap_to_eventual = p99["harmony-40%"] - p99["eventual"]
        gap_to_strong = p99["strong"] - p99["harmony-40%"]
        assert gap_to_eventual <= gap_to_strong


class TestFigure6Shapes:
    def test_staleness_ordering_between_policies(self, grid5000_runs):
        stale = {name: r.metrics.staleness.stale_reads for name, r in grid5000_runs.items()}
        assert stale["strong"] == 0
        assert stale["harmony-20%"] <= stale["eventual"]
        assert stale["harmony-40%"] <= stale["eventual"]

    def test_restrictive_setting_cuts_staleness_substantially(self, grid5000_runs):
        stale = {name: r.metrics.staleness.stale_reads for name, r in grid5000_runs.items()}
        if stale["eventual"] >= 5:
            # The paper's headline: ~80% fewer stale reads; require at least half.
            assert stale["harmony-20%"] <= 0.5 * stale["eventual"]

    def test_harmony_uses_higher_levels_under_load(self, grid5000_runs):
        usage = grid5000_runs["harmony-20%"].metrics.consistency_level_usage
        assert any(level != "ONE" for level in usage)


class TestFigure4Shapes:
    def test_estimates_grow_with_thread_count(self):
        estimates = []
        for threads in (1, 15, 40):
            result = run_experiment(
                GRID5000,
                WORKLOAD,
                "harmony-1.0",
                threads,
                seed=SEED,
                n_nodes=N_NODES,
                monitoring_interval=INTERVAL,
            )
            estimates.append(result.metrics.estimate_series.mean())
        assert estimates[0] <= estimates[1] <= estimates[2]
        assert estimates[2] > estimates[0]

    def test_workload_a_estimates_exceed_workload_b(self):
        a = run_experiment(
            GRID5000,
            WORKLOAD_A.scaled(record_count=400, operation_count=2500),
            "harmony-1.0",
            THREADS,
            seed=SEED,
            n_nodes=N_NODES,
            monitoring_interval=INTERVAL,
        )
        b = run_experiment(
            GRID5000,
            WORKLOAD_B.scaled(record_count=400, operation_count=2500),
            "harmony-1.0",
            THREADS,
            seed=SEED,
            n_nodes=N_NODES,
            monitoring_interval=INTERVAL,
        )
        assert a.metrics.estimate_series.mean() > b.metrics.estimate_series.mean()

    def test_analytic_estimate_grows_with_network_latency(self):
        estimator = StalenessEstimator({None: 5})
        values = [
            estimator.estimate(
                read_rate=2000.0,
                write_rate=2000.0,
                propagation_time=propagation_time(latency_ms / 1e3, avg_write_size=1024),
            ).probability
            for latency_ms in (0.5, 2, 10, 50)
        ]
        assert values == sorted(values)
        assert values[-1] >= 0.7  # saturates high, as in Fig. 4(b)

    def test_ec2_platform_yields_higher_estimates_than_grid5000(self):
        grid = run_experiment(
            GRID5000, WORKLOAD, "harmony-1.0", THREADS,
            seed=SEED, n_nodes=N_NODES, monitoring_interval=INTERVAL,
        )
        ec2 = run_experiment(
            EC2, WORKLOAD, "harmony-1.0", THREADS,
            seed=SEED, n_nodes=N_NODES, monitoring_interval=INTERVAL,
        )
        assert ec2.metrics.estimate_series.mean() > grid.metrics.estimate_series.mean()
