"""Unit tests for the experiment runner."""

from __future__ import annotations

import pytest

from repro.control.policies import HarmonyReadPolicy
from repro.core.policy import StaticEventualPolicy, ThresholdPolicy
from repro.experiments.runner import (
    ExperimentConfig,
    make_policy,
    run_experiment,
    run_thread_sweep,
)
from repro.experiments.scenarios import GRID5000, GRID5000_3SITES_ADAPTIVE
from repro.workload.workloads import WORKLOAD_A, WORKLOAD_B

SMALL = WORKLOAD_A.scaled(record_count=80, operation_count=400)


class TestMakePolicy:
    def test_builds_static_policies(self):
        assert make_policy("eventual", GRID5000).label == "eventual"
        assert make_policy("strong", GRID5000).label == "strong"
        assert make_policy("quorum", GRID5000).label == "quorum"

    def test_builds_harmony_with_fraction_or_percent(self):
        a = make_policy("harmony-0.2", GRID5000)
        b = make_policy("harmony-20%", GRID5000)
        c = make_policy("harmony-20", GRID5000)
        assert isinstance(a, HarmonyReadPolicy)
        assert a.config.tolerated_stale_rate == pytest.approx(0.2)
        assert b.config.tolerated_stale_rate == pytest.approx(0.2)
        assert c.config.tolerated_stale_rate == pytest.approx(0.2)

    @pytest.mark.parametrize(
        "name,rate",
        [
            ("harmony-1%", 0.01),  # was 100 %: the % was stripped before the > 1 rule ran
            ("harmony-0.5%", 0.005),  # was 50 %
            ("harmony-20%", 0.2),
            ("harmony-0.2", 0.2),
            ("harmony-20", 0.2),
        ],
    )
    def test_percent_sign_divides_by_100(self, name, rate):
        policy = make_policy(name, GRID5000)
        assert policy.config.tolerated_stale_rate == pytest.approx(rate)
        assert policy.label == f"harmony-{int(round(rate * 100))}%"

    def test_a_rate_above_100_percent_is_rejected(self):
        with pytest.raises(ValueError, match="tolerated_stale_rate"):
            make_policy("harmony-150", GRID5000)

    def test_harmony_monitoring_interval_override(self):
        policy = make_policy("harmony-0.3", GRID5000, monitoring_interval=0.123)
        assert policy.config.monitoring_interval == pytest.approx(0.123)

    def test_builds_threshold_policy(self):
        policy = make_policy("threshold-0.5", GRID5000)
        assert isinstance(policy, ThresholdPolicy)
        assert policy.threshold == pytest.approx(0.5)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_policy("chaos", GRID5000)


class TestExperimentConfig:
    """Validated on construction, which ``run_experiment`` does before the build."""

    def build(self, **overrides):
        fields = dict(scenario=GRID5000, workload=SMALL, policy_name="eventual", threads=4)
        return ExperimentConfig(**{**fields, **overrides})

    def test_threads_must_be_positive(self):
        with pytest.raises(ValueError, match="threads"):
            self.build(threads=0)

    def test_n_nodes_must_be_positive_when_given(self):
        assert self.build(n_nodes=None).n_nodes is None
        with pytest.raises(ValueError, match="n_nodes"):
            self.build(n_nodes=0)

    def test_monitoring_interval_must_be_positive_when_given(self):
        assert self.build(monitoring_interval=None).monitoring_interval is None
        with pytest.raises(ValueError, match="monitoring_interval"):
            self.build(monitoring_interval=0.0)

    def test_a_bad_value_costs_no_build(self):
        built = []
        with pytest.raises(ValueError, match="threads"):
            run_experiment(GRID5000, SMALL, "eventual", threads=0, cluster_hook=built.append)
        assert built == []


class TestRunExperiment:
    def test_returns_metrics_and_config(self):
        result = run_experiment(GRID5000, SMALL, "eventual", threads=4, seed=1, n_nodes=6)
        assert result.config.policy_name == "eventual"
        assert result.config.threads == 4
        assert result.metrics.counters.total == SMALL.operation_count
        assert result.metrics.duration > 0
        row = result.summary()
        assert row["scenario"] == "grid5000"
        assert row["seed"] == 1

    def test_accepts_policy_objects(self):
        result = run_experiment(
            GRID5000, SMALL, StaticEventualPolicy(), threads=2, seed=1, n_nodes=6
        )
        assert result.metrics.policy_name == "eventual"

    def test_same_seed_same_policy_is_reproducible(self):
        a = run_experiment(GRID5000, SMALL, "eventual", threads=4, seed=9, n_nodes=6)
        b = run_experiment(GRID5000, SMALL, "eventual", threads=4, seed=9, n_nodes=6)
        assert a.metrics.ops_per_second() == pytest.approx(b.metrics.ops_per_second())
        assert a.metrics.read_latency.p99() == pytest.approx(b.metrics.read_latency.p99())
        assert a.metrics.staleness.stale_reads == b.metrics.staleness.stale_reads

    def test_different_seeds_differ(self):
        a = run_experiment(GRID5000, SMALL, "eventual", threads=4, seed=1, n_nodes=6)
        b = run_experiment(GRID5000, SMALL, "eventual", threads=4, seed=2, n_nodes=6)
        assert a.metrics.duration != b.metrics.duration

    def test_cluster_hook_runs_before_load(self):
        seen = []

        def hook(cluster):
            seen.append(cluster.topology.size)
            cluster.fabric.latency_scale = 2.0

        result = run_experiment(
            GRID5000, SMALL, "eventual", threads=2, seed=1, n_nodes=6, cluster_hook=hook
        )
        assert seen == [6]
        assert result.metrics.counters.total == SMALL.operation_count

    def test_harmony_run_records_estimates(self):
        result = run_experiment(
            GRID5000,
            SMALL,
            "harmony-0.3",
            threads=6,
            seed=1,
            n_nodes=6,
            monitoring_interval=0.02,
        )
        assert len(result.metrics.estimate_series) >= 1

    def test_monitoring_pings_leave_the_data_path_alone(self):
        # Harmony tolerating 100 % staleness reads at ONE throughout, like
        # eventual; only its monitor's pings run beside the same seed.  They
        # draw from their own pools, so the two runs are the same run.
        workload = WORKLOAD_A.scaled(record_count=200, operation_count=3000)
        eventual, harmony = (
            run_experiment(GRID5000, workload, name, 20, seed=3, monitoring_interval=0.005)
            for name in ("eventual", "harmony-100%")
        )
        assert dict(harmony.metrics.consistency_level_usage) == {"ONE": 1538}
        assert len(harmony.metrics.estimate_series) > 50
        assert {**harmony.summary(), "policy": "eventual"} == eventual.summary()


class TestResultPlane:
    """The plane is owned by the executor, not found on the policy afterwards."""

    def test_static_policy_beside_repair_exports_decisions(self):
        scenario = GRID5000_3SITES_ADAPTIVE
        result = run_experiment(
            scenario,
            WORKLOAD_B.scaled(record_count=60, operation_count=3000),
            "local_quorum",
            4,
            seed=3,
            datacenters=scenario.datacenter_names,
            think_time=0.05,
        )
        assert result.control_plane.decision_counts == {"repair-schedule.repair_interval": 9}
        assert result.metrics.control_decisions == result.control_plane.decision_counts

    def test_a_lan_harmony_run_returns_the_plane_that_ticked(self):
        result = run_experiment(
            GRID5000, SMALL, "harmony-0.2", threads=6, seed=1, n_nodes=6, monitoring_interval=0.02
        )
        plane = result.control_plane
        assert plane is not None and plane.decisions
        assert {d.policy for d in plane.decisions} == {"harmony"}
        assert result.metrics.control_decisions == plane.decision_counts

    def test_geo_harmony_on_lan_fails_before_load(self):
        built = []
        with pytest.raises(ValueError, match="NetworkTopologyStrategy"):
            run_experiment(GRID5000, SMALL, "geo-harmony", threads=2, cluster_hook=built.append)
        (cluster,) = built
        assert cluster.engine.events_processed == 0


class TestThreadSweep:
    def test_sweep_covers_the_cartesian_product(self):
        results = run_thread_sweep(
            GRID5000,
            WORKLOAD_A.scaled(record_count=50, operation_count=150),
            policy_names=("eventual", "strong"),
            thread_counts=(1, 4),
            seed=2,
            n_nodes=6,
        )
        assert len(results) == 4
        combos = {(r.config.threads, r.config.policy_name) for r in results}
        assert combos == {(1, "eventual"), (1, "strong"), (4, "eventual"), (4, "strong")}
