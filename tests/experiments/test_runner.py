"""Unit tests for the experiment runner."""

from __future__ import annotations

import pickle

import pytest

from repro.control.policies import make_policy
from repro.experiments import runner
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.experiments.scenarios import GRID5000, GRID5000_3SITES, GRID5000_3SITES_ADAPTIVE
from repro.workload.workloads import WORKLOAD_A, WORKLOAD_B

SMALL = WORKLOAD_A.scaled(record_count=80, operation_count=400)


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
            GRID5000, SMALL, make_policy("eventual"), threads=2, seed=1, n_nodes=6
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


class TestOneSweep:
    def test_the_runner_makes_single_runs_and_the_figures_sweep(self):
        # Fig. 5 / 6's thread sweep is ``figures.figure_5_6_thread_sweep``
        # over ``FigureDefaults.run``; the runner holds no second one.  Policy
        # names resolve in ``repro.control.make_policy``.
        from repro.experiments import figures

        assert runner.__all__ == [
            "ExperimentConfig", "ExperimentResult", "RunRecord", "run_experiment"
        ]
        assert not [name for name in vars(runner) if "sweep" in name]
        assert callable(figures.figure_5_6_thread_sweep)


class TestRunRecord:
    """``ExperimentResult.record()``: the summary row plus the raw values it rounds."""

    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment(
            GRID5000, SMALL, "harmony-0.2", threads=6, seed=1, n_nodes=6, monitoring_interval=0.02
        )

    def test_holds_the_summary_row_and_the_raw_values(self, result):
        record = result.record(b"key")
        metrics = result.metrics
        assert record.key == b"key"
        assert record.row == result.summary()
        assert (record.reads, record.writes) == (metrics.counters.reads, metrics.counters.writes)
        assert record.duration == metrics.duration
        assert record.throughput == metrics.ops_per_second()
        assert record.read_p99 == metrics.read_latency.p99()
        assert record.stale_rate == metrics.staleness.stale_rate()
        assert record.level_usage == metrics.consistency_level_usage
        assert record.estimates == tuple(metrics.estimate_series) != ()
        assert record.estimate_mean == metrics.estimate_series.mean()
        assert record.estimate_max == metrics.estimate_series.max()

    def test_columns_project_the_row_in_the_order_asked(self, result):
        record = result.record(b"key")
        columns = record.columns("stale_rate", "policy")
        assert list(columns) == ["stale_rate", "policy"]
        assert columns == {"stale_rate": record.row["stale_rate"], "policy": "harmony-20%"}
        columns["policy"] = "changed"
        assert record.row["policy"] == "harmony-20%"

    def test_pickles_to_an_equal_record(self, result):
        record = result.record(b"key")
        assert pickle.loads(pickle.dumps(record)) == record

    def test_has_a_read_row_per_scenario_datacenter(self):
        result = run_experiment(
            GRID5000_3SITES,
            SMALL,
            "local_quorum",
            threads=3,
            seed=1,
            datacenters=GRID5000_3SITES.datacenter_names[:2],
        )
        by_dc = result.record(b"key").by_dc
        served, idle = GRID5000_3SITES.datacenter_names[:2], GRID5000_3SITES.datacenter_names[2]
        assert list(by_dc) == GRID5000_3SITES.datacenter_names
        assert by_dc[idle] == {
            "reads": 0, "read_p99_ms": 0.0, "read_mean_ms": 0.0, "stale_rate": 0.0
        }
        for dc in served:
            assert by_dc[dc] == result.metrics.datacenter_summary(dc)
            assert by_dc[dc]["reads"] > 0
        assert sum(row["reads"] for row in by_dc.values()) == result.metrics.counters.reads
