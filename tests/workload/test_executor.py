"""Unit tests for the workload executor and client threads."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.cluster.cluster import ClusterConfig, SimulatedCluster
from repro.cluster.consistency import ConsistencyLevel
from repro.cluster.node import NodeConfig
from repro.control.policies import GeoReadPolicy, ThresholdReadPolicy, make_policy
from repro.staleness.auditor import StalenessAuditor
from repro.staleness.stats import StalenessStats
from repro.workload.executor import WorkloadExecutor
from repro.workload.workloads import WORKLOAD_A, WorkloadConfig


def make_cluster(seed: int = 4) -> SimulatedCluster:
    return SimulatedCluster(
        ClusterConfig(
            n_nodes=6,
            replication_factor=3,
            seed=seed,
            node=NodeConfig(
                concurrency=8,
                read_service_time=0.001,
                write_service_time=0.0008,
                service_time_cv=0.3,
            ),
        )
    )


def run_workload(policy, workload=None, threads=4, seed=4, auditor=None):
    cluster = make_cluster(seed)
    executor = WorkloadExecutor(
        cluster,
        workload or WORKLOAD_A.scaled(record_count=60, operation_count=400),
        policy,
        threads=threads,
        auditor=auditor,
    )
    return executor.run()


class TestLoadPhase:
    def test_load_inserts_every_record(self):
        from repro.faults.timeline import FaultTimeline

        cluster = make_cluster()
        timeline = FaultTimeline()
        timeline.attach(cluster)
        executor = WorkloadExecutor(
            cluster,
            WORKLOAD_A.scaled(record_count=40, operation_count=10),
            make_policy("eventual"),
            threads=1,
            auditor=timeline,
        )
        assert len(executor.load()) == 40  # one acknowledgement per record
        # Every replica holds every record, and no simulated time passed.
        for i in range(40):
            assert cluster.newest_cell(f"user{i}") is not None
            assert cluster.is_consistent(f"user{i}")
        assert cluster.engine.now == 0.0 and cluster.engine.events_processed == 0
        # The auditor knows every record; no synthetic load op reached an
        # operation observer or a latency histogram.
        assert timeline.writes_observed == 40 and timeline.op_events == []
        assert executor.metrics.overall_latency.count == 0

    def test_a_write_at_the_first_instant_replaces_the_loaded_record(self):
        # 10 records over 6 coordinators: four mint two records each, two
        # mint one.  A write at t = 0 through one of the latter draws the
        # value id of a loaded cell minted second -- the same (timestamp,
        # value id) if the load were dated t = 0 -- and must still win.
        cluster = make_cluster()
        executor = WorkloadExecutor(
            cluster,
            WORKLOAD_A.scaled(record_count=10, operation_count=1),
            make_policy("eventual"),
            threads=1,
        )
        loaded = executor.load()
        minted = Counter(result.coordinator for result in loaded)
        last = loaded[-1]
        assert minted[last.coordinator] == 2 and last.cell.value_id == 1
        fewer = next(address for address, count in minted.items() if count == 1)
        result = cluster.write_sync(
            last.key, "new", ConsistencyLevel.ALL, coordinator=fewer
        )
        assert result.started_at == 0.0 and result.cell.value_id == last.cell.value_id
        cells = cluster.replica_cells(last.key)
        assert len(cells) == 3
        assert all(cell.value == "new" for cell in cells.values())

    def test_run_loads_automatically_if_needed(self):
        metrics = run_workload(make_policy("eventual"))
        assert metrics.counters.total == 400


class TestControlPlane:
    """The executor owns the run's plane and registers the policy on it at once."""

    def test_policy_validation_fails_at_construction(self):
        workload = WORKLOAD_A.scaled(record_count=10, operation_count=10)
        with pytest.raises(ValueError, match="NetworkTopologyStrategy"):
            WorkloadExecutor(make_cluster(), workload, GeoReadPolicy())

    def test_the_plane_runs_exactly_as_long_as_the_run_phase(self):
        cluster = make_cluster()
        policy = ThresholdReadPolicy(0.3, monitoring_interval=0.01)
        executor = WorkloadExecutor(
            cluster, WORKLOAD_A.scaled(record_count=40, operation_count=400), policy, threads=4
        )
        assert executor.plane.policies == [policy] and not executor.plane.running
        executor.load()
        assert executor.plane.ticks == 0  # bound before the load, ticking after it
        metrics = executor.run()
        assert not executor.plane.running and executor.plane.ticks > 0
        assert metrics.control_decisions == {"threshold.read_level": executor.plane.ticks}


class TestRunPhase:
    def test_operation_budget_is_respected(self):
        metrics = run_workload(make_policy("eventual"), threads=7)
        assert metrics.counters.total == 400

    def test_metrics_split_reads_and_writes(self):
        metrics = run_workload(make_policy("eventual"))
        assert metrics.counters.reads > 0
        assert metrics.counters.writes > 0
        assert metrics.counters.reads + metrics.counters.writes == 400
        assert metrics.read_latency.count == metrics.counters.reads
        assert metrics.write_latency.count == metrics.counters.writes

    def test_throughput_and_duration_are_positive(self):
        metrics = run_workload(make_policy("eventual"))
        assert metrics.duration > 0
        assert metrics.ops_per_second() > 0

    def test_ops_per_second_is_completed_reads_and_writes_over_duration(self):
        metrics = run_workload(make_policy("eventual"))
        counters = metrics.counters
        assert metrics.ops_per_second() == (counters.reads + counters.writes) / metrics.duration

    def test_policy_levels_are_used(self):
        eventual = run_workload(make_policy("eventual"))
        assert set(eventual.consistency_level_usage) == {"ONE"}
        strong = run_workload(make_policy("strong"))
        assert set(strong.consistency_level_usage) == {"ALL"}
        quorum = run_workload(make_policy("quorum"))
        assert set(quorum.consistency_level_usage) == {"QUORUM"}

    def test_more_threads_do_not_lose_operations(self):
        for threads in (1, 3, 9):
            metrics = run_workload(make_policy("eventual"), threads=threads)
            assert metrics.counters.total == 400

    def test_the_auditor_stats_are_the_staleness_account(self):
        auditor = StalenessAuditor()
        metrics = run_workload(make_policy("eventual"), auditor=auditor)
        assert metrics.staleness is auditor.stats
        assert metrics.staleness_by_dc is auditor.stats_by_dc
        staleness = metrics.staleness
        assert staleness.judged_reads + staleness.unknown_reads == metrics.counters.reads

    def test_without_an_auditor_the_staleness_account_is_empty(self):
        metrics = run_workload(make_policy("eventual"))
        assert metrics.counters.reads > 0
        assert metrics.staleness.summary() == StalenessStats().summary()
        assert metrics.staleness.unknown_reads == 0
        assert metrics.staleness_by_dc == {}

    def test_strong_reads_are_never_stale(self):
        auditor = StalenessAuditor()
        metrics = run_workload(make_policy("strong"), auditor=auditor, threads=8)
        assert metrics.staleness.stale_reads == 0

    def test_summary_row_has_expected_columns(self):
        metrics = run_workload(make_policy("eventual"))
        row = metrics.summary()
        for column in ("policy", "threads", "throughput_ops_s", "read_p99_ms", "stale_reads"):
            assert column in row

    def test_invalid_thread_count_rejected(self):
        cluster = make_cluster()
        with pytest.raises(ValueError):
            WorkloadExecutor(
                cluster,
                WORKLOAD_A.scaled(record_count=10, operation_count=10),
                make_policy("eventual"),
                threads=0,
            )

    def test_think_time_slows_the_run_down(self):
        fast = run_workload(make_policy("eventual"), threads=2)
        cluster = make_cluster()
        slow_executor = WorkloadExecutor(
            cluster,
            WORKLOAD_A.scaled(record_count=60, operation_count=400),
            make_policy("eventual"),
            threads=2,
            think_time=0.01,
        )
        slow = slow_executor.run()
        assert slow.duration > fast.duration
