"""Integration tests: DC-aware consistency levels on a three-site cluster.

The cluster comes from ``tests/control/conftest.py``: sites alpha/beta/gamma with
per-site replica counts {3, 2, 2} and constant WAN latencies (5-8 ms one-way)
that dwarf the 0.2 ms LAN, so "did this operation cross the WAN?" is directly
visible in latencies and acknowledgement sets.
"""

from __future__ import annotations

import pytest

from repro.cluster.consistency import ConsistencyLevel
from repro.control.policies import GeoReadPolicy, HarmonyConfig, make_policy
from repro.staleness.auditor import StalenessAuditor
from repro.workload.executor import WorkloadExecutor
from repro.workload.workloads import WORKLOAD_A, WORKLOAD_B, WORKLOAD_C, WORKLOAD_D

from tests.control.conftest import WAN_AB, build_geo_cluster


@pytest.fixture
def cluster():
    return build_geo_cluster()


class TestLocalQuorum:
    def test_write_blocks_only_on_local_replicas(self, cluster):
        result = cluster.write_sync(
            "k", "v", ConsistencyLevel.LOCAL_QUORUM, datacenter="alpha"
        )
        acked_dcs = {cluster.topology.datacenter_of(r) for r in result.responded}
        assert acked_dcs == {"alpha"}
        assert result.blocked_for == 2  # quorum of alpha's 3 replicas
        # Completing without the WAN: far below one WAN one-way trip.
        assert result.latency < WAN_AB

    def test_read_contacts_only_local_replicas(self, cluster):
        cluster.write_sync("k", "v", ConsistencyLevel.EACH_QUORUM, datacenter="alpha")
        cluster.settle()
        result = cluster.read_sync("k", ConsistencyLevel.LOCAL_QUORUM, datacenter="beta")
        contacted_dcs = {cluster.topology.datacenter_of(r) for r in result.responded}
        assert contacted_dcs == {"beta"}
        assert result.latency < WAN_AB
        assert result.cell is not None and result.cell.value == "v"

    def test_remote_dcs_converge_eventually(self, cluster):
        """The WAN copies are written asynchronously, not skipped."""
        result = cluster.write_sync(
            "converge", "v1", ConsistencyLevel.LOCAL_QUORUM, datacenter="alpha"
        )
        # At acknowledgement time the remote sites may still be behind...
        assert {cluster.topology.datacenter_of(r) for r in result.responded} == {"alpha"}
        # ...but background propagation brings every replica up to date.
        cluster.settle()
        cells = cluster.replica_cells("converge")
        assert len(cells) == 7
        for address, cell in cells.items():
            assert cell is not None, f"replica {address} never received the write"
            assert cell.value == "v1"
        assert cluster.is_consistent("converge")

    def test_local_quorum_strongly_consistent_within_site(self, cluster):
        """W=LOCAL_QUORUM + R=LOCAL_QUORUM intersect inside one site."""
        for i in range(20):
            cluster.write_sync(
                "key", f"v{i}", ConsistencyLevel.LOCAL_QUORUM, datacenter="alpha"
            )
            result = cluster.read_sync(
                "key", ConsistencyLevel.LOCAL_QUORUM, datacenter="alpha"
            )
            assert result.cell is not None and result.cell.value == f"v{i}"


class TestEachQuorum:
    def test_write_needs_every_datacenter(self, cluster):
        result = cluster.write_sync(
            "k", "v", ConsistencyLevel.EACH_QUORUM, datacenter="alpha"
        )
        acked_dcs = {cluster.topology.datacenter_of(r) for r in result.responded}
        assert acked_dcs == {"alpha", "beta", "gamma"}
        # quorum(3) + quorum(2) + quorum(2) = 2 + 2 + 2
        assert result.blocked_for == 6
        # It cannot answer faster than the slowest required WAN link.
        assert result.latency > WAN_AB

    def test_read_sees_latest_each_quorum_write_from_any_site(self, cluster):
        cluster.write_sync("k", "fresh", ConsistencyLevel.EACH_QUORUM, datacenter="alpha")
        for dc in ("alpha", "beta", "gamma"):
            result = cluster.read_sync("k", ConsistencyLevel.LOCAL_QUORUM, datacenter=dc)
            assert result.cell is not None and result.cell.value == "fresh", (
                f"site {dc} missed the EACH_QUORUM write"
            )


class TestLocalOne:
    def test_single_local_ack(self, cluster):
        result = cluster.write_sync("k", "v", ConsistencyLevel.LOCAL_ONE, datacenter="gamma")
        assert result.blocked_for == 1
        assert {cluster.topology.datacenter_of(r) for r in result.responded} == {"gamma"}


class TestGeoWorkload:
    def test_pinned_threads_and_per_dc_metrics(self, cluster):
        auditor = StalenessAuditor()
        policy = GeoReadPolicy(
            HarmonyConfig(monitoring_interval=0.02),
            tolerated_stale_rates={"alpha": 0.2, "beta": 0.4, "gamma": 0.4},
        )
        executor = WorkloadExecutor(
            cluster,
            WORKLOAD_A.scaled(record_count=120, operation_count=2400),
            policy,
            threads=6,
            auditor=auditor,
            datacenters=["alpha", "beta", "gamma"],
        )
        metrics = executor.run()
        # Every site served reads, and the per-DC split covers them all.
        assert set(metrics.read_latency_by_dc) == {"alpha", "beta", "gamma"}
        assert list(metrics.staleness_by_dc) == list(metrics.read_latency_by_dc)
        split_total = sum(
            s.judged_reads + s.unknown_reads for s in metrics.staleness_by_dc.values()
        )
        assert split_total == metrics.counters.reads
        # Only levels the geo controller can emit were issued (ALL is its
        # escalation when a site demands more than a local quorum).
        assert set(metrics.consistency_level_usage) <= {
            "LOCAL_ONE",
            "LOCAL_QUORUM",
            "ALL",
        }
        # Each site's measured stale rate respects its tolerance (+ noise).
        for dc, tolerance in policy.tolerated_stale_rates.items():
            summary = metrics.staleness_by_dc.get(dc)
            if summary is not None and summary.judged_reads > 0:
                assert summary.stale_rate() <= tolerance + 0.1

    @pytest.mark.parametrize(
        "workload", [WORKLOAD_A, WORKLOAD_B, WORKLOAD_C, WORKLOAD_D], ids=["A", "B", "C", "D"]
    )
    def test_every_result_names_its_coordinator_and_site(self, cluster, workload):
        # The per-DC metrics bucket a result by ``result.datacenter``: an
        # operation kind that left it unset would drop out of them silently.
        executor = WorkloadExecutor(
            cluster,
            workload.scaled(record_count=60, operation_count=600),
            make_policy("eventual"),
            threads=3,
            datacenters=["alpha", "beta", "gamma"],
        )
        results = []
        on_result = executor._on_result

        def record(operation, result):
            results.append((operation.op_type, result))
            on_result(operation, result)

        executor._on_result = record
        metrics = executor.run()
        assert len(results) == 600
        kinds = {op_type for op_type, _ in results}
        assert kinds == {op for op, share in workload.proportions().items() if share > 0}
        for _, result in results:
            assert result.coordinator is not None
            assert result.datacenter == cluster.topology.datacenter_of(result.coordinator)
        assert {result.datacenter for _, result in results} == {"alpha", "beta", "gamma"}
        assert sum(h.count for h in metrics.read_latency_by_dc.values()) == metrics.counters.reads

    def test_executor_rejects_unknown_datacenter(self, cluster):
        with pytest.raises(ValueError, match="unknown datacenter"):
            WorkloadExecutor(
                cluster,
                WORKLOAD_A.scaled(record_count=10, operation_count=10),
                GeoReadPolicy(),
                threads=2,
                datacenters=["alpha", "nowhere"],
            )


class TestStatsPerDatacenter:
    def test_snapshot_for_partitions_cluster_totals(self, cluster):
        for i in range(12):
            cluster.write_sync(f"k{i}", i, ConsistencyLevel.LOCAL_ONE, datacenter="beta")
        now = cluster.engine.now
        whole = cluster.stats.snapshot(now)
        parts = [
            cluster.stats.snapshot_for(now, cluster.addresses_in(dc))
            for dc in cluster.datacenter_names
        ]
        assert sum(p.coordinator_writes for p in parts) == whole.coordinator_writes
        beta = cluster.stats.snapshot_for(now, cluster.addresses_in("beta"))
        assert beta.coordinator_writes == 12
