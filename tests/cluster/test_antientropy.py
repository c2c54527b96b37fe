"""Merkle tree and cross-DC anti-entropy service tests."""

from __future__ import annotations

import pytest

from repro.cluster import antientropy as antientropy_module
from repro.cluster.antientropy import (
    AntiEntropyConfig,
    AntiEntropyService,
    MerkleTree,
)
from repro.cluster.cluster import ClusterConfig, SimulatedCluster
from repro.cluster.consistency import ConsistencyLevel
from repro.cluster.ring import Murmur3Partitioner
from repro.cluster.storage import Cell


def cell(key: str, timestamp: float, value_id: int = 0) -> Cell:
    return Cell(timestamp=timestamp, value_id=value_id, key=key, value="v", size_bytes=100)


def two_dc_cluster(seed: int = 3) -> SimulatedCluster:
    return SimulatedCluster(
        ClusterConfig(
            n_nodes=8,
            datacenters=2,
            racks_per_dc=2,
            seed=seed,
            replication_factors={"dc1": 2, "dc2": 2},
        )
    )


class TestMerkleTree:
    def test_identical_views_produce_identical_trees(self):
        token = Murmur3Partitioner().token
        view = {f"k{i}": cell(f"k{i}", float(i)) for i in range(50)}
        a = MerkleTree.build(view, token, depth=6)
        b = MerkleTree.build(dict(reversed(list(view.items()))), token, depth=6)
        assert a.leaves == b.leaves  # XOR folding is order-independent
        assert a.root() == b.root()
        assert a.diff(b) == []

    def test_single_divergent_key_localized_to_one_leaf(self):
        token = Murmur3Partitioner().token
        view_a = {f"k{i}": cell(f"k{i}", float(i)) for i in range(50)}
        view_b = dict(view_a)
        view_b["k7"] = cell("k7", 99.0)
        a = MerkleTree.build(view_a, token, depth=6)
        b = MerkleTree.build(view_b, token, depth=6)
        differing = a.diff(b)
        assert len(differing) == 1
        assert differing[0] == a.leaf_of(token("k7"))

    def test_missing_key_also_differs(self):
        token = Murmur3Partitioner().token
        view_a = {"only": cell("only", 1.0)}
        a = MerkleTree.build(view_a, token, depth=4)
        b = MerkleTree.build({}, token, depth=4)
        assert len(a.diff(b)) == 1

    def test_depth_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MerkleTree(4).diff(MerkleTree(5))

    def test_depth_bounds(self):
        with pytest.raises(ValueError):
            MerkleTree(0)
        with pytest.raises(ValueError):
            MerkleTree(17)

    def test_serialized_size_scales_with_leaves(self):
        assert MerkleTree(4).serialized_size(32) == 16 * 32


class TestAntiEntropyConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AntiEntropyConfig(interval=0)

    def test_single_dc_cluster_rejected(self):
        cluster = SimulatedCluster(ClusterConfig(n_nodes=4, replication_factor=2, seed=1))
        with pytest.raises(ValueError):
            AntiEntropyService(cluster)


def diverge_pair(cluster: SimulatedCluster, keys) -> None:
    """Partition, write on one side, heal without hints -> lasting divergence."""
    cluster.partition_datacenters("dc1", "dc2", mode="drop")
    for key in keys:
        result = cluster.write_sync(key, "v1", ConsistencyLevel.LOCAL_QUORUM, datacenter="dc1")
        assert not result.unavailable
    cluster.engine.run_until(cluster.engine.now + 3.0)
    cluster.heal_datacenters("dc1", "dc2", replay_hints=False)


class TestAntiEntropyService:
    def test_repair_converges_divergent_datacenters(self, monkeypatch):
        monkeypatch.setattr(antientropy_module, "TREE_DEPTH", 5)
        cluster = two_dc_cluster()
        keys = [f"k{i}" for i in range(30)]
        for key in keys:
            cluster.write_sync(key, "v0", ConsistencyLevel.EACH_QUORUM, datacenter="dc1")
        cluster.settle()
        diverge_pair(cluster, keys)
        assert any(not cluster.is_consistent(key) for key in keys)

        service = cluster.start_anti_entropy(AntiEntropyConfig(interval=1.0))
        cluster.engine.run_until(cluster.engine.now + 2.5)
        service.stop()
        cluster.settle()
        assert all(cluster.is_consistent(key) for key in keys)
        stats = service.stats[("dc1", "dc2")]
        assert stats.sessions_completed >= 1
        assert stats.cells_streamed > 0
        assert stats.bytes_sent > 0

    def test_no_divergence_streams_nothing(self):
        cluster = two_dc_cluster()
        for i in range(10):
            cluster.write_sync(f"k{i}", "v0", ConsistencyLevel.EACH_QUORUM, datacenter="dc1")
        cluster.settle()
        service = cluster.start_anti_entropy(AntiEntropyConfig(interval=1.0))
        cluster.engine.run_until(cluster.engine.now + 2.5)
        service.stop()
        cluster.settle()
        stats = service.stats[("dc1", "dc2")]
        assert stats.sessions_completed >= 1
        assert stats.cells_streamed == 0
        # Tree exchange still costs WAN bytes -- the price of checking.
        assert stats.bytes_sent > 0

    def test_repair_traffic_is_counted_once_by_the_service(self):
        cluster = two_dc_cluster()
        keys = [f"k{i}" for i in range(20)]
        for key in keys:
            cluster.write_sync(key, "v0", ConsistencyLevel.EACH_QUORUM, datacenter="dc1")
        cluster.settle()
        diverge_pair(cluster, keys)
        service = cluster.start_anti_entropy(AntiEntropyConfig(interval=1.0))
        cluster.engine.run_until(cluster.engine.now + 2.5)
        service.stop()
        cluster.settle()

        stats = service.stats[("dc1", "dc2")]
        by_pair = service.traffic_by_pair()
        assert by_pair == {"dc1|dc2": stats.bytes_sent}
        assert by_pair["dc1|dc2"] > 0
        # Both sites touch the only pair, so each site's total is the pair's.
        assert service.wan_traffic_bytes() == by_pair["dc1|dc2"]
        assert service.wan_traffic_bytes("dc1") == by_pair["dc1|dc2"]
        assert service.wan_traffic_bytes("dc2") == by_pair["dc1|dc2"]

    def test_monitor_samples_carry_only_what_the_estimator_reads(self):
        import dataclasses

        from repro.control.monitor import ClusterMonitor, MonitoringSample

        cluster = two_dc_cluster()
        keys = [f"k{i}" for i in range(15)]
        for key in keys:
            cluster.write_sync(key, "v0", ConsistencyLevel.EACH_QUORUM, datacenter="dc1")
        cluster.settle()
        diverge_pair(cluster, keys)
        service = cluster.start_anti_entropy(AntiEntropyConfig(interval=1.0))
        monitor = ClusterMonitor(cluster)
        monitor.prime()
        cluster.engine.run_until(cluster.engine.now + 2.5)
        service.stop()
        cluster.settle()
        assert service.wan_traffic_bytes() > 0
        # Repair traffic is the service's account; the monitor samples the
        # rates and the latency behind Tp, nothing else.
        assert [f.name for f in dataclasses.fields(MonitoringSample)] == [
            "time", "read_rate", "write_rate", "raw_read_rate", "raw_write_rate",
            "network_latency", "propagation_time", "window", "datacenter",
        ]
        sample = monitor.sample()
        assert sample.propagation_time > 0 and sample.datacenter is None

    def test_session_abandoned_when_partner_site_dies_mid_exchange(self):
        cluster = two_dc_cluster()
        for i in range(10):
            cluster.write_sync(f"k{i}", "v0", ConsistencyLevel.EACH_QUORUM, datacenter="dc1")
        cluster.settle()
        service = cluster.start_anti_entropy(AntiEntropyConfig(interval=1.0))
        # The first tick fires at t=interval; kill dc2 while the
        # TREE_REQUEST is in flight (WAN delay is sub-millisecond here).
        start = cluster.engine.now
        cluster.engine.run_until(start + 1.0)
        cluster.take_down_datacenter("dc2")
        cluster.engine.run_until(start + 3.5)
        service.stop()
        cluster.settle()
        stats = service.stats[("dc1", "dc2")]
        # The in-flight session was abandoned (dead partner must not build
        # trees) and no later session started against the dead site.
        assert stats.sessions_started == 1
        assert stats.sessions_completed == 0

    def test_sessions_skip_while_a_site_is_down(self):
        cluster = two_dc_cluster()
        for i in range(5):
            cluster.write_sync(f"k{i}", "v0", ConsistencyLevel.EACH_QUORUM, datacenter="dc1")
        cluster.settle()
        cluster.take_down_datacenter("dc2")
        service = cluster.start_anti_entropy(AntiEntropyConfig(interval=1.0))
        cluster.engine.run_until(cluster.engine.now + 3.5)
        service.stop()
        cluster.settle()
        assert service.stats[("dc1", "dc2")].sessions_started == 0

    def test_repair_survives_a_partition_and_resumes_after_heal(self):
        cluster = two_dc_cluster()
        keys = [f"k{i}" for i in range(20)]
        for key in keys:
            cluster.write_sync(key, "v0", ConsistencyLevel.EACH_QUORUM, datacenter="dc1")
        cluster.settle()
        service = cluster.start_anti_entropy(AntiEntropyConfig(interval=1.0))
        cluster.partition_datacenters("dc1", "dc2", mode="drop")
        for key in keys:
            cluster.write_sync(key, "v1", ConsistencyLevel.LOCAL_QUORUM, datacenter="dc1")
        # Several ticks fire into the partition; their tree messages die.
        cluster.engine.run_until(cluster.engine.now + 3.5)
        assert any(not cluster.is_consistent(key) for key in keys)
        cluster.heal_datacenters("dc1", "dc2", replay_hints=False)
        cluster.engine.run_until(cluster.engine.now + 3.0)
        service.stop()
        cluster.settle()
        assert all(cluster.is_consistent(key) for key in keys)

    def test_deterministic_across_same_seed_runs(self):
        def run():
            cluster = two_dc_cluster(seed=11)
            keys = [f"k{i}" for i in range(15)]
            for key in keys:
                cluster.write_sync(key, "v0", ConsistencyLevel.EACH_QUORUM, datacenter="dc1")
            cluster.settle()
            diverge_pair(cluster, keys)
            service = cluster.start_anti_entropy(AntiEntropyConfig(interval=1.0))
            cluster.engine.run_until(cluster.engine.now + 2.5)
            service.stop()
            cluster.settle()
            return (
                {pair: stats.as_dict() for pair, stats in service.stats.items()},
                cluster.fabric.stats.sent,
                cluster.engine.events_processed,
            )

        assert run() == run()
