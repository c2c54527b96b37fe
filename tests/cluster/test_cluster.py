"""Unit tests for the SimulatedCluster facade."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import ClusterConfig, SimulatedCluster
from repro.cluster.consistency import ConsistencyLevel
from repro.cluster.replication import NetworkTopologyStrategy, OldNetworkTopologyStrategy
from repro.network.fabric import NetworkFabric
from repro.network.latency import ConstantLatency
from repro.network.topology import uniform_topology


class TestClusterConfig:
    def test_defaults_are_valid(self):
        config = ClusterConfig()
        assert config.replication_factor <= config.n_nodes

    def test_rf_larger_than_cluster_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(n_nodes=2, replication_factor=3)

    def test_the_strategy_is_worked_out_from_the_replication_factors(self):
        lan = SimulatedCluster(ClusterConfig(n_nodes=4, datacenters=2))
        geo = SimulatedCluster(
            ClusterConfig(n_nodes=4, datacenters=2, replication_factors={"dc1": 2, "dc2": 1})
        )
        assert type(lan.strategy) is OldNetworkTopologyStrategy
        assert type(geo.strategy) is NetworkTopologyStrategy
        assert geo.replication_factor == 3

    def test_fabric_options_are_rejected_when_the_config_is_written(self):
        # Not later, when the fabric is built (inside each sharded worker).
        with pytest.raises(ValueError, match="delivery must be one of"):
            ClusterConfig(fabric_delivery="fifo ")
        for delivery in NetworkFabric.DELIVERY_MODES:
            config = ClusterConfig(fabric_delivery=delivery)
            assert SimulatedCluster(config).fabric.delivery_mode == delivery

    def test_explicit_topology_overrides_n_nodes(self):
        topology = uniform_topology(8, racks_per_dc=2, datacenters=2)
        cluster = SimulatedCluster(ClusterConfig(n_nodes=3, topology=topology))
        assert cluster.topology.size == 8

    def test_topology_smaller_than_rf_rejected(self):
        topology = uniform_topology(2)
        with pytest.raises(ValueError):
            SimulatedCluster(ClusterConfig(topology=topology, replication_factor=3))


class TestClusterBasics:
    def test_every_node_gets_a_coordinator_and_storage(self, small_cluster):
        assert len(small_cluster.nodes) == small_cluster.topology.size
        assert len(small_cluster.coordinators) == small_cluster.topology.size

    def test_each_node_answers_into_its_own_coordinator(self, small_cluster):
        for address, node in small_cluster.nodes.items():
            coordinator = small_cluster.coordinators[address]
            assert node._read_response_sink == coordinator.on_read_response
            assert node._write_response_sink == coordinator.on_write_response

    def test_replicas_for_returns_rf_distinct_nodes(self, small_cluster):
        for i in range(30):
            replicas = small_cluster.replicas_for(f"user{i}")
            assert len(replicas) == small_cluster.replication_factor
            assert len(set(replicas)) == small_cluster.replication_factor

    def test_replicas_for_is_cached_and_stable(self, small_cluster):
        first = small_cluster.replicas_for("user1")
        second = small_cluster.replicas_for("user1")
        assert first == second
        # The cache entry itself is returned: an immutable shared tuple, not
        # a per-call defensive copy (the copy dominated placement cost on
        # large rings).
        assert first is second
        assert isinstance(first, tuple)

    def test_write_then_read_round_trip(self, small_cluster):
        small_cluster.write_sync("k", "value-1", ConsistencyLevel.QUORUM)
        result = small_cluster.read_sync("k", ConsistencyLevel.QUORUM)
        assert result.cell.value == "value-1"

    def test_round_robin_spreads_coordinators(self, small_cluster):
        seen = set()
        for i in range(small_cluster.topology.size * 2):
            small_cluster.write_sync(f"key{i}", "v", ConsistencyLevel.ONE)
        for counters in (small_cluster.stats.counters(a) for a in small_cluster.addresses):
            if counters.coordinator_writes:
                seen.add(counters.coordinator_writes)
        total = sum(
            small_cluster.stats.counters(a).coordinator_writes
            for a in small_cluster.addresses
        )
        assert total == small_cluster.topology.size * 2
        # Every node coordinated at least one write.
        assert all(
            small_cluster.stats.counters(a).coordinator_writes > 0
            for a in small_cluster.addresses
        )

    def test_explicit_coordinator_choice(self, small_cluster):
        target = small_cluster.addresses[2]
        small_cluster.write_sync("k", "v", ConsistencyLevel.ONE, coordinator=target)
        assert small_cluster.stats.counters(target).coordinator_writes == 1

    def test_operation_observer_sees_all_operations(self, small_cluster):
        seen = []
        small_cluster.add_operation_observer(seen.append)
        small_cluster.write_sync("k", "v", ConsistencyLevel.ONE)
        small_cluster.read_sync("k", ConsistencyLevel.ONE)
        assert [r.op_type for r in seen] == ["write", "read"]

    def test_newest_cell_and_consistency_check(self, small_cluster):
        small_cluster.write_sync("k", "v1", ConsistencyLevel.ALL)
        small_cluster.settle()
        assert small_cluster.newest_cell("k").value == "v1"
        assert small_cluster.is_consistent("k")

    def test_down_nodes_are_skipped_as_coordinators(self, small_cluster):
        down = small_cluster.addresses[0]
        small_cluster.take_down(down)
        for i in range(6):
            small_cluster.write_sync(f"k{i}", "v", ConsistencyLevel.ONE)
        assert small_cluster.stats.counters(down).coordinator_writes == 0

    def test_no_live_coordinator_surfaces_unavailable(self, small_cluster):
        # A driver whose contact points are all down errors out client-side:
        # the operation completes immediately as unavailable, no server-side
        # work happens, and explicit coordinator selection still raises.
        from repro.cluster.cluster import NoLiveCoordinator

        for address in small_cluster.addresses:
            small_cluster.take_down(address)
        result = small_cluster.write_sync("k", "v", ConsistencyLevel.ONE)
        assert result.unavailable
        assert not result.timed_out
        assert result.cell is None
        assert result.coordinator is None
        with pytest.raises(NoLiveCoordinator):
            small_cluster._pick_coordinator(None)

    def test_mean_inter_replica_latency_positive_and_scales(self):
        config = ClusterConfig(
            n_nodes=6,
            replication_factor=3,
            intra_rack_latency=ConstantLatency(0.001),
            inter_rack_latency=ConstantLatency(0.002),
            seed=3,
        )
        cluster = SimulatedCluster(config)
        base = cluster.mean_inter_replica_latency()
        assert base > 0
        cluster.fabric.latency_scale = 3.0
        assert cluster.mean_inter_replica_latency() == pytest.approx(3 * base)
        per_key = cluster.mean_inter_replica_latency("user1")
        assert per_key > 0

    def test_settle_drains_background_work(self, small_cluster):
        for i in range(20):
            small_cluster.write_sync(f"k{i}", "v", ConsistencyLevel.ONE)
        small_cluster.settle()
        assert small_cluster.engine.pending_events == 0
