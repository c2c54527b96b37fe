"""Fabric-level datacenter partition tests (drop and park modes)."""

from __future__ import annotations

import pytest

from repro.network.fabric import NetworkFabric
from repro.network.latency import ConstantLatency
from repro.network.topology import uniform_topology
from repro.sim.engine import SimulationEngine
from repro.sim.rng import RandomStreams


def build_fabric(delivery: str = "coalesced"):
    engine = SimulationEngine()
    topology = uniform_topology(
        8, racks_per_dc=2, datacenters=2, inter_dc=ConstantLatency(0.005)
    )
    fabric = NetworkFabric(engine, topology, RandomStreams(seed=9), delivery=delivery)
    return engine, topology, fabric


def nodes_by_dc(topology):
    return {dc: topology.nodes_in_datacenter(dc) for dc in topology.datacenter_names}


class TestPartitionValidation:
    def test_unknown_datacenter_rejected(self):
        _, _, fabric = build_fabric()
        with pytest.raises(ValueError):
            fabric.partition_datacenters("dc1", "nope")

    def test_self_partition_rejected(self):
        _, _, fabric = build_fabric()
        with pytest.raises(ValueError):
            fabric.partition_datacenters("dc1", "dc1")

    def test_unknown_mode_rejected(self):
        _, _, fabric = build_fabric()
        with pytest.raises(ValueError):
            fabric.partition_datacenters("dc1", "dc2", mode="quarantine")

    def test_heal_unknown_pair_is_a_noop(self):
        _, _, fabric = build_fabric()
        assert fabric.heal_datacenters("dc1", "dc2") == 0


class TestDropMode:
    def test_cross_dc_messages_dropped_intra_dc_unaffected(self):
        engine, topology, fabric = build_fabric()
        dcs = nodes_by_dc(topology)
        received = []
        for node in topology.nodes:
            fabric.register(node, received.append)
        fabric.partition_datacenters("dc1", "dc2")
        assert fabric.is_partitioned("dc2", "dc1")  # order-insensitive
        fabric.send(dcs["dc1"][0], dcs["dc2"][0], "ping", None)
        fabric.send(dcs["dc1"][0], dcs["dc1"][1], "ping", None)
        engine.run()
        assert len(received) == 1
        assert fabric.stats.blocked == 1
        assert fabric.stats.dropped == 1
        assert fabric.stats.blocked_by_pair["dc1|dc2"] == 1

    def test_heal_restores_delivery(self):
        engine, topology, fabric = build_fabric()
        dcs = nodes_by_dc(topology)
        received = []
        for node in topology.nodes:
            fabric.register(node, received.append)
        fabric.partition_datacenters("dc1", "dc2")
        fabric.heal_datacenters("dc1", "dc2")
        assert not fabric.has_partitions
        fabric.send(dcs["dc1"][0], dcs["dc2"][0], "ping", None)
        engine.run()
        assert len(received) == 1


class TestParkMode:
    def test_parked_messages_released_on_heal(self):
        engine, topology, fabric = build_fabric()
        dcs = nodes_by_dc(topology)
        received = []
        delivered_cb = []
        for node in topology.nodes:
            fabric.register(node, received.append)
        fabric.partition_datacenters("dc1", "dc2", mode="park")
        for i in range(5):
            fabric.send(
                dcs["dc1"][0],
                dcs["dc2"][0],
                "data",
                i,
                on_delivered=delivered_cb.append,
            )
        engine.run()
        assert received == []
        assert fabric.stats.parked == 5
        assert fabric.stats.blocked == 5
        heal_time = engine.now
        released = fabric.heal_datacenters("dc1", "dc2")
        assert released == 5
        assert fabric.stats.parked == 0
        engine.run()
        assert [message.payload for message in received] == [0, 1, 2, 3, 4]
        assert len(delivered_cb) == 5
        # Released messages are re-delayed from the heal instant.
        assert all(message.delivered_at >= heal_time for message in received)

    def test_drop_mode_does_not_park(self):
        engine, topology, fabric = build_fabric()
        dcs = nodes_by_dc(topology)
        fabric.register(dcs["dc2"][0], lambda m: None)
        fabric.partition_datacenters("dc1", "dc2", mode="drop")
        fabric.send(dcs["dc1"][0], dcs["dc2"][0], "data", None)
        assert fabric.stats.parked == 0
        assert fabric.heal_datacenters("dc1", "dc2") == 0

    def test_partitioned_pairs_listing(self):
        _, _, fabric = build_fabric()
        fabric.partition_datacenters("dc2", "dc1", mode="park")
        assert fabric.partitioned_pairs() == [("dc1", "dc2")]

    def test_fifo_links_stay_in_order_across_a_park_heal(self):
        # Released parked messages must flow through the per-link FIFO
        # machinery: a message sent before the partition can never be
        # overtaken by (or overtake) post-heal messages on the same link.
        engine, topology, fabric = build_fabric("fifo")
        dcs = nodes_by_dc(topology)
        src, dst = dcs["dc1"][0], dcs["dc2"][0]
        received = []
        fabric.register(dst, received.append)
        fabric.partition_datacenters("dc1", "dc2", mode="park")
        for i in range(4):
            fabric.send(src, dst, "parked", i)
        engine.run()
        fabric.heal_datacenters("dc1", "dc2")
        for i in range(4, 8):
            fabric.send(src, dst, "fresh", i)
        engine.run()
        assert [message.payload for message in received] == list(range(8))
        times = [message.delivered_at for message in received]
        assert times == sorted(times)


class TestOverlappingPartitions:
    def test_pair_reopens_only_after_every_event_heals(self):
        # An isolation overlapping a pairwise partition must not be undone
        # by the first heal (fabric refcounting).
        engine, topology, fabric = build_fabric()
        dcs = nodes_by_dc(topology)
        received = []
        for node in topology.nodes:
            fabric.register(node, received.append)
        fabric.partition_datacenters("dc1", "dc2")   # event A
        fabric.partition_datacenters("dc1", "dc2")   # event B (overlap)
        assert fabric.heal_datacenters("dc1", "dc2") == 0  # A heals
        assert fabric.is_partitioned("dc1", "dc2")         # B still holds
        fabric.send(dcs["dc1"][0], dcs["dc2"][0], "x", None)
        engine.run()
        assert received == []
        fabric.heal_datacenters("dc1", "dc2")              # B heals
        assert not fabric.has_partitions
        fabric.send(dcs["dc1"][0], dcs["dc2"][0], "x", None)
        engine.run()
        assert len(received) == 1

    def test_heal_all_drains_refcounts(self):
        _, _, fabric = build_fabric()
        fabric.partition_datacenters("dc1", "dc2")
        fabric.partition_datacenters("dc1", "dc2")
        fabric.heal_all_partitions()
        assert not fabric.has_partitions


class TestPartitionsAcrossDeliveryModes:
    @pytest.mark.parametrize("delivery", NetworkFabric.DELIVERY_MODES)
    def test_blocking_works_in_every_delivery_mode(self, delivery):
        engine, topology, fabric = build_fabric(delivery)
        dcs = nodes_by_dc(topology)
        received = []
        for node in topology.nodes:
            fabric.register(node, received.append)
        fabric.partition_datacenters("dc1", "dc2")
        for _ in range(3):
            fabric.send(dcs["dc1"][0], dcs["dc2"][0], "x", None)
            fabric.send(dcs["dc2"][1], dcs["dc2"][0], "y", None)
        engine.run()
        assert len(received) == 3
        assert all(message.kind == "y" for message in received)
        assert fabric.stats.blocked == 3
