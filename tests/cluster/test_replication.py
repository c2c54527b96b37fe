"""Unit tests for replica placement strategies."""

from __future__ import annotations

import pytest

from repro.cluster.replication import OldNetworkTopologyStrategy
from repro.cluster.ring import TokenRing
from repro.network.topology import TopologyBuilder


def build_topology():
    return (
        TopologyBuilder()
        .datacenter("dc1")
        .rack("r1", nodes=3)
        .rack("r2", nodes=3)
        .datacenter("dc2")
        .rack("r1", nodes=3)
        .rack("r2", nodes=3)
        .build()
    )


@pytest.fixture
def topology():
    return build_topology()


@pytest.fixture
def ring(topology):
    return TokenRing(topology.nodes, vnodes=8)


class TestOldNetworkTopologyStrategy:
    def test_replica_count_matches_rf(self, ring, topology):
        strategy = OldNetworkTopologyStrategy(5, topology)
        for i in range(50):
            replicas = strategy.replicas(ring, f"user{i}")
            assert len(replicas) == 5
            assert len(set(replicas)) == 5

    def test_spans_both_datacenters_when_rf_allows(self, ring, topology):
        strategy = OldNetworkTopologyStrategy(3, topology)
        for i in range(50):
            replicas = strategy.replicas(ring, f"user{i}")
            dcs = {topology.datacenter_of(r) for r in replicas}
            assert dcs == {"dc1", "dc2"}

    def test_spans_multiple_racks_of_primary_dc(self, ring, topology):
        strategy = OldNetworkTopologyStrategy(3, topology)
        for i in range(50):
            replicas = strategy.replicas(ring, f"user{i}")
            primary_dc = topology.datacenter_of(replicas[0])
            racks_in_primary = {
                topology.rack_of(r) for r in replicas if topology.datacenter_of(r) == primary_dc
            }
            assert len(racks_in_primary) >= 2

    def test_rf_one_is_just_the_primary(self, ring, topology):
        strategy = OldNetworkTopologyStrategy(1, topology)
        for i in range(10):
            key = f"user{i}"
            assert strategy.replicas(ring, key) == [ring.primary_replica(key)]

    def test_single_datacenter_degrades_to_rack_awareness(self):
        topo = (
            TopologyBuilder()
            .datacenter("dc1")
            .rack("r1", nodes=3)
            .rack("r2", nodes=3)
            .build()
        )
        ring = TokenRing(topo.nodes, vnodes=8)
        strategy = OldNetworkTopologyStrategy(3, topo)
        for i in range(30):
            replicas = strategy.replicas(ring, f"user{i}")
            racks = {topo.rack_of(r) for r in replicas}
            assert len(replicas) == 3
            assert len(racks) == 2  # both racks represented

    def test_primary_is_ring_owner(self, ring, topology):
        strategy = OldNetworkTopologyStrategy(5, topology)
        for i in range(20):
            key = f"user{i}"
            assert strategy.replicas(ring, key)[0] == ring.primary_replica(key)

    def test_rf_larger_than_cluster_rejected(self, ring, topology):
        strategy = OldNetworkTopologyStrategy(100, topology)
        with pytest.raises(ValueError):
            strategy.replicas(ring, "user1")

    def test_invalid_rf_rejected(self, topology):
        with pytest.raises(ValueError):
            OldNetworkTopologyStrategy(0, topology)

    def test_placement_is_deterministic(self, ring, topology):
        strategy = OldNetworkTopologyStrategy(4, topology)
        assert strategy.replicas(ring, "user7") == strategy.replicas(ring, "user7")
