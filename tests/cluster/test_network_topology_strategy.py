"""Placement invariants of :class:`NetworkTopologyStrategy`."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.replication import NetworkTopologyStrategy
from repro.cluster.ring import Murmur3Partitioner, TokenRing
from repro.network.topology import TopologyBuilder


def build_topology(sites):
    """``sites`` maps dc name -> list of rack sizes."""
    builder = TopologyBuilder()
    for dc, racks in sites.items():
        builder.datacenter(dc)
        for index, nodes in enumerate(racks):
            builder.rack(f"r{index + 1}", nodes=nodes)
    return builder.build()


@pytest.fixture
def three_site_topology():
    return build_topology({"dc1": [2, 2], "dc2": [2, 2], "dc3": [1, 1, 1]})


@pytest.fixture
def ring(three_site_topology):
    return TokenRing(
        three_site_topology.nodes, partitioner=Murmur3Partitioner(), vnodes=8
    )


class TestValidation:
    def test_rejects_unknown_datacenter(self, three_site_topology):
        with pytest.raises(ValueError, match="unknown datacenter"):
            NetworkTopologyStrategy({"dc1": 1, "nowhere": 1}, three_site_topology)

    def test_rejects_factor_above_dc_size(self, three_site_topology):
        with pytest.raises(ValueError, match="fewer than its"):
            NetworkTopologyStrategy({"dc1": 5}, three_site_topology)

    def test_rejects_all_zero_factors(self, three_site_topology):
        with pytest.raises(ValueError, match="non-zero"):
            NetworkTopologyStrategy({}, three_site_topology)

    def test_rejects_negative_factors(self, three_site_topology):
        with pytest.raises(ValueError, match="non-negative"):
            NetworkTopologyStrategy({"dc1": -1, "dc2": 1}, three_site_topology)

    def test_total_factor_is_sum(self, three_site_topology):
        strategy = NetworkTopologyStrategy({"dc1": 3, "dc2": 2, "dc3": 1}, three_site_topology)
        assert strategy.replication_factor == 6
        assert strategy.replication_factors == {"dc1": 3, "dc2": 2, "dc3": 1}
        assert strategy.replication_factor_for("dc3") == 1
        assert strategy.replication_factor_for("absent") == 0

    def test_zero_entries_are_dropped(self, three_site_topology):
        strategy = NetworkTopologyStrategy({"dc1": 2, "dc2": 0}, three_site_topology)
        assert strategy.replication_factors == {"dc1": 2}


class TestPlacement:
    FACTORS = {"dc1": 3, "dc2": 2, "dc3": 2}

    def replicas(self, topology, ring, key):
        return NetworkTopologyStrategy(self.FACTORS, topology).replicas(ring, key)

    @given(key=st.text(min_size=1, max_size=24))
    @settings(max_examples=60, deadline=None)
    def test_each_dc_gets_exactly_its_factor(self, key):
        topology = build_topology({"dc1": [2, 2], "dc2": [2, 2], "dc3": [1, 1, 1]})
        ring = TokenRing(topology.nodes, partitioner=Murmur3Partitioner(), vnodes=8)
        replicas = self.replicas(topology, ring, key)
        per_dc = Counter(topology.datacenter_of(r) for r in replicas)
        assert dict(per_dc) == self.FACTORS

    @given(key=st.text(min_size=1, max_size=24))
    @settings(max_examples=60, deadline=None)
    def test_no_duplicate_replicas(self, key):
        topology = build_topology({"dc1": [2, 2], "dc2": [2, 2], "dc3": [1, 1, 1]})
        ring = TokenRing(topology.nodes, partitioner=Murmur3Partitioner(), vnodes=8)
        replicas = self.replicas(topology, ring, key)
        assert len(replicas) == len(set(replicas))

    @given(key=st.text(min_size=1, max_size=24))
    @settings(max_examples=60, deadline=None)
    def test_rack_diversity_before_reuse(self, key):
        """A rack is only reused once every rack of the DC holds a replica."""
        topology = build_topology({"dc1": [2, 2], "dc2": [2, 2], "dc3": [1, 1, 1]})
        ring = TokenRing(topology.nodes, partitioner=Murmur3Partitioner(), vnodes=8)
        replicas = self.replicas(topology, ring, key)
        for dc, rf in self.FACTORS.items():
            racks = Counter(
                topology.rack_of(r) for r in replicas if topology.datacenter_of(r) == dc
            )
            n_racks = len(topology.racks_in_datacenter(dc))
            if rf <= n_racks:
                assert all(count == 1 for count in racks.values())
            else:
                # Every rack must appear before any rack repeats.
                assert len(racks) == n_racks

    def test_replicas_preserve_walk_order(self, three_site_topology, ring):
        strategy = NetworkTopologyStrategy(self.FACTORS, three_site_topology)
        walk = list(ring.walk_from_key("somekey"))
        replicas = strategy.replicas(ring, "somekey")
        positions = [walk.index(r) for r in replicas]
        assert positions == sorted(positions)

    def test_placement_is_deterministic(self, three_site_topology, ring):
        strategy = NetworkTopologyStrategy(self.FACTORS, three_site_topology)
        assert strategy.replicas(ring, "k") == strategy.replicas(ring, "k")

    def test_single_dc_factor_ignores_other_sites(self, three_site_topology, ring):
        strategy = NetworkTopologyStrategy({"dc2": 3}, three_site_topology)
        replicas = strategy.replicas(ring, "abc")
        assert len(replicas) == 3
        assert {three_site_topology.datacenter_of(r) for r in replicas} == {"dc2"}
