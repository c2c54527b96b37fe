"""Differential properties: bounded lazy placement ≡ the full-walk oracle.

Placement is a pure function of (ring, key), so the lazy, rule-skipping walk
in ``repro.cluster.replication`` must return exactly the replica lists the
retained full-ring reference does -- over uneven racks, several datacenters,
any vnode count, every feasible replication factor, and on the join/leave
target rings the membership manager builds (rings that are a strict subset of
the topology, where a rule the topology allows can still find nothing).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import ClusterConfig, SimulatedCluster
from repro.cluster.membership import MembershipManager
from repro.cluster.replication import NetworkTopologyStrategy, OldNetworkTopologyStrategy
from repro.cluster.ring import TokenRing
from repro.network.topology import Topology, TopologyBuilder

from tests.properties import placement_oracle as oracle

KEYS = [f"user{i}" for i in range(6)]


@st.composite
def layouts(draw):
    """A 1-3 datacenter topology with 1-4 uneven racks each, and a vnode count."""
    builder = TopologyBuilder()
    for dc in range(draw(st.integers(1, 3))):
        builder.datacenter(f"dc{dc + 1}")
        for rack in range(draw(st.integers(1, 4))):
            builder.rack(f"r{rack + 1}", nodes=draw(st.integers(1, 3)))
    return builder.build(), draw(st.integers(1, 16))


def assert_matches_oracle(topology: Topology, ring: TokenRing, factor_maps) -> None:
    """Every strategy at every feasible RF agrees with the oracle on ``ring``."""
    walks = {key: oracle.full_walk(ring, key) for key in KEYS}
    for rf in range(1, ring.size + 1):
        old = OldNetworkTopologyStrategy(rf, topology)
        for key, walk in walks.items():
            assert old.replicas(ring, key) == oracle.old_network_topology(walk, rf, topology)
    for factors in factor_maps:
        strategy = NetworkTopologyStrategy(factors, topology)
        for key, walk in walks.items():
            try:
                expected = oracle.network_topology(walk, strategy.replication_factors, topology)
            except RuntimeError:
                # The ring holds fewer nodes of a datacenter than its factor.
                with pytest.raises((RuntimeError, ValueError)):
                    strategy.replicas(ring, key)
            else:
                assert strategy.replicas(ring, key) == expected


def factor_maps_for(draw, topology: Topology):
    """Per-DC factor maps: one per DC, every node, and a drawn one in between."""
    sizes = {dc: len(topology.nodes_in_datacenter(dc)) for dc in topology.datacenter_names}
    drawn = {dc: draw(st.integers(0, size)) for dc, size in sizes.items()}
    maps = [{dc: 1 for dc in sizes}, dict(sizes)]
    if any(drawn.values()):
        maps.append(drawn)
    return maps


@given(data=st.data(), layout=layouts())
@settings(max_examples=60, deadline=None)
def test_lazy_placement_equals_full_walk_oracle(data, layout):
    topology, vnodes = layout
    ring = TokenRing(topology.nodes, vnodes=vnodes)
    assert_matches_oracle(topology, ring, factor_maps_for(data.draw, topology))


@given(data=st.data(), layout=layouts())
@settings(max_examples=60, deadline=None)
def test_join_and_leave_target_rings_equal_oracle(data, layout):
    """Current ring = topology minus spares; targets = one join, one leave."""
    topology, vnodes = layout
    nodes = topology.nodes
    if len(nodes) < 2:
        return
    spares = data.draw(st.sets(st.sampled_from(nodes), min_size=1, max_size=len(nodes) - 1))
    members = [node for node in nodes if node not in spares]
    current = TokenRing(members, vnodes=vnodes)
    joiner = data.draw(st.sampled_from(sorted(spares)))
    rings = [current, TokenRing(members + [joiner], partitioner=current.partitioner, vnodes=vnodes)]
    if len(members) > 1:
        leaver = data.draw(st.sampled_from(members))
        rings.append(
            TokenRing(
                [node for node in members if node != leaver],
                partitioner=current.partitioner,
                vnodes=vnodes,
            )
        )
    factor_maps = factor_maps_for(data.draw, topology)
    for ring in rings:
        assert_matches_oracle(topology, ring, factor_maps)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(),
        dict(replication_factors={"dc1": 2, "dc2": 1}),
    ],
    ids=["old_network_topology", "network_topology"],
)
def test_membership_pending_targets_equal_oracle(overrides):
    """``pending_for`` on the manager's own target ring: a join and a leave at once."""
    config = dict(n_nodes=10, replication_factor=3, datacenters=2, spares_per_dc=1, seed=5)
    config.update(overrides)
    cluster = SimulatedCluster(ClusterConfig(**config))
    manager = MembershipManager(cluster)
    manager.begin_bootstrap(cluster.spares[0])
    manager.begin_decommission(cluster.members[0])
    manager.stop()
    target_ring = manager._target_ring
    assert target_ring is not None and target_ring is not cluster.ring
    topology, rf = cluster.topology, cluster.replication_factor

    def expected(ring: TokenRing, key: str):
        walk = oracle.full_walk(ring, key)
        if cluster.replication_factors is None:
            return oracle.old_network_topology(walk, rf, topology)
        return oracle.network_topology(walk, cluster.replication_factors, topology)

    moved = 0
    for key in (f"key{i}" for i in range(64)):
        current = expected(cluster.ring, key)
        assert list(cluster.replicas_for(key)) == current
        pending = tuple(a for a in expected(target_ring, key) if a not in current)
        assert manager.pending_for(key) == pending
        moved += bool(pending)
    assert moved, "no key changes placement -- the case tests nothing"
