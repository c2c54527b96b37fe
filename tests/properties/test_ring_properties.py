"""Property-based tests for the token ring and replica placement."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.replication import OldNetworkTopologyStrategy
from repro.cluster.ring import Murmur3Partitioner, TokenRing
from repro.network.topology import uniform_topology

keys = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=32
)


@given(key=keys)
@settings(max_examples=300, deadline=None)
def test_partitioner_tokens_are_stable_and_in_range(key):
    partitioner = Murmur3Partitioner()
    token = partitioner.token(key)
    assert token == partitioner.token(key)
    assert 0 <= token < partitioner.TOKEN_SPACE


@given(
    key=keys,
    n_nodes=st.integers(min_value=1, max_value=12),
    vnodes=st.integers(min_value=1, max_value=16),
)
@settings(max_examples=200, deadline=None)
def test_ring_walk_is_a_permutation_of_the_nodes(key, n_nodes, vnodes):
    topo = uniform_topology(n_nodes, racks_per_dc=2, datacenters=1)
    ring = TokenRing(topo.nodes, vnodes=vnodes)
    walk = list(ring.walk_from_key(key))
    assert len(walk) == n_nodes
    assert set(walk) == set(topo.nodes)
    assert walk[0] == ring.primary_replica(key)


@given(
    key=keys,
    n_nodes=st.integers(min_value=4, max_value=16),
    rf=st.integers(min_value=2, max_value=5),
)
@settings(max_examples=200, deadline=None)
def test_topology_strategy_spans_datacenters_and_racks(key, n_nodes, rf):
    if rf > n_nodes:
        rf = n_nodes
    topo = uniform_topology(n_nodes, racks_per_dc=2, datacenters=2)
    ring = TokenRing(topo.nodes, vnodes=4)
    replicas = OldNetworkTopologyStrategy(rf, topo).replicas(ring, key)
    assert len(set(replicas)) == rf
    if rf >= 2 and len({topo.datacenter_of(n) for n in topo.nodes}) >= 2:
        # With at least two replicas and two datacenters, the placement uses
        # more than one datacenter.
        assert len({topo.datacenter_of(r) for r in replicas}) >= 2


@given(
    n_nodes=st.integers(min_value=2, max_value=10),
    sample=st.integers(min_value=200, max_value=800),
)
@settings(max_examples=25, deadline=None)
def test_every_node_owns_some_portion_of_a_large_keyspace(n_nodes, sample):
    topo = uniform_topology(n_nodes, racks_per_dc=2, datacenters=1)
    ring = TokenRing(topo.nodes, vnodes=16)
    ownership = ring.ownership([f"user{i}" for i in range(sample)])
    assert sum(ownership.values()) == sample
    assert all(count > 0 for count in ownership.values())
