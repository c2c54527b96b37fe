"""Differential properties: a coordinator's routing ≡ the from-scratch oracle.

A coordinator caches what it resolves on the op path -- the requirement per
(level, replica count) or per (level, replica set) for the DC-aware levels,
and a read's route (requirement and contacted replicas) per (level, replica
set) -- and keeps nothing per key.  Whatever it caches, every operation must
route exactly as ``tests/properties/routing_oracle.py`` computes with no
cache: over LAN racks, two datacenters whose keys spread unevenly across
them, and a three-datacenter ``NetworkTopologyStrategy``; every level,
including ``LOCAL_*`` and ``EACH_QUORUM``; coordinators inside and outside
the replica set; repeated operations that hit the caches; reads with and
without a read-repair round; and writes under a pending-range provider.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import cluster as cluster_module
from repro.cluster.cluster import ClusterConfig, SimulatedCluster
from repro.cluster.consistency import ConsistencyLevel
from repro.cluster.coordinator import CoordinatorConfig

from tests.properties import routing_oracle as oracle

KEYS = [f"user{i}" for i in range(6)]
LEVELS = list(ConsistencyLevel)


def _ignore(_result) -> None:
    pass


@st.composite
def clusters(draw):
    """A ring of one or two datacenters of 1-3 racks under
    OldNetworkTopologyStrategy (where a key's per-datacenter replica counts
    vary), or three datacenters under NetworkTopologyStrategy, with 1-8
    vnodes; its coordinators either never or always start a read-repair
    round."""
    coordinator = CoordinatorConfig(read_repair_chance=draw(st.sampled_from([0.0, 1.0])))
    if draw(st.booleans()):
        n_nodes = draw(st.integers(2, 10))
        config = ClusterConfig(
            n_nodes=n_nodes,
            replication_factor=draw(st.integers(1, min(n_nodes, 5))),
            racks_per_dc=draw(st.integers(1, 3)),
            datacenters=draw(st.integers(1, 2)),
            coordinator=coordinator,
            seed=draw(st.integers(0, 2**16)),
        )
    else:
        racks = draw(st.integers(1, 2))
        factors = {f"dc{i}": draw(st.integers(0, 3)) for i in (1, 2, 3)}
        if not any(factors.values()):
            factors["dc1"] = 1
        config = ClusterConfig(
            n_nodes=3 * max(3, racks),
            replication_factor=sum(factors.values()),
            datacenters=3,
            racks_per_dc=racks,
            replication_factors=factors,
            coordinator=coordinator,
            seed=draw(st.integers(0, 2**16)),
        )
    with mock.patch.object(cluster_module, "VNODES", draw(st.integers(1, 8))):
        return SimulatedCluster(config)


def assert_read_routes_like_oracle(cluster, coordinator, key, level) -> None:
    topology = cluster.topology
    replicas = cluster.replicas_for(key)
    try:
        required = oracle.requirement(level, replicas, topology, coordinator.datacenter)
    except ValueError:
        with pytest.raises(ValueError):
            coordinator.read(key, level, _ignore)
        return
    if level.is_write_only:
        with pytest.raises(ValueError):
            coordinator.read(key, level, _ignore)
        return
    pending = coordinator._pending_reads[coordinator.read(key, level, _ignore)]
    assert (pending.required, pending.required_by_dc) == required
    expected = oracle.contacted(replicas, coordinator.address, topology, required)
    if len(expected) < len(replicas) and coordinator.config.read_repair_chance == 1.0:
        # The read-repair round contacts every replica, closest first.
        expected = oracle.by_proximity(replicas, coordinator.address, topology)
    assert list(pending.contacted) == expected


def assert_write_routes_like_oracle(cluster, coordinator, key, level, extra) -> None:
    topology = cluster.topology
    replicas = cluster.replicas_for(key)
    try:
        required = oracle.requirement(level, replicas, topology, coordinator.datacenter)
    except ValueError:
        with pytest.raises(ValueError):
            coordinator.write(key, "v", level, _ignore)
        return
    if extra:
        required = oracle.pending_write_requirement(required, extra, topology)
    pending = coordinator._pending_writes[coordinator.write(key, "v", level, _ignore)]
    assert list(pending.replicas) == list(replicas) + list(extra)
    assert (pending.required, pending.required_by_dc) == required


@given(cluster=clusters(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_routing_equals_from_scratch_oracle(cluster, data):
    nodes = cluster.topology.nodes
    routed = []
    for key in KEYS:
        replicas = cluster.replicas_for(key)
        others = [node for node in nodes if node not in replicas]
        # A coordinator inside the replica set, and one outside it if any.
        routed.append((key, data.draw(st.sampled_from(replicas))))
        if others:
            routed.append((key, data.draw(st.sampled_from(others))))
    # Twice over: the second pass answers from whatever the first cached.
    for _ in range(2):
        for key, address in routed:
            coordinator = cluster.coordinators[address]
            for level in LEVELS:
                assert_read_routes_like_oracle(cluster, coordinator, key, level)
                assert_write_routes_like_oracle(cluster, coordinator, key, level, ())


@given(cluster=clusters(), data=st.data())
@settings(max_examples=25, deadline=None)
def test_pending_range_writes_fan_out_with_the_bumped_requirement(cluster, data):
    nodes = cluster.topology.nodes
    for key in KEYS:
        replicas = cluster.replicas_for(key)
        others = [node for node in nodes if node not in replicas]
        extra = tuple(data.draw(st.lists(st.sampled_from(others), unique=True, max_size=2))
                      if others else ())
        coordinator = cluster.coordinators[data.draw(st.sampled_from(nodes))]
        coordinator.set_pending_hooks(lambda _key, extra=extra: extra)
        for level in LEVELS:
            assert_write_routes_like_oracle(cluster, coordinator, key, level, extra)
        # Without the provider the same coordinator is back to the natural
        # replicas: nothing pending was cached.
        coordinator.set_pending_hooks(None)
        for level in LEVELS:
            assert_write_routes_like_oracle(cluster, coordinator, key, level, ())
