"""Unit tests for the topology model."""

from __future__ import annotations

import re

import pytest

from repro.cluster.cluster import resolve_topology
from repro.experiments.scenarios import ScenarioRegistry

from repro.network.latency import ConstantLatency
from repro.network.topology import (
    Datacenter,
    NodeAddress,
    Rack,
    Topology,
    TopologyBuilder,
    uniform_topology,
)


def build_two_dc_topology() -> Topology:
    return (
        TopologyBuilder()
        .latencies(
            loopback=ConstantLatency(0.00001),
            intra_rack=ConstantLatency(0.0001),
            inter_rack=ConstantLatency(0.0002),
            inter_dc=ConstantLatency(0.001),
        )
        .datacenter("dc1")
        .rack("r1", nodes=2)
        .rack("r2", nodes=2)
        .datacenter("dc2")
        .rack("r1", nodes=2)
        .build()
    )


def test_builder_counts_nodes_and_assigns_unique_ids():
    topo = build_two_dc_topology()
    assert topo.size == 6
    ids = [node.node_id for node in topo.nodes]
    assert len(set(ids)) == 6


def test_rack_and_datacenter_lookup():
    topo = build_two_dc_topology()
    node = topo.nodes[0]
    assert topo.datacenter_of(node) == "dc1"
    assert topo.rack_of(node) == "r1"
    assert len(topo.nodes_in_datacenter("dc1")) == 4
    assert len(topo.nodes_in_datacenter("dc2")) == 2
    assert len(topo.nodes_in_rack("dc1", "r2")) == 2
    assert topo.racks_in_datacenter("dc1") == ["r1", "r2"]


def test_distance_classes():
    topo = build_two_dc_topology()
    dc1_r1 = topo.nodes_in_rack("dc1", "r1")
    dc1_r2 = topo.nodes_in_rack("dc1", "r2")
    dc2_r1 = topo.nodes_in_rack("dc2", "r1")
    assert topo.distance_class(dc1_r1[0], dc1_r1[0]) == "loopback"
    assert topo.distance_class(dc1_r1[0], dc1_r1[1]) == "intra_rack"
    assert topo.distance_class(dc1_r1[0], dc1_r2[0]) == "inter_rack"
    assert topo.distance_class(dc1_r1[0], dc2_r1[0]) == "inter_dc"


def test_latency_models_follow_distance_class():
    topo = build_two_dc_topology()
    a = topo.nodes_in_rack("dc1", "r1")[0]
    b = topo.nodes_in_rack("dc1", "r1")[1]
    c = topo.nodes_in_rack("dc1", "r2")[0]
    d = topo.nodes_in_rack("dc2", "r1")[0]
    assert topo.mean_latency(a, a) == pytest.approx(0.00001)
    assert topo.mean_latency(a, b) == pytest.approx(0.0001)
    assert topo.mean_latency(a, c) == pytest.approx(0.0002)
    assert topo.mean_latency(a, d) == pytest.approx(0.001)


def test_missing_inter_dc_model_is_an_error():
    topo = (
        TopologyBuilder()
        .datacenter("dc1")
        .rack("r1", nodes=1)
        .datacenter("dc2")
        .rack("r1", nodes=1)
        .build()
    )
    a, b = topo.nodes
    with pytest.raises(ValueError):
        topo.latency_model(a, b)


def test_mean_inter_replica_latency_averages_pairs():
    topo = build_two_dc_topology()
    a = topo.nodes_in_rack("dc1", "r1")[0]
    b = topo.nodes_in_rack("dc1", "r1")[1]
    d = topo.nodes_in_rack("dc2", "r1")[0]
    # pairs: (a,b)=intra 0.0001, (a,d)=inter_dc 0.001, (b,d)=inter_dc 0.001
    expected = (0.0001 + 0.001 + 0.001) / 3
    assert topo.mean_inter_replica_latency([a, b, d]) == pytest.approx(expected)


def test_mean_inter_replica_latency_single_node_uses_loopback():
    topo = build_two_dc_topology()
    assert topo.mean_inter_replica_latency([topo.nodes[0]]) == pytest.approx(0.00001)


def test_duplicate_node_addresses_rejected():
    node = NodeAddress("dc1", "r1", 0)
    dc = Datacenter("dc1", racks=[Rack("r1", [node, node])])
    with pytest.raises(ValueError):
        Topology([dc])


@pytest.mark.parametrize(
    "misplaced",
    [NodeAddress("dc2", "r1", 1), NodeAddress("dc1", "r2", 1)],
    ids=["other-datacenter", "other-rack"],
)
def test_an_address_must_name_where_it_is_placed(misplaced):
    # The op path reads a node's datacenter and rack off its address, so an
    # address filed under another datacenter or rack is refused, by name.
    dc = Datacenter("dc1", racks=[Rack("r1", [NodeAddress("dc1", "r1", 0), misplaced])])
    with pytest.raises(ValueError, match=re.escape(str(misplaced))):
        Topology([dc])


@pytest.mark.parametrize("name", ScenarioRegistry.names())
def test_every_registered_scenario_places_nodes_where_their_addresses_say(name):
    topology = resolve_topology(ScenarioRegistry.get(name).cluster_config(seed=0))
    for dc in topology.datacenters:
        for rack in dc.racks:
            for node in rack.nodes:
                assert (node.datacenter, node.rack) == (dc.name, rack.name)
                assert topology.site_of(node) == (dc.name, rack.name)


def test_empty_topology_rejected():
    with pytest.raises(ValueError):
        Topology([])
    with pytest.raises(ValueError):
        Topology([Datacenter("dc1", racks=[])])


def test_builder_requires_datacenter_before_rack():
    with pytest.raises(ValueError):
        TopologyBuilder().rack("r1", nodes=2)


def test_uniform_topology_spreads_nodes_evenly():
    topo = uniform_topology(10, racks_per_dc=2, datacenters=2)
    assert topo.size == 10
    for dc in ("dc1", "dc2"):
        assert len(topo.nodes_in_datacenter(dc)) == 5
    # Rack sizes differ by at most one.
    sizes = [
        len(topo.nodes_in_rack(dc, rack))
        for dc in ("dc1", "dc2")
        for rack in topo.racks_in_datacenter(dc)
    ]
    assert max(sizes) - min(sizes) <= 1


def test_uniform_topology_validates_arguments():
    with pytest.raises(ValueError):
        uniform_topology(0)
    with pytest.raises(ValueError):
        uniform_topology(4, racks_per_dc=0)


def test_node_address_is_hashable_and_ordered():
    a = NodeAddress("dc1", "r1", 0)
    b = NodeAddress("dc1", "r1", 1)
    assert a < b
    assert len({a, b, NodeAddress("dc1", "r1", 0)}) == 2
    assert str(a) == "dc1/r1/node0"
