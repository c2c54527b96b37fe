"""Shared fixtures for the control-loop tests."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import ClusterConfig, SimulatedCluster
from repro.cluster.node import NodeConfig
from repro.control.monitor import MonitoringSample
from repro.network.latency import ConstantLatency
from repro.network.topology import TopologyBuilder

#: One-way WAN latencies of the per-pair mesh, in seconds (well above the LAN).
WAN_AB = 0.005
WAN_AC = 0.008
WAN_BC = 0.006
LAN = 0.0002


def build_geo_topology(nodes_per_rack: int = 2):
    """Three sites (alpha/beta/gamma) with constant, well-separated latencies."""
    return (
        TopologyBuilder()
        .datacenter("alpha")
        .rack("r1", nodes=nodes_per_rack)
        .datacenter("beta")
        .rack("r1", nodes=nodes_per_rack)
        .datacenter("gamma")
        .rack("r1", nodes=nodes_per_rack)
        .latencies(
            intra_rack=ConstantLatency(0.0002),
            inter_rack=ConstantLatency(0.0004),
            inter_dc=ConstantLatency(0.006),
        )
        .build()
    )


def build_wan_topology():
    """Three sites of two racks each, joined by per-pair WAN links."""
    return (
        TopologyBuilder()
        .datacenter("alpha")
        .rack("r1", nodes=2)
        .rack("r2", nodes=2)
        .datacenter("beta")
        .rack("r1", nodes=2)
        .rack("r2", nodes=2)
        .datacenter("gamma")
        .rack("r1", nodes=2)
        .rack("r2", nodes=2)
        .latencies(intra_rack=ConstantLatency(LAN), inter_rack=ConstantLatency(LAN))
        .inter_dc_link("alpha", "beta", ConstantLatency(WAN_AB))
        .inter_dc_link("alpha", "gamma", ConstantLatency(WAN_AC))
        .inter_dc_link("beta", "gamma", ConstantLatency(WAN_BC))
        .build()
    )


def build_geo_cluster(seed: int = 5, **overrides) -> SimulatedCluster:
    """The per-pair WAN mesh with {3, 2, 2} replicas per site."""
    config = ClusterConfig(
        topology=build_wan_topology(),
        replication_factors={"alpha": 3, "beta": 2, "gamma": 2},
        node=NodeConfig(
            concurrency=8,
            read_service_time=0.001,
            write_service_time=0.0008,
            service_time_cv=0.2,
        ),
        seed=seed,
        **overrides,
    )
    return SimulatedCluster(config)


@pytest.fixture
def geo_cluster() -> SimulatedCluster:
    return SimulatedCluster(
        ClusterConfig(
            topology=build_geo_topology(),
            replication_factors={"alpha": 2, "beta": 2, "gamma": 2},
            seed=29,
        )
    )


@pytest.fixture
def plain_cluster() -> SimulatedCluster:
    return SimulatedCluster(
        ClusterConfig(
            n_nodes=6,
            replication_factor=3,
            seed=31,
            intra_rack_latency=ConstantLatency(0.0003),
            inter_rack_latency=ConstantLatency(0.0005),
        )
    )


def make_sample(
    read_rate: float,
    write_rate: float,
    tp: float,
    *,
    time: float = 1.0,
    datacenter=None,
) -> MonitoringSample:
    return MonitoringSample(
        time=time,
        read_rate=read_rate,
        write_rate=write_rate,
        raw_read_rate=read_rate,
        raw_write_rate=write_rate,
        network_latency=tp,
        propagation_time=tp,
        window=1.0,
        datacenter=datacenter,
    )
