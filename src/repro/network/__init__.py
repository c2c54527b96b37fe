"""Network substrate: latency models, cluster topology and message delivery.

The paper's staleness model is driven almost entirely by the update
propagation time ``Tp(Ln, avg_w)``, itself a function of the inter-replica
network latency ``Ln``.  This package provides:

* :mod:`repro.network.latency` -- pluggable one-way latency models, including
  presets that mirror the two evaluation platforms of the paper
  (Grid'5000-like LAN and EC2-like virtualised network with jitter/spikes);
* :mod:`repro.network.topology` -- datacenters, racks and nodes, plus a
  pairwise latency matrix derived from the topology;
* :mod:`repro.network.fabric` -- the message fabric that delivers simulated
  messages between nodes over the event engine with per-link latency,
  optional drops and bandwidth-dependent transfer time.
"""

from repro.network.fabric import Message, NetworkFabric, NetworkStats
from repro.network.latency import (
    ConstantLatency,
    EC2LikeLatency,
    Grid5000LikeLatency,
    LatencyModel,
    LogNormalLatency,
    SpikyLatency,
)
from repro.network.topology import Datacenter, NodeAddress, Rack, Topology, TopologyBuilder

__all__ = [
    "ConstantLatency",
    "Datacenter",
    "EC2LikeLatency",
    "Grid5000LikeLatency",
    "LatencyModel",
    "LogNormalLatency",
    "Message",
    "NetworkFabric",
    "NetworkStats",
    "NodeAddress",
    "Rack",
    "SpikyLatency",
    "Topology",
    "TopologyBuilder",
]
