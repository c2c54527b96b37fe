"""Cassandra-like quorum-replicated key-value store (simulated substrate).

The paper evaluates Harmony on Apache Cassandra 1.0.2.  This package is a
discrete-event-simulated stand-in that reproduces the mechanisms the paper's
results depend on:

* a Murmur3 token ring and a replication strategy worked out from the
  configuration (``OldNetworkTopologyStrategy``, or per-DC
  ``NetworkTopologyStrategy`` when replication factors are given per
  datacenter);
* per-node storage engines: a memtable of timestamped cells
  (last-write-wins);
* a coordinator read/write path with per-operation consistency levels
  (ONE, TWO, THREE, QUORUM, ALL or any explicit replica count), asynchronous
  propagation of writes to the replicas outside the blocked-for set, read
  repair and hinted handoff;
* a shared failure detector (:class:`FailureDetector`, the simulator's
  gossip): coordinators reject a request whose consistency level provably
  cannot be met with an ``unavailable`` result instead of a timeout;
* node-level request queues with bounded concurrency, so throughput saturates
  realistically as the number of closed-loop client threads grows (the shape
  of the paper's Fig. 5(c)/(d));
* ``nodetool``-style counters that the Harmony monitoring module samples.

The staleness mechanism is exactly the one described in the paper: a write
acknowledged by ``W`` replicas keeps propagating to the remaining replicas in
the background, and a read served from a replica that the propagation has not
yet reached returns stale data.
"""

from repro.cluster.cluster import ClusterConfig, SimulatedCluster
from repro.cluster.consistency import (
    ConsistencyLevel,
    blocked_for_datacenters,
    local_level_for_replicas,
    quorum_size,
)
from repro.cluster.coordinator import Coordinator, OperationResult
from repro.cluster.detector import FailureDetector
from repro.cluster.node import NodeConfig, StorageNode
from repro.cluster.replication import (
    NetworkTopologyStrategy,
    OldNetworkTopologyStrategy,
    ReplicationStrategy,
)
from repro.cluster.ring import Murmur3Partitioner, TokenRing
from repro.cluster.stats import ClusterStats, NodeCounters
from repro.cluster.storage import Cell, StorageEngine

__all__ = [
    "Cell",
    "ClusterConfig",
    "ClusterStats",
    "ConsistencyLevel",
    "Coordinator",
    "FailureDetector",
    "Murmur3Partitioner",
    "NetworkTopologyStrategy",
    "NodeConfig",
    "NodeCounters",
    "OldNetworkTopologyStrategy",
    "OperationResult",
    "ReplicationStrategy",
    "SimulatedCluster",
    "StorageEngine",
    "StorageNode",
    "TokenRing",
    "blocked_for_datacenters",
    "local_level_for_replicas",
    "quorum_size",
]
