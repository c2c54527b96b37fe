"""Node and cluster counters (the simulator's ``nodetool``).

The Harmony monitoring module in the paper samples Cassandra's ``nodetool``
counters to compute read/write arrival rates.  :class:`NodeCounters` is the
per-node equivalent; :class:`ClusterStats` aggregates them cluster-wide and
provides the *windowed deltas* that turn cumulative counters into rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

from repro.network.topology import NodeAddress

__all__ = ["NodeCounters", "ClusterStats", "CounterSnapshot"]


@dataclass(slots=True)
class NodeCounters:
    """Cumulative per-node counters, incremented by the node / coordinator."""

    reads_served: int = 0
    writes_applied: int = 0
    coordinator_reads: int = 0
    coordinator_writes: int = 0
    #: Read-repair writes (background and blocking) this node applied.
    read_repairs: int = 0
    hints_stored: int = 0
    hints_replayed: int = 0
    dropped_mutations: int = 0
    queue_rejections: int = 0
    unavailable_rejections: int = 0
    #: Cells applied from anti-entropy repair streams (Merkle repair).
    anti_entropy_cells: int = 0
    #: Cells applied from membership range streaming (bootstrap/decommission).
    range_stream_cells: int = 0


@dataclass(frozen=True)
class CounterSnapshot:
    """A timestamped cluster-wide snapshot of the counters the monitor needs."""

    time: float
    coordinator_reads: int
    coordinator_writes: int
    reads_served: int
    writes_applied: int


class ClusterStats:
    """Aggregates per-node counters and produces windowed rate snapshots."""

    def __init__(self) -> None:
        self._counters: Dict[NodeAddress, NodeCounters] = {}

    def register_node(self, address: NodeAddress) -> NodeCounters:
        """Create (or return) the counter block for a node."""
        if address not in self._counters:
            self._counters[address] = NodeCounters()
        return self._counters[address]

    def counters(self, address: NodeAddress) -> NodeCounters:
        """Counters of one node (must be registered)."""
        return self._counters[address]

    def nodes(self) -> List[NodeAddress]:
        return list(self._counters)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def total(self, field_name: str) -> int:
        """Sum of one counter across all nodes."""
        return sum(getattr(counters, field_name) for counters in self._counters.values())

    def total_for(self, field_name: str, addresses: Iterable[NodeAddress]) -> int:
        """Sum of one counter over a subset of nodes (e.g. one datacenter)."""
        return sum(
            getattr(self._counters[address], field_name)
            for address in addresses
            if address in self._counters
        )

    def snapshot(self, time: float) -> CounterSnapshot:
        """Take a cluster-wide snapshot at virtual time ``time``."""
        return CounterSnapshot(
            time=time,
            coordinator_reads=self.total("coordinator_reads"),
            coordinator_writes=self.total("coordinator_writes"),
            reads_served=self.total("reads_served"),
            writes_applied=self.total("writes_applied"),
        )

    def snapshot_for(self, time: float, addresses: Iterable[NodeAddress]) -> CounterSnapshot:
        """A snapshot restricted to a node subset (per-datacenter monitoring)."""
        members = list(addresses)
        return CounterSnapshot(
            time=time,
            coordinator_reads=self.total_for("coordinator_reads", members),
            coordinator_writes=self.total_for("coordinator_writes", members),
            reads_served=self.total_for("reads_served", members),
            writes_applied=self.total_for("writes_applied", members),
        )

    def window_rates(self, previous: CounterSnapshot, current: CounterSnapshot) -> Dict[str, float]:
        """Read/write arrival rates (ops per second) between two snapshots.

        Rates are computed from *coordinator-level* counters: those count
        client operations, which is what the paper's λr and 1/λw refer to
        (replica-level counters would over-count by the replication factor).
        """
        elapsed = current.time - previous.time
        if elapsed <= 0:
            return {"read_rate": 0.0, "write_rate": 0.0, "elapsed": 0.0}
        reads = current.coordinator_reads - previous.coordinator_reads
        writes = current.coordinator_writes - previous.coordinator_writes
        return {
            "read_rate": reads / elapsed,
            "write_rate": writes / elapsed,
            "elapsed": elapsed,
        }
