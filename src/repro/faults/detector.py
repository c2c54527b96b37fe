"""Cluster-shared liveness view (the simulator's failure detector).

Cassandra coordinators consult the gossip-fed failure detector before doing
any work for a request: if the detector says too few replicas are alive to
ever satisfy the consistency level, the request is rejected up front with
``UnavailableException`` rather than left to time out.  The simulated
:class:`FailureDetector` plays that role -- one instance is shared by every
coordinator of a :class:`~repro.cluster.cluster.SimulatedCluster`, and the
fault-injection paths (:meth:`~repro.cluster.cluster.SimulatedCluster.take_down`,
datacenter outages) keep it current.

The detector is deliberately *instant and perfect*: the moment a node goes
down every coordinator knows.  Real gossip converges in seconds; modelling
that lag would only blur the Unavailable-vs-timeout boundary the fault tests
assert on, so the simplification is documented rather than configurable.
"""

from __future__ import annotations

from typing import Iterable, Set

from repro.network.topology import NodeAddress

__all__ = ["FailureDetector"]


class FailureDetector:
    """Tracks which nodes are currently down (shared, zero simulated cost).

    The common case -- a healthy cluster -- must stay cheap because the
    coordinators consult :attr:`any_down` on every operation: it is a plain
    attribute, kept current by the two marks.
    """

    __slots__ = ("_down", "any_down")

    def __init__(self) -> None:
        self._down: Set[NodeAddress] = set()
        #: Whether any node is currently marked down (the fast-path guard).
        self.any_down = False

    # ------------------------------------------------------------------
    def mark_down(self, address: NodeAddress) -> None:
        """Record that a node stopped serving requests."""
        self._down.add(address)
        self.any_down = True

    def mark_up(self, address: NodeAddress) -> None:
        """Record that a node came back."""
        self._down.discard(address)
        self.any_down = bool(self._down)

    # ------------------------------------------------------------------

    def is_up(self, address: NodeAddress) -> bool:
        return address not in self._down

    def down_nodes(self) -> Set[NodeAddress]:
        """A copy of the currently-down set (for tests and reports)."""
        return set(self._down)

    def live_count(self, addresses: Iterable[NodeAddress]) -> int:
        """How many of ``addresses`` are currently up."""
        down = self._down
        return sum(1 for address in addresses if address not in down)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FailureDetector(down={len(self._down)})"
