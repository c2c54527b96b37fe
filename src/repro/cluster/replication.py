"""Replica placement strategies.

Given the clockwise node walk produced by the token ring, a replication
strategy selects which nodes hold the ``RF`` replicas of a key.  The walk is
lazy and every strategy stops pulling from it as soon as its rules are
satisfied, so one placement costs O(RF + skipped vnodes) ring tokens, not
O(ring).

* :class:`OldNetworkTopologyStrategy` mirrors the strategy the paper
  configures ("this strategy ensures that data is replicated over all the
  clusters and racks"): the first replica is the walk's first node, the
  second replica is the first node found in a *different datacenter*, the
  third is the first node in a *different rack* of the first datacenter, and
  the remaining replicas follow the walk.  With a single datacenter the
  cross-DC preference degrades gracefully to cross-rack placement.
* :class:`NetworkTopologyStrategy` is the modern geo-replication strategy:
  an explicit **per-datacenter replication factor** (e.g.
  ``{"dc1": 3, "dc2": 2}``).  Each datacenter independently takes its
  configured number of replicas from the walk, spreading them over distinct
  racks first -- exactly the placement contract the DC-aware consistency
  levels (``LOCAL_QUORUM``, ``EACH_QUORUM``) rely on.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Iterator, List, Mapping

from repro.cluster.ring import TokenRing
from repro.network.topology import NodeAddress, Topology

__all__ = [
    "ReplicationStrategy",
    "OldNetworkTopologyStrategy",
    "NetworkTopologyStrategy",
]


class ReplicationStrategy(ABC):
    """Chooses the replica set of a key from the ring walk."""

    def __init__(self, replication_factor: int) -> None:
        if replication_factor < 1:
            raise ValueError(f"replication factor must be >= 1, got {replication_factor!r}")
        self.replication_factor = int(replication_factor)

    @abstractmethod
    def select(self, walk: Iterator[NodeAddress]) -> List[NodeAddress]:
        """Select replicas (in preference order) from a lazy clockwise walk.

        ``walk`` yields distinct physical nodes; implementations pull only as
        many as their rules need.
        """

    def replicas(self, ring: TokenRing, key: str) -> List[NodeAddress]:
        """Replica set for a key; the first element is the primary replica."""
        if ring.size < self.replication_factor:
            raise ValueError(
                f"replication factor {self.replication_factor} exceeds cluster size {ring.size}"
            )
        selected = self.select(ring.walk_from_token(ring.token_of(key)))
        if len(selected) != self.replication_factor:  # pragma: no cover - defensive
            raise RuntimeError(
                f"{type(self).__name__} selected {len(selected)} replicas, "
                f"expected {self.replication_factor}"
            )
        return selected


class OldNetworkTopologyStrategy(ReplicationStrategy):
    """Rack- and datacenter-aware placement (Cassandra's OldNetworkTopologyStrategy).

    Placement rules, applied to the clockwise walk starting at the key's
    token:

    1. the first node of the walk is always a replica (the primary);
    2. the next replica is the first node in a *different datacenter* from
       the primary, if any;
    3. the next replica is the first node in the primary's datacenter but a
       *different rack*, if any;
    4. remaining replicas are filled from the walk in order, skipping nodes
       already chosen.

    A rule that cannot fire is not searched for: rule 2 on a one-datacenter
    topology, rule 3 when the primary's datacenter has a single rack.
    """

    def __init__(self, replication_factor: int, topology: Topology) -> None:
        super().__init__(replication_factor)
        self._multi_dc = len(topology.datacenter_names) > 1
        self._multi_rack: Dict[str, bool] = {
            dc: len(topology.racks_in_datacenter(dc)) > 1 for dc in topology.datacenter_names
        }

    def select(self, walk: Iterator[NodeAddress]) -> List[NodeAddress]:
        rf = self.replication_factor
        primary = next(walk)
        if rf == 1:
            return [primary]
        primary_dc, primary_rack, _ = primary
        seek_dc = self._multi_dc
        seek_rack = self._multi_rack[primary_dc]
        other_dc = other_rack = None
        # Every node pulled after the primary, in walk order: rule 4 fills from it.
        passed: List[NodeAddress] = []
        for node in walk:
            passed.append(node)
            dc, rack, _ = node
            if dc != primary_dc:
                if seek_dc:
                    other_dc = node
                    seek_dc = False
                    # With RF 2 the other-DC replica completes the set.
                    seek_rack = seek_rack and rf > 2
            elif seek_rack and rack != primary_rack:
                other_rack = node
                seek_rack = False
            if not seek_dc and not seek_rack and len(passed) >= rf - 1:
                break
        chosen = [primary]
        if other_dc is not None:
            chosen.append(other_dc)
        if other_rack is not None and len(chosen) < rf:
            chosen.append(other_rack)
        for node in passed:
            if len(chosen) == rf:
                break
            if node not in chosen:
                chosen.append(node)
        return chosen


class NetworkTopologyStrategy(ReplicationStrategy):
    """Per-datacenter replica placement (Cassandra's ``NetworkTopologyStrategy``).

    Parameters
    ----------
    replication_factors:
        Datacenter name -> number of replicas that datacenter must hold.
        Every named datacenter must exist in the topology and contain at
        least that many nodes; zero entries are dropped.
    topology:
        The cluster layout the placement consults for DC/rack membership.

    Placement contract (checked by the property tests):

    * each datacenter receives **exactly** its configured replica count;
    * no node holds more than one replica of a key;
    * within a datacenter, replicas prefer distinct racks -- a rack is only
      reused once every rack of the datacenter already holds a replica;
    * replicas are returned in ring-walk order, so the walk's first selected
      node remains the primary and proximity ordering stays meaningful.
    """

    def __init__(self, replication_factors: Mapping[str, int], topology: Topology) -> None:
        factors = {dc: int(rf) for dc, rf in replication_factors.items() if int(rf) != 0}
        if not factors:
            raise ValueError("NetworkTopologyStrategy needs at least one non-zero DC factor")
        if any(rf < 0 for rf in factors.values()):
            raise ValueError(f"replication factors must be non-negative, got {dict(replication_factors)!r}")
        known = set(topology.datacenter_names)
        unknown = set(factors) - known
        if unknown:
            raise ValueError(
                f"replication factors reference unknown datacenter(s) {sorted(unknown)}; "
                f"topology has {sorted(known)}"
            )
        for dc, rf in factors.items():
            available = len(topology.nodes_in_datacenter(dc))
            if rf > available:
                raise ValueError(
                    f"datacenter {dc!r} has {available} nodes, fewer than its "
                    f"replication factor {rf}"
                )
        super().__init__(sum(factors.values()))
        self._factors = dict(factors)
        self._rack_counts = {dc: len(topology.racks_in_datacenter(dc)) for dc in factors}

    @property
    def replication_factors(self) -> Dict[str, int]:
        """Per-datacenter replication factors (a copy)."""
        return dict(self._factors)

    def replication_factor_for(self, datacenter: str) -> int:
        """Replicas held by one datacenter (0 for datacenters not configured)."""
        return self._factors.get(datacenter, 0)

    def select(self, walk: Iterator[NodeAddress]) -> List[NodeAddress]:
        # Per datacenter still short of its factor: replicas still to place,
        # racks already holding one, and the nodes passed over because their
        # rack was taken -- reused, in walk order, once the racks run out.
        short: Dict[str, list] = {dc: [rf, set(), []] for dc, rf in self._factors.items()}
        pulled: List[NodeAddress] = []
        chosen: set[NodeAddress] = set()
        for node in walk:
            dc, rack, _ = node
            state = short.get(dc)
            if state is None:
                continue
            pulled.append(node)
            missing, racks_used, passed_over = state
            if rack not in racks_used:
                racks_used.add(rack)
                chosen.add(node)
                missing = state[0] = missing - 1
            else:
                passed_over.append(node)
            # Done with this datacenter once its factor is met by distinct
            # racks alone, or every rack holds a replica and the passed-over
            # nodes cover the rest.
            if missing == 0 or (
                len(racks_used) == self._rack_counts[dc] and len(passed_over) >= missing
            ):
                chosen.update(passed_over[:missing])
                del short[dc]
                if not short:
                    break
        for dc, (missing, _, passed_over) in short.items():
            # The walk ran out first: racks (or nodes) of the datacenter are
            # missing from this ring.
            if len(passed_over) < missing:
                raise RuntimeError(
                    f"walk exhausted before placing {self._factors[dc]} replicas "
                    f"in datacenter {dc!r}"
                )
            chosen.update(passed_over[:missing])
        return [node for node in pulled if node in chosen]
