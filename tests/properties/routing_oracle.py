"""Reference request routing: a coordinator's choices computed from scratch.

What a coordinator decides for one operation is a pure function of the level,
the key's replica set and where the coordinator sits: how many
acknowledgements it blocks for (per datacenter for the DC-aware levels), which
replicas a read contacts and in what order, and the full order a read-repair
round uses.  This module computes each of them directly from
:meth:`ConsistencyLevel.blocked_for` / :func:`blocked_for_datacenters` and the
topology's latency-model means, with no cache anywhere, so a coordinator cache
keyed by the wrong thing shows as a difference
(``tests/properties/test_routing_equivalence.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.consistency import ConsistencyLevel, blocked_for_datacenters
from repro.network.topology import NodeAddress, Topology

Requirement = Tuple[int, Optional[Dict[str, int]]]


def requirement(
    level: ConsistencyLevel,
    replicas: Sequence[NodeAddress],
    topology: Topology,
    local_dc: str,
) -> Requirement:
    """``(total, per_dc)``: acknowledgements to block for; ``per_dc`` is ``None``
    for the classic levels.  Raises ``ValueError`` where the level cannot be met."""
    if not level.is_datacenter_aware:
        return level.blocked_for(len(replicas)), None
    counts: Dict[str, int] = {}
    for replica in replicas:
        dc = topology.datacenter_of(replica)
        counts[dc] = counts.get(dc, 0) + 1
    by_dc = blocked_for_datacenters(level, counts, local_dc)
    return sum(by_dc.values()), by_dc


def by_proximity(
    nodes: Sequence[NodeAddress], coordinator: NodeAddress, topology: Topology
) -> List[NodeAddress]:
    """``nodes`` in a stable sort by the mean one-way latency from ``coordinator``."""
    return sorted(nodes, key=lambda node: topology.latency_model(coordinator, node).mean())


def contacted(
    replicas: Sequence[NodeAddress],
    coordinator: NodeAddress,
    topology: Topology,
    required: Requirement,
) -> List[NodeAddress]:
    """The replicas a read contacts without a read-repair round, closest first.

    Classic levels take the ``total`` closest replicas.  DC-aware levels take
    the closest ``need`` replicas of every datacenter with a requirement (in
    the requirement's datacenter order), then order the union by proximity.
    """
    total, by_dc = required
    if by_dc is None:
        return by_proximity(replicas, coordinator, topology)[:total]
    union: List[NodeAddress] = []
    for dc, need in by_dc.items():
        in_dc = [r for r in replicas if topology.datacenter_of(r) == dc]
        union.extend(by_proximity(in_dc, coordinator, topology)[:need])
    return by_proximity(union, coordinator, topology)


def pending_write_requirement(
    required: Requirement, extra: Sequence[NodeAddress], topology: Topology
) -> Requirement:
    """The requirement of a write that also fans out to pending targets
    ``extra``: one more acknowledgement per target the level counts (every
    target for the classic levels, those in a required datacenter otherwise)."""
    total, by_dc = required
    if by_dc is None:
        return total + len(extra), None
    bumped = dict(by_dc)
    for target in extra:
        dc = topology.datacenter_of(target)
        if dc in bumped:
            bumped[dc] += 1
    return sum(bumped.values()), bumped
