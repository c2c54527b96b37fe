"""Reference replica placement: the full-ring walk, kept as a test oracle.

This is the placement code ``repro.cluster.replication`` shipped before the
walk became lazy: materialise every distinct node clockwise from the key's
token, then apply each strategy's rules over that whole list.  It is O(ring)
per key and deliberately naive -- nothing here is shared with the production
walk, not even the ring's own walk helpers, so a bug in either shows as a
difference (``tests/properties/test_placement_equivalence.py``).
"""

from __future__ import annotations

import bisect
from typing import List, Mapping, Sequence

from repro.cluster.ring import TokenRing
from repro.network.topology import NodeAddress, Topology


def full_walk(ring: TokenRing, key: str) -> List[NodeAddress]:
    """Every physical node of ``ring``, clockwise from the key's token, once each."""
    tokens = sorted(ring._token_map)
    start = bisect.bisect_left(tokens, ring.token_of(key))
    walk: List[NodeAddress] = []
    for offset in range(len(tokens)):
        node = ring._token_map[tokens[(start + offset) % len(tokens)]]
        if node not in walk:
            walk.append(node)
    return walk


def old_network_topology(
    walk: Sequence[NodeAddress], replication_factor: int, topology: Topology
) -> List[NodeAddress]:
    primary = walk[0]
    chosen: List[NodeAddress] = [primary]
    if replication_factor == 1:
        return chosen
    primary_dc = topology.datacenter_of(primary)
    primary_rack = topology.rack_of(primary)

    def first_matching(predicate) -> NodeAddress | None:
        for node in walk:
            if node in chosen:
                continue
            if predicate(node):
                return node
        return None

    # Rule 2: a replica in another datacenter.
    other_dc = first_matching(lambda n: topology.datacenter_of(n) != primary_dc)
    if other_dc is not None and len(chosen) < replication_factor:
        chosen.append(other_dc)

    # Rule 3: a replica in the primary DC but another rack.
    other_rack = first_matching(
        lambda n: topology.datacenter_of(n) == primary_dc
        and topology.rack_of(n) != primary_rack
    )
    if other_rack is not None and len(chosen) < replication_factor:
        chosen.append(other_rack)

    # Rule 4: fill the remainder from the walk.
    for node in walk:
        if len(chosen) == replication_factor:
            break
        if node not in chosen:
            chosen.append(node)
    return chosen


def network_topology(
    walk: Sequence[NodeAddress], factors: Mapping[str, int], topology: Topology
) -> List[NodeAddress]:
    chosen: set[NodeAddress] = set()
    for dc, rf in factors.items():
        taken = 0
        racks_used: set[str] = set()
        # First pass: one replica per distinct rack, in walk order.
        for node in walk:
            if taken == rf:
                break
            if topology.datacenter_of(node) != dc or node in chosen:
                continue
            if topology.rack_of(node) in racks_used:
                continue
            chosen.add(node)
            racks_used.add(topology.rack_of(node))
            taken += 1
        # Second pass: racks exhausted before the factor -- reuse racks.
        if taken < rf:
            for node in walk:
                if taken == rf:
                    break
                if topology.datacenter_of(node) != dc or node in chosen:
                    continue
                chosen.add(node)
                taken += 1
        if taken < rf:
            raise RuntimeError(
                f"walk exhausted before placing {rf} replicas in datacenter {dc!r}"
            )
    return [node for node in walk if node in chosen]
