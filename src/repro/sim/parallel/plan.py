"""Shard planning: partition the topology into shards and derive the
conservative lookahead window.

At the default ``rack`` granularity the planner never splits a rack across
shards, so the only latency classes that can cross a shard boundary are
``inter_rack`` and ``inter_dc`` -- both of which the reference latency
models give a strictly positive floor.  At ``node`` granularity racks may
be split, which additionally puts the ``intra_rack`` class on the boundary;
that is sound whenever the intra-rack model also has a positive floor (on
the Grid'5000-like scenarios the intra- and inter-rack floors are the same
hard clamp, so finer sharding costs no lookahead at all).  The lookahead
``L`` is the minimum floor over every latency class that actually crosses a
boundary under the chosen plan; the window protocol then guarantees that
any message generated at or after the global minimum event time ``g``
arrives no earlier than ``g + L``, which is exactly what makes
``run_until(g + L)`` safe on every shard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.network.latency import ConstantLatency, LatencyModel, LogNormalLatency, SpikyLatency
from repro.network.topology import NodeAddress, Topology

__all__ = ["DEFAULT_SHARDS", "ShardPlan", "model_floor", "plan_shards"]

#: Default shard count.  The shard count -- not the worker count -- is what
#: determines the event schedule, so it is fixed independently of how many
#: OS processes the shards are mapped onto; ``workers`` only changes the
#: mapping, never the simulation.
DEFAULT_SHARDS = 4


def model_floor(model: LatencyModel) -> float:
    """The hard lower bound on a single sample from ``model``.

    Returns 0.0 when no bound can be proven (e.g. an opaque user model),
    which the planner treats as "not shardable" for crossing classes.
    """
    if isinstance(model, ConstantLatency):
        return model.value
    if isinstance(model, LogNormalLatency):
        return model.floor
    if isinstance(model, SpikyLatency):
        # A spike multiplies the base sample, so the minimum is the base floor.
        return model_floor(model.base)
    return 0.0


@dataclass(frozen=True)
class ShardPlan:
    """An assignment of every node to exactly one shard, plus the lookahead.

    ``shards[k]`` is the tuple of node addresses shard ``k`` owns, in
    topology construction order; ``lookahead`` is the conservative window
    increment ``L`` in simulated seconds.
    """

    shards: Tuple[Tuple[NodeAddress, ...], ...]
    lookahead: float
    #: Human-readable description of the latency class that set the
    #: lookahead, for reports ("inter_rack", "inter_dc.rennes|sophia", ...).
    lookahead_class: str = ""
    _owner: Dict[NodeAddress, int] = field(
        default_factory=dict, repr=False, compare=False, hash=False
    )

    def __post_init__(self) -> None:
        owner: Dict[NodeAddress, int] = {}
        for index, owned in enumerate(self.shards):
            for address in owned:
                if address in owner:
                    raise ValueError(f"node {address} assigned to two shards")
                owner[address] = index
        object.__setattr__(self, "_owner", owner)

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def shard_of(self, address: NodeAddress) -> int:
        return self._owner[address]

    def owned(self, shard: int) -> Tuple[NodeAddress, ...]:
        return self.shards[shard]


def _rack_groups(topology: Topology) -> List[List[NodeAddress]]:
    """All racks in topology order, each as its ordered node list."""
    groups: List[List[NodeAddress]] = []
    for dc in topology.datacenters:
        for rack in dc.racks:
            if rack.nodes:
                groups.append(list(rack.nodes))
    return groups


def plan_shards(topology: Topology, n_shards: int, granularity: str = "rack") -> ShardPlan:
    """Partition ``topology`` into ``n_shards`` contiguous shards.

    ``granularity`` picks the smallest unit a shard boundary may cut:

    * ``"rack"`` (default): racks are taken in topology order and greedily
      accumulated so each shard ends as close as possible to its
      proportional share of the nodes while always leaving at least one
      rack for every remaining shard;
    * ``"node"``: the topology-ordered node list is split into contiguous
      even runs, so racks may be cut -- the lookahead then also ranges over
      the ``intra_rack`` class of every split rack (and the plan is
      rejected if that class has no positive floor);
    * ``"auto"``: rack granularity when ``n_shards`` fits the rack count
      (bit-identical to ``"rack"``), node granularity beyond it.

    The plan is a pure function of the topology, shard count and
    granularity -- no randomness -- so every shard (and the parent) derives
    the identical plan.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    if granularity not in ("rack", "node", "auto"):
        raise ValueError(f"granularity must be 'rack', 'node' or 'auto', got {granularity!r}")
    racks = _rack_groups(topology)
    if granularity == "auto":
        granularity = "rack" if n_shards <= len(racks) else "node"
    if granularity == "node":
        return _plan_node_granular(topology, racks, n_shards)
    if len(racks) < n_shards:
        raise ValueError(
            f"cannot split {len(racks)} racks into {n_shards} shards; "
            "shards are rack-granular -- lower the shard count or use "
            "granularity='node'"
        )
    total = sum(len(r) for r in racks)
    shards: List[Tuple[NodeAddress, ...]] = []
    rack_index = 0
    assigned = 0
    for k in range(n_shards):
        owned: List[NodeAddress] = []
        remaining_shards = n_shards - k - 1
        target = total * (k + 1) / n_shards
        while rack_index < len(racks) and (
            not owned
            or (
                assigned + len(racks[rack_index]) <= target + len(racks[rack_index]) / 2
                and len(racks) - rack_index - 1 >= remaining_shards
            )
        ):
            owned.extend(racks[rack_index])
            assigned += len(racks[rack_index])
            rack_index += 1
        shards.append(tuple(owned))
    # Any leftover racks (rounding) join the last shard.
    while rack_index < len(racks):
        shards[-1] = shards[-1] + tuple(racks[rack_index])
        rack_index += 1

    lookahead, lookahead_class = _lookahead(topology, shards)
    return ShardPlan(shards=tuple(shards), lookahead=lookahead, lookahead_class=lookahead_class)


def _plan_node_granular(
    topology: Topology, racks: List[List[NodeAddress]], n_shards: int
) -> ShardPlan:
    """Split the topology-ordered node list into contiguous even runs.

    Contiguity means every shard boundary cuts at most one rack, so at
    most ``n_shards - 1`` racks are split and each rack's owners form a
    contiguous shard range -- the minimum intra-rack boundary surface for
    the given shard count.
    """
    nodes: List[NodeAddress] = [address for rack in racks for address in rack]
    if len(nodes) < n_shards:
        raise ValueError(
            f"cannot split {len(nodes)} nodes into {n_shards} shards; "
            "lower the shard count"
        )
    base, extra = divmod(len(nodes), n_shards)
    shards: List[Tuple[NodeAddress, ...]] = []
    cursor = 0
    for k in range(n_shards):
        size = base + (1 if k < extra else 0)
        shards.append(tuple(nodes[cursor : cursor + size]))
        cursor += size
    lookahead, lookahead_class = _lookahead(topology, shards)
    return ShardPlan(shards=tuple(shards), lookahead=lookahead, lookahead_class=lookahead_class)


def _lookahead(
    topology: Topology, shards: List[Tuple[NodeAddress, ...]]
) -> Tuple[float, str]:
    """Minimum latency floor over every class crossing a shard boundary.

    Works mostly at rack granularity -- the latency model between two nodes
    depends only on their distance class (and datacenter pair), never on
    the individual node -- but accounts for racks that a node-granular plan
    split across shards: their ``intra_rack`` class joins the boundary, and
    a rack pair crosses unless both racks live wholly in the same shard.
    """
    owner: Dict[NodeAddress, int] = {}
    for index, owned in enumerate(shards):
        for address in owned:
            owner[address] = index
    representatives: List[NodeAddress] = []
    owner_sets: List[frozenset] = []
    split_pairs: List[Tuple[NodeAddress, NodeAddress]] = []
    for dc in topology.datacenters:
        for rack in dc.racks:
            if rack.nodes:
                representatives.append(rack.nodes[0])
                owners = frozenset(owner[address] for address in rack.nodes)
                owner_sets.append(owners)
                if len(owners) > 1:
                    split_pairs.append((rack.nodes[0], rack.nodes[1]))

    best_floor = float("inf")
    best_class = ""
    seen: set = set()

    def consider(a: NodeAddress, b: NodeAddress) -> None:
        nonlocal best_floor, best_class
        distance = topology.distance_class(a, b)
        if distance == "inter_dc":
            key = (distance, tuple(sorted((a.datacenter, b.datacenter))))
            label = f"inter_dc.{key[1][0]}|{key[1][1]}"
        else:
            key = (distance, None)
            label = distance
        if key in seen:
            return
        seen.add(key)
        floor = model_floor(topology.latency_model(a, b))
        if floor <= 0.0:
            raise ValueError(
                f"latency class {label!r} crosses a shard boundary but has "
                "no positive latency floor; the scenario is not shardable "
                "(a conservative window needs lookahead > 0)"
            )
        if floor < best_floor:
            best_floor = floor
            best_class = label

    for a, b in split_pairs:
        consider(a, b)
    for i, a in enumerate(representatives):
        for j in range(i + 1, len(representatives)):
            # Two racks only avoid the boundary when both sit whole inside
            # the very same shard.
            if owner_sets[i] == owner_sets[j] and len(owner_sets[i]) == 1:
                continue
            consider(a, representatives[j])
    if best_floor == float("inf"):
        # Single shard: nothing crosses. Lookahead is unused but must be
        # positive so the window loop still advances.
        return 0.001, "none"
    return best_floor, best_class
