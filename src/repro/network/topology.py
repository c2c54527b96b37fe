"""Cluster topology: datacenters, racks, nodes and the pairwise latency map.

Cassandra's ``OldNetworkTopologyStrategy`` (the replication strategy used in
the paper's experiments) places replicas across racks and datacenters, so the
simulator needs an explicit notion of where each node lives.  The topology
also decides which latency model applies to a pair of nodes:

* same node          -> loopback (essentially zero),
* same rack          -> intra-rack model,
* same DC, other rack -> inter-rack model,
* different DC       -> inter-DC model, optionally overridden per DC pair.

Geo-distributed deployments (Grid'5000 multi-site, EC2 multi-region) have
*asymmetric* site distances -- Rennes<->Sophia is not Nancy<->Sophia -- so a
single inter-DC model is not enough.  ``inter_dc_links`` maps unordered DC
pairs to dedicated latency models; pairs without an entry fall back to the
default ``inter_dc`` model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.network.latency import ConstantLatency, LatencyModel

__all__ = ["NodeAddress", "Rack", "Datacenter", "Topology", "TopologyBuilder"]


class NodeAddress(NamedTuple):
    """Logical address of a storage node.

    The address is what the ring, the coordinator and the monitoring module
    use to refer to a node; it is hashable and ordering is lexicographic on
    ``(datacenter, rack, node_id)`` so test output is stable.

    Addresses are dictionary keys on every hot path (fabric handler routing,
    topology lookups, replica bookkeeping), so the type is a ``NamedTuple``:
    hashing, equality and construction are C-level tuple operations instead
    of generated Python methods -- the single largest per-message saving of
    the op-path overhaul.
    """

    datacenter: str
    rack: str
    node_id: int

    def __str__(self) -> str:
        return f"{self.datacenter}/{self.rack}/node{self.node_id}"


@dataclass
class Rack:
    """A rack: a named group of nodes inside one datacenter."""

    name: str
    nodes: List[NodeAddress] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.nodes)


@dataclass
class Datacenter:
    """A datacenter: a named group of racks."""

    name: str
    racks: List[Rack] = field(default_factory=list)

    @property
    def nodes(self) -> List[NodeAddress]:
        """All node addresses in this datacenter, rack by rack."""
        return [node for rack in self.racks for node in rack.nodes]

    def __len__(self) -> int:
        return sum(len(rack) for rack in self.racks)


class Topology:
    """Immutable description of the cluster layout plus latency classes.

    Parameters
    ----------
    datacenters:
        The datacenter/rack/node hierarchy.
    loopback, intra_rack, inter_rack, inter_dc:
        Latency models per distance class.  ``inter_dc`` may be ``None`` for
        single-DC clusters (requesting it then is an error, which catches
        mis-configured replication strategies early).
    inter_dc_links:
        Optional per-pair overrides of the inter-DC model, keyed by an
        unordered pair of datacenter names (any two-element iterable; stored
        as a frozenset).  Pairs without an override use ``inter_dc``.
    """

    def __init__(
        self,
        datacenters: Sequence[Datacenter],
        *,
        loopback: Optional[LatencyModel] = None,
        intra_rack: Optional[LatencyModel] = None,
        inter_rack: Optional[LatencyModel] = None,
        inter_dc: Optional[LatencyModel] = None,
        inter_dc_links: Optional[Dict[Tuple[str, str], LatencyModel]] = None,
    ) -> None:
        if not datacenters:
            raise ValueError("a topology needs at least one datacenter")
        self._datacenters = list(datacenters)
        self._loopback = loopback or ConstantLatency(0.00001)
        self._intra_rack = intra_rack or ConstantLatency(0.0002)
        self._inter_rack = inter_rack or self._intra_rack
        self._inter_dc = inter_dc
        self._inter_dc_links: Dict[frozenset, LatencyModel] = {}
        self._mean_latency_by_sites: Dict[Optional[Tuple[str, str, str, str]], float] = {}
        dc_names = {dc.name for dc in self._datacenters}
        for pair, model in (inter_dc_links or {}).items():
            key = frozenset(pair)
            if len(key) != 2:
                raise ValueError(f"inter-DC link needs two distinct datacenters, got {pair!r}")
            unknown = key - dc_names
            if unknown:
                raise ValueError(f"inter-DC link references unknown datacenter(s) {sorted(unknown)}")
            if key in self._inter_dc_links:
                # Links are unordered: ("a", "b") and ("b", "a") name the same
                # link, and silently keeping one of two models would hide a
                # misconfiguration (asymmetric links are not supported).
                raise ValueError(f"duplicate inter-DC link for pair {sorted(key)}")
            self._inter_dc_links[key] = model
        # An address names where its node sits (``datacenter``, ``rack``), so
        # the op path reads placement off the address itself; an address
        # placed anywhere else would make those reads lie.
        self._nodes: List[NodeAddress] = []
        members: set = set()
        #: One ``(datacenter, rack)`` tuple per site, shared by its nodes
        #: (a site keys the fabric's per-source pool caches).
        self._sites: Dict[Tuple[str, str], Tuple[str, str]] = {}
        for dc in self._datacenters:
            for rack in dc.racks:
                site = (dc.name, rack.name)
                self._sites.setdefault(site, site)
                for node in rack.nodes:
                    if node.datacenter != dc.name or node.rack != rack.name:
                        raise ValueError(
                            f"node address {node} is placed in {dc.name}/{rack.name}; "
                            "an address's datacenter and rack must be where it sits"
                        )
                    if node in members:
                        raise ValueError(f"duplicate node address {node}")
                    members.add(node)
                    self._nodes.append(node)
        self._members = frozenset(members)
        if not self._nodes:
            raise ValueError("a topology needs at least one node")
        #: Ordered DC pair -> name of its inter-DC link class (unordered).
        self._inter_dc_class: Dict[Tuple[str, str], str] = {
            (a, b): f"inter_dc.{min(a, b)}|{max(a, b)}"
            for a in dc_names
            for b in dc_names
            if a != b
        }

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    @property
    def datacenters(self) -> List[Datacenter]:
        return list(self._datacenters)

    @property
    def datacenter_names(self) -> List[str]:
        """Datacenter names in construction order."""
        return [dc.name for dc in self._datacenters]

    @property
    def nodes(self) -> List[NodeAddress]:
        """Every node address in deterministic (construction) order."""
        return list(self._nodes)

    @property
    def size(self) -> int:
        return len(self._nodes)

    def datacenter_of(self, node: NodeAddress) -> str:
        """The datacenter of a member node: its address's ``datacenter``."""
        if node in self._members:
            return node.datacenter
        raise KeyError(node)

    def rack_of(self, node: NodeAddress) -> str:
        return self.site_of(node)[1]

    def site_of(self, node: NodeAddress) -> Tuple[str, str]:
        """``(datacenter, rack)`` of a member node, one tuple per site."""
        if node in self._members:
            return self._sites[node.datacenter, node.rack]
        raise KeyError(node)

    def nodes_in_datacenter(self, dc_name: str) -> List[NodeAddress]:
        return [node for node in self._nodes if node.datacenter == dc_name]

    def nodes_in_rack(self, dc_name: str, rack_name: str) -> List[NodeAddress]:
        return [node for node in self._nodes if node[:2] == (dc_name, rack_name)]

    def racks_in_datacenter(self, dc_name: str) -> List[str]:
        seen: list[str] = []
        for node in self._nodes:
            if node.datacenter == dc_name and node.rack not in seen:
                seen.append(node.rack)
        return seen

    # ------------------------------------------------------------------
    # Latency classes
    # ------------------------------------------------------------------
    def distance_class(self, a: NodeAddress, b: NodeAddress) -> str:
        """One of ``{"loopback", "intra_rack", "inter_rack", "inter_dc"}``."""
        if a == b:
            return "loopback"
        members = self._members
        if a not in members or b not in members:
            raise KeyError(a if a not in members else b)
        if a.datacenter != b.datacenter:
            return "inter_dc"
        return "intra_rack" if a.rack == b.rack else "inter_rack"

    def link_class(self, a: NodeAddress, b: NodeAddress) -> str:
        """Stable name of the latency class governing a node pair.

        The distance class, plus the datacenter pair where it matters:
        ``"inter_dc.<a>|<b>"`` (names sorted).  That is everything the latency
        of a pair depends on: the fabric keys its latency pools and their
        random streams by it, and :meth:`mean_latency` its cache.
        """
        cls = self.distance_class(a, b)
        if cls != "inter_dc":
            return cls
        return self._inter_dc_class[a.datacenter, b.datacenter]

    def latency_model(self, a: NodeAddress, b: NodeAddress) -> LatencyModel:
        """The latency model governing messages from ``a`` to ``b``."""
        cls = self.distance_class(a, b)
        if cls == "loopback":
            return self._loopback
        if cls == "intra_rack":
            return self._intra_rack
        if cls == "inter_rack":
            return self._inter_rack
        link = self._inter_dc_links.get(frozenset((a.datacenter, b.datacenter)))
        if link is not None:
            return link
        if self._inter_dc is None:
            raise ValueError(
                f"nodes {a} and {b} are in different datacenters but no inter-DC "
                "latency model was configured"
            )
        return self._inter_dc

    def mean_latency(self, a: NodeAddress, b: NodeAddress) -> float:
        """Expected one-way latency between two nodes in seconds.

        Cached per pair of sites, read off the two addresses (``None`` for a
        node and itself): the snitch (proximity sorts) asks this for every
        replica of every fresh replica set, and the model means never change.
        """
        key = None if a == b else (a.datacenter, a.rack, b.datacenter, b.rack)
        cached = self._mean_latency_by_sites.get(key)
        if cached is None:
            cached = self._mean_latency_by_sites[key] = self.latency_model(a, b).mean()
        return cached

    def mean_inter_replica_latency(self, replicas: Iterable[NodeAddress]) -> float:
        """Average of mean pairwise latencies across a replica set.

        This is what the monitoring module reports as ``Ln`` when it probes a
        replica group (the paper uses ``ping`` between storage nodes).
        """
        replica_list = list(replicas)
        if len(replica_list) < 2:
            return self._loopback.mean()
        total = 0.0
        pairs = 0
        for i, a in enumerate(replica_list):
            for b in replica_list[i + 1 :]:
                total += self.mean_latency(a, b)
                pairs += 1
        return total / pairs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dcs = ", ".join(f"{dc.name}:{len(dc)}" for dc in self._datacenters)
        return f"Topology({dcs})"


class TopologyBuilder:
    """Fluent builder for common topologies.

    Examples
    --------
    >>> topo = (
    ...     TopologyBuilder()
    ...     .datacenter("dc1")
    ...     .rack("r1", nodes=3)
    ...     .rack("r2", nodes=3)
    ...     .build()
    ... )
    >>> topo.size
    6
    """

    def __init__(self) -> None:
        self._datacenters: List[Datacenter] = []
        self._current_dc: Optional[Datacenter] = None
        self._next_node_id = 0
        self._loopback: Optional[LatencyModel] = None
        self._intra_rack: Optional[LatencyModel] = None
        self._inter_rack: Optional[LatencyModel] = None
        self._inter_dc: Optional[LatencyModel] = None
        self._inter_dc_links: Dict[frozenset, LatencyModel] = {}

    def datacenter(self, name: str) -> "TopologyBuilder":
        """Start a new datacenter; subsequent racks are added to it."""
        dc = Datacenter(name=name)
        self._datacenters.append(dc)
        self._current_dc = dc
        return self

    def rack(self, name: str, nodes: int) -> "TopologyBuilder":
        """Add a rack with ``nodes`` nodes to the current datacenter."""
        if self._current_dc is None:
            raise ValueError("call datacenter() before rack()")
        if nodes <= 0:
            raise ValueError(f"a rack needs at least one node, got {nodes!r}")
        rack = Rack(name=name)
        for _ in range(nodes):
            rack.nodes.append(
                NodeAddress(
                    datacenter=self._current_dc.name, rack=name, node_id=self._next_node_id
                )
            )
            self._next_node_id += 1
        self._current_dc.racks.append(rack)
        return self

    def latencies(
        self,
        *,
        loopback: Optional[LatencyModel] = None,
        intra_rack: Optional[LatencyModel] = None,
        inter_rack: Optional[LatencyModel] = None,
        inter_dc: Optional[LatencyModel] = None,
    ) -> "TopologyBuilder":
        """Configure the latency model of each distance class."""
        if loopback is not None:
            self._loopback = loopback
        if intra_rack is not None:
            self._intra_rack = intra_rack
        if inter_rack is not None:
            self._inter_rack = inter_rack
        if inter_dc is not None:
            self._inter_dc = inter_dc
        return self

    def inter_dc_link(self, dc_a: str, dc_b: str, model: LatencyModel) -> "TopologyBuilder":
        """Set a dedicated latency model for the (unordered) DC pair."""
        if dc_a == dc_b:
            raise ValueError(f"an inter-DC link needs two distinct datacenters, got {dc_a!r}")
        key = frozenset((dc_a, dc_b))
        if key in self._inter_dc_links:
            raise ValueError(f"duplicate inter-DC link for pair {sorted(key)}")
        self._inter_dc_links[key] = model
        return self

    def build(self) -> Topology:
        """Create the immutable :class:`Topology`."""
        return Topology(
            self._datacenters,
            loopback=self._loopback,
            intra_rack=self._intra_rack,
            inter_rack=self._inter_rack,
            inter_dc=self._inter_dc,
            inter_dc_links=self._inter_dc_links or None,
        )


def uniform_topology(
    n_nodes: int,
    *,
    racks_per_dc: int = 2,
    datacenters: int = 1,
    intra_rack: Optional[LatencyModel] = None,
    inter_rack: Optional[LatencyModel] = None,
    inter_dc: Optional[LatencyModel] = None,
) -> Topology:
    """Spread ``n_nodes`` as evenly as possible over DCs and racks.

    Convenience used by the experiment scenarios; nodes that do not divide
    evenly are assigned round-robin so rack sizes differ by at most one.
    """
    if n_nodes <= 0:
        raise ValueError(f"need at least one node, got {n_nodes!r}")
    if racks_per_dc <= 0 or datacenters <= 0:
        raise ValueError("racks_per_dc and datacenters must be positive")
    builder = TopologyBuilder().latencies(
        intra_rack=intra_rack, inter_rack=inter_rack, inter_dc=inter_dc
    )
    # Round-robin assignment of node counts to (dc, rack) slots.  Slots are
    # ordered datacenter-first (dc1.rack1, dc2.rack1, dc1.rack2, ...) so both
    # datacenter sizes and rack sizes stay within one node of each other.
    slots = [(dc, rack) for rack in range(racks_per_dc) for dc in range(datacenters)]
    counts = {slot: 0 for slot in slots}
    for i in range(n_nodes):
        counts[slots[i % len(slots)]] += 1
    for dc_index in range(datacenters):
        builder.datacenter(f"dc{dc_index + 1}")
        for rack_index in range(racks_per_dc):
            count = counts[(dc_index, rack_index)]
            if count > 0:
                builder.rack(f"rack{rack_index + 1}", nodes=count)
    return builder.build()
