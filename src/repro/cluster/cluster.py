"""The ``SimulatedCluster`` facade: wiring nodes, ring, coordinators and network.

This is the object user code and the experiment harness interact with.  It
owns the simulation engine (or shares one passed in), builds the topology,
the token ring, one :class:`~repro.cluster.node.StorageNode` plus one
:class:`~repro.cluster.coordinator.Coordinator` per address, and exposes
client-style ``read`` / ``write`` entry points that dispatch to a coordinator.

The facade also provides the two observation surfaces Harmony and the
evaluation need:

* ``stats`` -- cumulative ``nodetool``-style counters (read/write counts per
  node) that the monitoring module samples to compute arrival rates;
* ``newest_cell(key)`` / ``node(address)`` -- ground-truth inspection used by
  the staleness auditor and the tests (zero simulated cost).
"""

from __future__ import annotations

import itertools
import math
from functools import partial
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.antientropy import AntiEntropyService

from repro.cluster.consistency import ConsistencyLevel
from repro.cluster.coordinator import Coordinator, CoordinatorConfig, OperationResult
from repro.cluster.detector import FailureDetector
from repro.cluster.node import NodeConfig, StorageNode
from repro.cluster.replication import (
    NetworkTopologyStrategy,
    OldNetworkTopologyStrategy,
    ReplicationStrategy,
)
from repro.cluster.ring import TokenRing
from repro.cluster.stats import ClusterStats
from repro.cluster.storage import Cell
from repro.network.fabric import Message, MessageKind, NetworkFabric
from repro.network.latency import LatencyModel
from repro.network.transfers import BandwidthConfig
from repro.network.topology import NodeAddress, Topology, uniform_topology
from repro.sim.engine import SimulationEngine
from repro.sim.rng import RandomStreams

__all__ = [
    "ClusterConfig",
    "SimulatedCluster",
    "NoLiveCoordinator",
    "resolve_topology",
    "resolve_spares",
]

#: Average write payload size in bytes (YCSB's default row is ~1 KB across
#: 10 fields of 100 B).
WRITE_SIZE_BYTES = 1024
#: Virtual nodes per physical node in the token ring.
VNODES = 8


def _discard_result(result: "OperationResult") -> None:
    """Completion sink for fire-and-forget operations (no callback given)."""


def _notify_then(
    observers: List[Callable[["OperationResult"], None]],
    callback: Optional[Callable[["OperationResult"], None]],
    result: "OperationResult",
) -> None:
    """Completion sink of an observed operation: every registered operation
    observer, then the caller's own callback (if any)."""
    for observer in observers:
        observer(result)
    if callback is not None:
        callback(result)


class NoLiveCoordinator(RuntimeError):
    """No reachable coordinator exists for the requested contact points.

    Raised by explicit coordinator selection; the client-facing ``read`` /
    ``write`` entry points catch it and answer with an ``unavailable``
    result instead (a real driver whose contact points are all down errors
    out client-side without any server seeing the request).
    """


def resolve_topology(config: "ClusterConfig") -> Topology:
    """The topology a :class:`SimulatedCluster` built from ``config`` will use.

    Either ``config.topology`` itself or the default uniform topology derived
    from the shape fields.  Exposed as a module function so planners (the
    sharded engine's partitioner) can reason about the layout without paying
    for node/coordinator construction.
    """
    if config.topology is not None:
        return config.topology
    inter_dc = config.inter_dc_latency
    if inter_dc is None and config.datacenters > 1:
        # Multi-DC clusters need an inter-DC latency model; default to a
        # WAN-ish log-normal so a bare ClusterConfig(datacenters=2) works
        # out of the box (explicit models always take precedence).
        from repro.network.latency import LogNormalLatency

        inter_dc = LogNormalLatency(median=0.0005, sigma=0.3, floor=0.0002)
    return uniform_topology(
        config.n_nodes + config.spares_per_dc * config.datacenters,
        racks_per_dc=config.racks_per_dc,
        datacenters=config.datacenters,
        intra_rack=config.intra_rack_latency,
        inter_rack=config.inter_rack_latency,
        inter_dc=inter_dc,
    )


def resolve_spares(config: "ClusterConfig", topology: Topology) -> Tuple[NodeAddress, ...]:
    """The spare (non-ring) addresses a cluster built from ``config`` will have.

    The last ``spares_per_dc`` addresses of every datacenter (in topology
    order) are provisioned but kept out of the initial token ring; membership
    transitions move them in and out.  Deterministic in ``(config, topology)``
    so planners can reason about the initial ring without building a cluster.
    """
    if config.spares_per_dc <= 0:
        return ()
    spares: List[NodeAddress] = []
    for dc in topology.datacenter_names:
        in_dc = topology.nodes_in_datacenter(dc)
        if len(in_dc) <= config.spares_per_dc:
            raise ValueError(
                f"datacenter {dc!r} has {len(in_dc)} nodes, need more than "
                f"spares_per_dc ({config.spares_per_dc}) so at least one ring member remains"
            )
        spares.extend(in_dc[-config.spares_per_dc :])
    return tuple(spares)


@dataclass
class ClusterConfig:
    """Everything needed to build a :class:`SimulatedCluster`.

    Attributes
    ----------
    n_nodes:
        Number of storage nodes (ignored if ``topology`` is given).
    replication_factor:
        Number of replicas per key (the paper uses 5).
    racks_per_dc / datacenters:
        Shape of the default topology when ``topology`` is not supplied.
    topology:
        Explicit topology; overrides the three fields above.
    replication_factors:
        Per-datacenter replication factors (e.g. ``{"dc1": 3, "dc2": 2}``).
        Supplying this selects
        :class:`~repro.cluster.replication.NetworkTopologyStrategy`
        (geo-replication) and overrides ``replication_factor`` with the sum
        of the per-DC factors; without it the cluster uses the paper's
        :class:`~repro.cluster.replication.OldNetworkTopologyStrategy`.
    node:
        Per-node performance envelope.
    coordinator:
        Coordinator path tunables.
    intra_rack_latency / inter_rack_latency / inter_dc_latency:
        Latency models used when building the default topology.
    seed:
        Root random seed.
    fabric_delivery:
        Passed through to :class:`~repro.network.fabric.NetworkFabric`
        (which also validates it here, at construction): ``"coalesced"``
        (independent latency per message) or ``"fifo"`` (in-order per-link
        delivery).
    bandwidth:
        Optional :class:`~repro.network.transfers.BandwidthConfig` turning
        on shared-link WAN bandwidth modeling (large payloads become
        fair-share transfers; foreground serialization sees the residual).
        ``None`` (default) keeps the constant serialization delay.
    """

    n_nodes: int = 6
    replication_factor: int = 3
    racks_per_dc: int = 2
    datacenters: int = 1
    topology: Optional[Topology] = None
    replication_factors: Optional[Dict[str, int]] = None
    node: NodeConfig = field(default_factory=NodeConfig)
    coordinator: CoordinatorConfig = field(default_factory=CoordinatorConfig)
    intra_rack_latency: Optional[LatencyModel] = None
    inter_rack_latency: Optional[LatencyModel] = None
    inter_dc_latency: Optional[LatencyModel] = None
    seed: int = 0
    #: Extra nodes provisioned per datacenter but kept *out* of the initial
    #: token ring: elastic capacity for membership transitions (bootstrap
    #: moves a spare into the ring, decommission moves a member out).  With
    #: the default 0 the cluster is exactly the classic static ring.
    spares_per_dc: int = 0
    fabric_delivery: str = "coalesced"
    bandwidth: Optional["BandwidthConfig"] = None

    def __post_init__(self) -> None:
        if self.replication_factors is not None:
            if not self.replication_factors:
                raise ValueError("replication_factors must not be empty")
            if any(rf < 0 for rf in self.replication_factors.values()):
                raise ValueError("per-DC replication factors must be non-negative")
            self.replication_factor = sum(self.replication_factors.values())
        if self.replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")
        if self.topology is None and self.n_nodes < self.replication_factor:
            raise ValueError(
                f"n_nodes ({self.n_nodes}) must be >= replication_factor "
                f"({self.replication_factor})"
            )
        if self.spares_per_dc < 0:
            raise ValueError("spares_per_dc must be non-negative")
        NetworkFabric.check_delivery(self.fabric_delivery)


class SimulatedCluster:
    """A quorum-replicated key-value store running inside the event engine.

    Parameters
    ----------
    config:
        Cluster configuration.
    engine:
        Optional shared :class:`SimulationEngine`; one is created if omitted.
    streams:
        Optional shared random streams; derived from ``config.seed`` if
        omitted.
    """

    def __init__(
        self,
        config: ClusterConfig,
        engine: Optional[SimulationEngine] = None,
        streams: Optional[RandomStreams] = None,
    ) -> None:
        self.config = config
        self.engine = engine or SimulationEngine()
        self.streams = streams or RandomStreams(seed=config.seed)
        self.topology = resolve_topology(config)
        if self.topology.size < config.replication_factor:
            raise ValueError(
                f"topology has {self.topology.size} nodes, fewer than the replication "
                f"factor {config.replication_factor}"
            )
        self.fabric = NetworkFabric(
            self.engine,
            self.topology,
            self.streams,
            delivery=config.fabric_delivery,
            bandwidth=config.bandwidth,
        )
        #: Spare addresses: provisioned (full node + coordinator wiring,
        #: reachable over the fabric) but outside the token ring until a
        #: bootstrap transition moves them in.
        self.spares: Tuple[NodeAddress, ...] = resolve_spares(config, self.topology)
        self._spare_set = frozenset(self.spares)
        #: Current ring members in deterministic (topology) order.
        self.members: List[NodeAddress] = [
            a for a in self.topology.nodes if a not in self._spare_set
        ]
        if len(self.members) < config.replication_factor:
            raise ValueError(
                f"only {len(self.members)} ring members after reserving spares, fewer "
                f"than the replication factor {config.replication_factor}"
            )
        #: Bumped on every ring membership change (bootstrap cutover,
        #: decommission, abort rollback).  The sharded-PDES runtime checks it
        #: between windows: a mid-window change is a loud error, never silent
        #: corruption.
        self.membership_epoch = 0
        self.ring = TokenRing(self.members, vnodes=VNODES)
        self.strategy: ReplicationStrategy
        if config.replication_factors is not None:
            self.strategy = NetworkTopologyStrategy(config.replication_factors, self.topology)
        else:
            self.strategy = OldNetworkTopologyStrategy(config.replication_factor, self.topology)
        self.stats = ClusterStats()
        #: Shared liveness view consulted by every coordinator before doing
        #: work for a request (see :mod:`repro.cluster.detector`).
        self.failure_detector = FailureDetector()
        self.nodes: Dict[NodeAddress, StorageNode] = {}
        self.coordinators: Dict[NodeAddress, Coordinator] = {}
        self._replica_cache: Dict[str, Tuple[NodeAddress, ...]] = {}
        # One bound method for every coordinator, not one each.
        replicas_for = self.replicas_for
        for address in self.topology.nodes:
            counters = self.stats.register_node(address)
            node = StorageNode(
                engine=self.engine,
                fabric=self.fabric,
                address=address,
                config=config.node,
                streams=self.streams,
                counters=counters,
            )
            coordinator = Coordinator(
                engine=self.engine,
                fabric=self.fabric,
                topology=self.topology,
                address=address,
                replicas_for=replicas_for,
                counters=counters,
                config=config.coordinator,
                streams=self.streams,
                write_size_bytes=WRITE_SIZE_BYTES,
                failure_detector=self.failure_detector,
            )
            self.nodes[address] = node
            self.coordinators[address] = coordinator
            node.set_response_sinks(
                coordinator.on_read_response,
                coordinator.on_write_response,
            )
            self.fabric.register(address, node.handle_message)
        # Round-robin over (node, coordinator) pairs: picking a coordinator
        # costs one cycle step and one attribute check, no dict lookups.
        # Built over ring *members* only -- spares never coordinate client
        # operations until a bootstrap completes.
        self._round_robin_by_dc: Dict[str, tuple] = {}
        self._rebuild_round_robins()
        #: Active membership manager, installed by
        #: :class:`~repro.cluster.membership.MembershipManager` when
        #: transitions are possible (``None`` on a static ring).
        self.membership = None
        self._operation_observers: List[Callable[[OperationResult], None]] = []
        #: The most recently started anti-entropy service (None until
        #: :meth:`start_anti_entropy`); monitors discover it here so repair
        #: traffic shows up in samples without explicit wiring.
        self.anti_entropy: Optional["AntiEntropyService"] = None
        #: The run's op-lifecycle tracer (``None`` unless
        #: :meth:`~repro.obs.tracer.Tracer.attach_cluster` set it).  Hook
        #: sites built on this cluster after the coordinators and the fabric
        #: copy it when they are constructed.
        self.tracer = None

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def _rebuild_round_robins(self) -> None:
        """(Re)build the coordinator round-robins from the current members."""
        self._round_robin = itertools.cycle(
            [(self.nodes[a], self.coordinators[a]) for a in self.members]
        )
        self._round_robin_size = len(self.members)
        self._round_robin_by_dc.clear()

    def members_in(self, datacenter: str) -> List[NodeAddress]:
        """Current ring members of one datacenter (deterministic order)."""
        in_dc = self.topology.nodes_in_datacenter(datacenter)
        if not self._spare_set:
            return in_dc
        member_set = set(self.members)
        return [a for a in in_dc if a in member_set]

    def set_members(self, members: Sequence[NodeAddress]) -> None:
        """Install a new ring membership (the membership cutover hook).

        Rebuilds the token ring from ``members``, bumps
        :attr:`membership_epoch` and invalidates every placement-derived
        cache.  Callers (the membership manager) are responsible for data
        movement -- this only flips what ``replicas_for`` answers.
        """
        members = list(members)
        member_set = set(members)
        for address in members:
            if address not in self.nodes:
                raise ValueError(f"unknown address {address!r} in new membership")
        if len(member_set) != len(members):
            raise ValueError("duplicate address in new membership")
        if len(members) < self.config.replication_factor:
            raise ValueError(
                f"new membership has {len(members)} nodes, fewer than the "
                f"replication factor {self.config.replication_factor}"
            )
        self.members = members
        self._spare_set = frozenset(a for a in self.topology.nodes if a not in member_set)
        self.spares = tuple(a for a in self.topology.nodes if a not in member_set)
        self.ring = TokenRing(members, vnodes=VNODES)
        self.membership_epoch += 1
        self.invalidate_placement()

    def invalidate_placement(self) -> None:
        """Drop every cache derived from ring placement.

        Must run after any membership change: the cluster replica cache and
        the anti-entropy tree caches assume a static ring between
        invalidations.  The coordinators hold nothing per key: their caches
        are keyed by replica sets and counts, which mean the same on any ring.
        """
        self._replica_cache.clear()
        self._rebuild_round_robins()
        if self.anti_entropy is not None:
            self.anti_entropy.invalidate_caches()

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def replicas_for(self, key: str) -> Tuple[NodeAddress, ...]:
        """Replica set of ``key`` (preference order; cached per key).

        The returned tuple is the cache entry itself -- immutable, shared by
        every caller, and hashable so the coordinators can key their
        requirement and read-route caches on it.  Coordinators call
        this once per operation; it is the only per-key cache on the op path.
        """
        cached = self._replica_cache.get(key)
        if cached is None:
            cached = tuple(self.strategy.replicas(self.ring, key))
            self._replica_cache[key] = cached
        return cached

    @property
    def replication_factor(self) -> int:
        return self.config.replication_factor

    @property
    def replication_factors(self) -> Optional[Dict[str, int]]:
        """Per-datacenter replication factors, or ``None`` for non-geo strategies."""
        if isinstance(self.strategy, NetworkTopologyStrategy):
            return self.strategy.replication_factors
        return None

    @property
    def addresses(self) -> List[NodeAddress]:
        """All node addresses in deterministic order."""
        return self.topology.nodes

    @property
    def datacenter_names(self) -> List[str]:
        """Datacenter names in topology order."""
        return self.topology.datacenter_names

    def addresses_in(self, datacenter: str) -> List[NodeAddress]:
        """Node addresses of one datacenter (deterministic order)."""
        return self.topology.nodes_in_datacenter(datacenter)

    def node(self, address: NodeAddress) -> StorageNode:
        return self.nodes[address]

    def coordinator(self, address: NodeAddress) -> Coordinator:
        return self.coordinators[address]

    # ------------------------------------------------------------------
    # Client operations
    # ------------------------------------------------------------------
    def add_operation_observer(self, observer: Callable[[OperationResult], None]) -> None:
        """Register a callback invoked with every completed operation.

        The staleness auditor and the metrics collectors hook in here so that
        client code (the workload executor) does not need to fan results out
        manually.
        """
        self._operation_observers.append(observer)

    def _pick_coordinator(
        self, coordinator: Optional[NodeAddress], datacenter: Optional[str] = None
    ) -> Coordinator:
        if coordinator is not None:
            return self.coordinators[coordinator]
        # Round-robin over *live* nodes, mirroring a client driver with a
        # host list that skips unreachable contact points.  A geo client pins
        # its contact points to one datacenter (a DC-aware load balancing
        # policy), so LOCAL_* levels resolve "local" to the client's site.
        if datacenter is not None:
            pool = self._round_robin_by_dc.get(datacenter)
            if pool is None:
                if not self.topology.nodes_in_datacenter(datacenter):
                    raise ValueError(f"unknown datacenter {datacenter!r}")
                members = self.members_in(datacenter)
                if not members:
                    raise NoLiveCoordinator(
                        f"no ring member available in datacenter {datacenter!r}"
                    )
                pool = (
                    itertools.cycle([(self.nodes[a], self.coordinators[a]) for a in members]),
                    len(members),
                )
                self._round_robin_by_dc[datacenter] = pool
            cycle, pool_size = pool
        else:
            cycle = self._round_robin
            pool_size = self._round_robin_size
        for _ in range(pool_size):
            node, picked = next(cycle)
            if node._up:
                return picked
        raise NoLiveCoordinator(
            "no live coordinator available"
            + (f" in datacenter {datacenter!r}" if datacenter is not None else "")
        )

    def _client_side_unavailable(
        self,
        op_type: str,
        key: str,
        consistency_level: ConsistencyLevel,
        datacenter: Optional[str],
        on_complete: Callable[[OperationResult], None],
    ) -> int:
        """Complete an operation as ``unavailable`` without any coordinator.

        Models a driver whose contact points (one datacenter's nodes, or the
        whole cluster) are all unreachable: the error is immediate and no
        simulated node ever sees the request.
        """
        now = self.engine.now
        result = OperationResult(
            op_type=op_type,
            key=key,
            cell=None,
            consistency_level=consistency_level,
            blocked_for=0,
            started_at=now,
            completed_at=now,
            timed_out=False,
            unavailable=True,
            replicas=(),
            responded=[],
            coordinator=None,
            datacenter=datacenter,
        )
        self.engine.call_at(self.engine.now, on_complete, result)
        return -1

    def write(
        self,
        key: str,
        value: object,
        consistency_level: ConsistencyLevel = ConsistencyLevel.ONE,
        callback: Optional[Callable[[OperationResult], None]] = None,
        *,
        coordinator: Optional[NodeAddress] = None,
        datacenter: Optional[str] = None,
        size_bytes: Optional[int] = None,
        notify_observers: bool = True,
    ) -> int:
        """Issue an asynchronous write through a coordinator.

        The write completes (and ``callback`` fires) once ``CL`` replicas have
        acknowledged; remaining replicas converge in the background.
        ``datacenter`` pins the coordinator to one site (what "local" means
        for the DC-aware levels).  ``notify_observers=False`` skips the
        registered operation observers -- used by measurement probes that
        must not re-trigger themselves.
        """
        # What the coordinator calls back: the caller's own callback, or with
        # observers to notify, _notify_then bound to the live observer list
        # (a C-level partial: no frame to build, one when the op completes).
        observers = self._operation_observers
        if notify_observers and observers:
            on_complete = partial(_notify_then, observers, callback)
        else:
            on_complete = callback if callback is not None else _discard_result
        try:
            picked = self._pick_coordinator(coordinator, datacenter)
        except NoLiveCoordinator:
            return self._client_side_unavailable(
                "write", key, consistency_level, datacenter, on_complete
            )
        return picked.write(
            key,
            value,
            consistency_level,
            on_complete,
            size_bytes=size_bytes,
        )

    def read(
        self,
        key: str,
        consistency_level: ConsistencyLevel = ConsistencyLevel.ONE,
        callback: Optional[Callable[[OperationResult], None]] = None,
        *,
        coordinator: Optional[NodeAddress] = None,
        datacenter: Optional[str] = None,
        notify_observers: bool = True,
    ) -> int:
        """Issue an asynchronous read through a coordinator.

        ``datacenter`` pins the coordinator to one site (see :meth:`write`);
        ``notify_observers=False`` skips the registered operation observers.
        """
        observers = self._operation_observers  # as in write()
        if notify_observers and observers:
            on_complete = partial(_notify_then, observers, callback)
        else:
            on_complete = callback if callback is not None else _discard_result
        try:
            picked = self._pick_coordinator(coordinator, datacenter)
        except NoLiveCoordinator:
            return self._client_side_unavailable(
                "read", key, consistency_level, datacenter, on_complete
            )
        return picked.read(key, consistency_level, on_complete)

    # ------------------------------------------------------------------
    # Synchronous convenience wrappers (drive the engine until completion)
    # ------------------------------------------------------------------
    def write_sync(
        self,
        key: str,
        value: object,
        consistency_level: ConsistencyLevel = ConsistencyLevel.ONE,
        **kwargs,
    ) -> OperationResult:
        """Blocking write: runs the engine until the write completes.

        Only appropriate for examples, tests and interactive use -- the
        workload executor always uses the asynchronous API.
        """
        box: List[OperationResult] = []
        self.write(key, value, consistency_level, box.append, **kwargs)
        self._run_until(lambda: bool(box))
        return box[0]

    def read_sync(
        self, key: str, consistency_level: ConsistencyLevel = ConsistencyLevel.ONE, **kwargs
    ) -> OperationResult:
        """Blocking read: runs the engine until the read completes."""
        box: List[OperationResult] = []
        self.read(key, consistency_level, box.append, **kwargs)
        self._run_until(lambda: bool(box))
        return box[0]

    def _run_until(self, predicate: Callable[[], bool], max_events: int = 1_000_000) -> None:
        executed = 0
        while not predicate():
            if not self.engine.step():
                raise RuntimeError("simulation ran out of events before the operation completed")
            executed += 1
            if executed > max_events:  # pragma: no cover - defensive
                raise RuntimeError("operation did not complete within the event budget")

    def load(
        self, records: Iterable[Tuple[str, object]], size_bytes: int
    ) -> List[OperationResult]:
        """Bulk-load ``(key, value)`` records straight into their replicas.

        Each gets a cell minted by the round-robin coordinator, applied through
        every replica's write-apply path (as ``sstableloader`` streams to the
        owners): no event, message, random draw or observer.  Cells and
        acknowledgements are dated just before now, so a write at the run's
        first instant is strictly newer than the record it replaces and a read
        then is judged against the load."""
        acked_at = math.nextafter(self.engine.now, -math.inf)
        results = []
        for key, value in records:
            coordinator = self._pick_coordinator(None)
            cell = coordinator.mint(key, value, size_bytes, acked_at)
            replicas = self.replicas_for(key)
            for address in replicas:
                self.nodes[address].apply_write(cell)
            results.append(OperationResult(
                "write", key, cell, ConsistencyLevel.ONE, 1, acked_at, acked_at,
                replicas=replicas, coordinator=coordinator.address,
                datacenter=coordinator.datacenter,
            ))
        return results

    def settle(self, extra_time: float = 1.0) -> None:
        """Run the engine until pending background work (propagation, repair,
        hint replay) has drained, advancing at most ``extra_time`` seconds at
        a time until the queue is empty.

        A running periodic service (anti-entropy, a monitoring loop) keeps
        the queue non-empty forever -- stop it before settling."""
        while self.engine.pending_events > 0:
            self.engine.run_until(self.engine.now + extra_time)
            if self.engine.next_event_time() is None:
                break

    # ------------------------------------------------------------------
    # Ground-truth inspection (zero simulated cost)
    # ------------------------------------------------------------------
    def newest_cell(self, key: str) -> Optional[Cell]:
        """Newest cell for ``key`` across every replica, right now."""
        newest: Optional[Cell] = None
        for address in self.replicas_for(key):
            cell = self.nodes[address].peek(key)
            if cell is not None and cell.is_newer_than(newest):
                newest = cell
        return newest

    def replica_cells(self, key: str) -> Dict[NodeAddress, Optional[Cell]]:
        """Per-replica view of ``key`` (for convergence tests and audits)."""
        return {address: self.nodes[address].peek(key) for address in self.replicas_for(key)}

    def is_consistent(self, key: str) -> bool:
        """Whether every replica of ``key`` currently stores the same newest cell."""
        cells = list(self.replica_cells(key).values())
        timestamps = {(c.timestamp, c.value_id) if c is not None else None for c in cells}
        return len(timestamps) <= 1

    # ------------------------------------------------------------------
    # Failure injection helpers
    # ------------------------------------------------------------------
    def take_down(self, address: NodeAddress) -> None:
        """Bring a node offline (its replicas stop applying writes)."""
        self.nodes[address].go_down()
        self.failure_detector.mark_down(address)

    def bring_up(self, address: NodeAddress, *, replay_hints: bool = True) -> int:
        """Bring a node back online, optionally replaying hints.

        Two replay directions, as in Cassandra: hints buffered *for* the
        recovering node are delivered to it, and hints the recovering
        node's own coordinator buffered *while everyone thought it was
        gone* are delivered to their (live, reachable) targets.  Returns
        the total hints replayed in both directions.
        """
        self.nodes[address].come_up()
        self.failure_detector.mark_up(address)
        replayed = 0
        if replay_hints:
            replayed = self._replay_hints_for(address)
            # Outbound: the recovered coordinator drains its own buffer for
            # targets it can reach now; unreachable targets keep their
            # hints for a later recovery.
            own = self.coordinators[address]
            for target in own.hints.targets():
                if self._hint_target_reachable(own, target):
                    replayed += own.replay_hints(target)
        return replayed

    def take_down_datacenter(self, datacenter: str) -> None:
        """Take every node of one site offline at once (a full-DC outage).

        LOCAL_* clients of *other* sites keep serving (their requirements
        never mention this site); EACH_QUORUM and any level whose global
        requirement needs this site's replicas surface ``unavailable``.
        """
        members = self.addresses_in(datacenter)
        if not members:
            raise ValueError(f"unknown datacenter {datacenter!r}")
        for address in members:
            self.take_down(address)

    def bring_up_datacenter(self, datacenter: str, *, replay_hints: bool = True) -> int:
        """Recover a whole site; returns the number of hints replayed to it.

        Hints buffered by coordinators anywhere in the cluster are replayed
        across the WAN (subject to any still-active partitions), which is
        how writes accepted elsewhere during the outage reach the recovered
        replicas without waiting for anti-entropy.
        """
        members = self.addresses_in(datacenter)
        if not members:
            raise ValueError(f"unknown datacenter {datacenter!r}")
        replayed = 0
        for address in members:
            replayed += self.bring_up(address, replay_hints=replay_hints)
        return replayed

    def partition_datacenters(self, dc_a: str, dc_b: str, *, mode: str = "drop") -> None:
        """Sever the WAN between two sites (see the fabric's partition modes)."""
        self.fabric.partition_datacenters(dc_a, dc_b, mode=mode)

    def heal_datacenters(
        self, dc_a: str, dc_b: str, *, replay_hints: bool = True
    ) -> Tuple[int, int]:
        """Heal a WAN partition.

        Returns ``(parked_released, hints_replayed)``.  With
        ``replay_hints=True`` (default) hinted handoff replays across the
        healed link in both directions: every coordinator on either side
        replays its buffered hints for nodes on the other side -- the
        cross-WAN half of Cassandra's hinted handoff.  If another partition
        event still holds the pair severed (fabric refcounting), nothing is
        released or replayed yet.
        """
        released = self.fabric.heal_datacenters(dc_a, dc_b)
        reopened = not self.fabric.is_partitioned(dc_a, dc_b)
        return released, self._replay_hints_into((dc_a, dc_b) if replay_hints and reopened else ())

    def partition_datacenters_oneway(self, src_dc: str, dst_dc: str, *, mode: str = "drop") -> None:
        """Sever one WAN direction (``src_dc -> dst_dc``) while the reverse
        keeps flowing -- an asymmetric (grey) partition."""
        self.fabric.partition_datacenters_oneway(src_dc, dst_dc, mode=mode)

    def heal_datacenters_oneway(
        self, src_dc: str, dst_dc: str, *, replay_hints: bool = True
    ) -> Tuple[int, int]:
        """Heal an asymmetric partition of the ``src_dc -> dst_dc`` direction.

        Returns ``(parked_released, hints_replayed)``.  Only targets in
        ``dst_dc`` regained reachability (the reverse direction was never
        severed), so only their hints are replayed -- and only once no other
        partition still blocks the direction.
        """
        released = self.fabric.heal_datacenters_oneway(src_dc, dst_dc)
        reopened = not self.fabric.is_severed(src_dc, dst_dc)
        return released, self._replay_hints_into((dst_dc,) if replay_hints and reopened else ())

    def _replay_hints_into(self, datacenters: Sequence[str]) -> int:
        """Replay the hints held for every node of ``datacenters``, in order
        (the shared tail of the two heals); returns how many were replayed."""
        return sum(
            self._replay_hints_for(address)
            for datacenter in datacenters
            for address in self.addresses_in(datacenter)
        )

    def set_pair_loss(self, dc_a: str, dc_b: str, probability: float) -> None:
        """Enable (or with 0.0 clear) per-pair WAN packet loss (see the fabric)."""
        self.fabric.set_pair_loss(dc_a, dc_b, probability)

    def set_pair_latency_scale(self, dc_a: str, dc_b: str, scale: float) -> None:
        """Scale (or with 1.0 reset) the pair's WAN latency (see the fabric)."""
        self.fabric.set_pair_latency_scale(dc_a, dc_b, scale)

    def flush_hints(self) -> int:
        """Replay every buffered hint whose target is live and reachable.

        Models Cassandra's periodic hint-delivery sweep.  Crucial after pure
        packet loss: a write whose replica never acked leaves a hint behind
        with no node-recovery or partition-heal event to trigger replay --
        this is the delivery path for those.  Returns hints replayed.
        """
        replayed = 0
        for address in self.topology.nodes:
            replayed += self._replay_hints_for(address)
        return replayed

    def start_anti_entropy(self, config=None) -> "AntiEntropyService":
        """Start the periodic cross-DC Merkle repair process.

        Returns the running :class:`~repro.cluster.antientropy.AntiEntropyService`
        (call ``stop()`` on it before :meth:`settle`).  Requires a multi-DC
        topology -- anti-entropy repairs *between* sites; intra-DC divergence
        is covered by read repair and hinted handoff.
        """
        from repro.cluster.antientropy import AntiEntropyService

        service = AntiEntropyService(self, config)
        service.start()
        self.anti_entropy = service
        return service

    def _hint_target_reachable(self, coordinator: Coordinator, target: NodeAddress) -> bool:
        """Whether a hint replayed now would actually arrive.

        Replaying consumes the hint, so a replay toward a down or
        partitioned target silently destroys it -- better to keep holding
        it for a later recovery.
        """
        if not self.nodes[target].is_up:
            return False
        fabric = self.fabric
        if not fabric.has_partitions:
            return True
        target_dc = self.topology.datacenter_of(target)
        # Directional check: a replay travels coordinator -> target, so an
        # asymmetric partition of that direction alone is enough to lose it.
        return coordinator.datacenter == target_dc or not fabric.is_severed(
            coordinator.datacenter, target_dc
        )

    def _replay_hints_for(self, target: NodeAddress) -> int:
        """Replay buffered hints for ``target`` from every coordinator that
        can currently reach it (down or partitioned coordinators keep
        holding theirs for a later recovery; a down target keeps every
        coordinator holding)."""
        if not self.nodes[target].is_up:
            return 0
        replayed = 0
        for coordinator in self.coordinators.values():
            if not self.nodes[coordinator.address].is_up:
                continue
            if not self._hint_target_reachable(coordinator, target):
                continue
            replayed += coordinator.replay_hints(target)
        return replayed

    def mean_inter_replica_latency(self, key: Optional[str] = None) -> float:
        """Expected one-way latency among the replicas of ``key``.

        With ``key=None`` an average over the whole cluster topology is
        returned.  This is the ``Ln`` that Harmony's monitor feeds into
        ``Tp``.
        """
        if key is not None:
            base = self.topology.mean_inter_replica_latency(self.replicas_for(key))
        else:
            base = self.topology.mean_inter_replica_latency(self.topology.nodes)
        return base * self.fabric.latency_scale

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimulatedCluster(nodes={self.topology.size}, "
            f"rf={self.config.replication_factor}, strategy={type(self.strategy).__name__})"
        )
