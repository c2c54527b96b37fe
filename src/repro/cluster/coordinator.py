"""Coordinator: client-facing read/write paths with per-operation consistency.

Every client operation enters the cluster through a coordinator node (in
Cassandra, the node the client's connection happens to reach).  The
coordinator:

**Write path** -- sends the mutation to *all* replicas of the key, but
acknowledges the client as soon as ``blocked_for(CL)`` replicas have
confirmed.  Replicas outside the blocked-for set keep applying the mutation
asynchronously; the window between the client acknowledgement and the last
replica applying the write is exactly the stale window of the paper's Fig. 2
(``T`` + ``Tp``).  Replicas that do not acknowledge within the write timeout
get a hint (hinted handoff) replayed later.

**Read path** -- sends read requests to ``blocked_for(CL)`` replicas chosen
by proximity (plus, with ``read_repair_chance``, to the remaining replicas),
returns the newest cell among the first ``blocked_for`` responses, and
asynchronously repairs any contacted replica that returned an older cell
(read repair), mirroring the QUORUM flow of the paper's Fig. 1.

**Datacenter-aware levels** -- ``LOCAL_ONE`` and ``LOCAL_QUORUM`` block only
on replicas in the coordinator's own datacenter: writes still go to every
replica (the WAN copies converge asynchronously), but the client is
acknowledged as soon as the local requirement is met, and reads contact only
local replicas (plus the occasional read-repair round that touches every
replica and so doubles as cross-DC anti-entropy).  ``EACH_QUORUM`` holds the
operation until a quorum has answered in *every* datacenter that stores the
key.  The per-DC requirement is resolved per key via
:func:`repro.cluster.consistency.blocked_for_datacenters`.

The coordinator never blocks the simulated world: every operation is a
little state machine driven by response messages and timeout events.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.consistency import ConsistencyLevel, blocked_for_datacenters
from repro.cluster.hints import Hint, HintStore
from repro.cluster.stats import NodeCounters
from repro.cluster.storage import Cell
from repro.network.fabric import MessageKind, NetworkFabric
from repro.network.topology import NodeAddress, Topology
from repro.sim.engine import SimulationEngine
from repro.sim.rng import RandomStreams
from repro.sim.timers import FixedDelayTimer, TimerEntry

__all__ = ["Coordinator", "OperationResult", "CoordinatorConfig"]

#: The read-repair pool every coordinator starts with.  A refill replaces
#: the pool and nothing writes into one, so a single empty array serves
#: every coordinator that has not yet rolled.
_EMPTY_POOL = array("d")


@dataclass(frozen=True)
class CoordinatorConfig:
    """Tunables of the coordinator request paths.

    Attributes
    ----------
    read_repair_chance:
        Probability that a read also contacts the replicas outside the
        blocked-for set so they can be checked and repaired in the
        background (Cassandra's ``read_repair_chance``, 0.1 by default in
        the 1.0.x era).
    write_timeout / read_timeout:
        Seconds after which missing replica acknowledgements are given up
        on; unacknowledged writes turn into hints.
    request_overhead:
        Fixed coordinator-side processing time added to every client
        operation (request parsing, Thrift/RPC overhead).
    """

    read_repair_chance: float = 0.1
    write_timeout: float = 1.0
    read_timeout: float = 1.0
    request_overhead: float = 0.00005

    def __post_init__(self) -> None:
        if not 0.0 <= self.read_repair_chance <= 1.0:
            raise ValueError("read_repair_chance must be in [0, 1]")
        if self.write_timeout <= 0 or self.read_timeout <= 0:
            raise ValueError("timeouts must be positive")
        if self.request_overhead < 0:
            raise ValueError("request_overhead must be non-negative")


@dataclass(slots=True)
class OperationResult:
    """Outcome of one client operation, delivered to the completion callback.

    Attributes
    ----------
    op_type:
        ``"read"`` or ``"write"``.
    key:
        The key operated on.
    cell:
        For reads, the cell returned to the client (``None`` on a miss).
        For writes, the cell that was written.
    consistency_level:
        The level the operation was executed with.
    blocked_for:
        Number of replica acknowledgements the coordinator waited for.
    started_at / completed_at:
        Virtual timestamps; ``latency`` is their difference.
    timed_out:
        True when the operation could not gather enough acknowledgements
        before the timeout (the client still gets a response, flagged).
    unavailable:
        True when the coordinator rejected the operation up front because
        the failure detector showed the consistency level could not be met
        (down replicas, partitioned datacenters) -- Cassandra's
        ``UnavailableException``.  Unavailable operations never touched any
        replica: ``cell`` is ``None`` and no hint is stored.
    replicas:
        The full replica set of the key (preference order).  This is the
        cluster's shared immutable tuple -- do not mutate it.
    responded:
        Replicas that acknowledged before completion.
    coordinator:
        Address of the coordinator that executed the operation (``None`` for
        a request rejected before any coordinator took it).
    datacenter:
        The coordinator's datacenter -- what "local" meant for DC-aware
        levels; used by the geo metrics to bucket results per site.
    """

    op_type: str
    key: str
    cell: Optional[Cell]
    consistency_level: ConsistencyLevel
    blocked_for: int
    started_at: float
    completed_at: float
    timed_out: bool = False
    unavailable: bool = False
    replicas: Sequence[NodeAddress] = ()
    responded: List[NodeAddress] = field(default_factory=list)
    coordinator: Optional[NodeAddress] = None
    datacenter: Optional[str] = None

    @property
    def latency(self) -> float:
        """Client-observed operation latency in seconds."""
        return self.completed_at - self.started_at


class _PendingWrite:
    """Book-keeping for one in-flight write."""

    __slots__ = (
        "request_id",
        "cell",
        "replicas",
        "required",
        "required_by_dc",
        "acks",
        "callback",
        "started_at",
        "completed",
        "timeout_handle",
        "level",
    )

    def __init__(
        self,
        request_id: int,
        cell: Cell,
        replicas: List[NodeAddress],
        required: int,
        level: ConsistencyLevel,
        callback: Callable[[OperationResult], None],
        started_at: float,
        required_by_dc: Optional[Dict[str, int]] = None,
    ) -> None:
        self.request_id = request_id
        self.cell = cell
        self.replicas = replicas
        self.required = required
        self.required_by_dc = required_by_dc
        self.level = level
        self.acks: List[NodeAddress] = []
        self.callback = callback
        self.started_at = started_at
        self.completed = False
        self.timeout_handle: Optional[TimerEntry] = None


class _PendingRead:
    """Book-keeping for one in-flight read."""

    __slots__ = (
        "request_id",
        "key",
        "replicas",
        "contacted",
        "required",
        "required_by_dc",
        "responses",
        "callback",
        "started_at",
        "completed",
        "timeout_handle",
        "level",
        "repairs_outstanding",
    )

    def __init__(
        self,
        request_id: int,
        key: str,
        replicas: List[NodeAddress],
        contacted: List[NodeAddress],
        required: int,
        level: ConsistencyLevel,
        callback: Callable[[OperationResult], None],
        started_at: float,
        required_by_dc: Optional[Dict[str, int]] = None,
    ) -> None:
        self.request_id = request_id
        self.key = key
        self.replicas = replicas
        self.contacted = contacted
        self.required = required
        self.required_by_dc = required_by_dc
        self.level = level
        self.responses: Dict[NodeAddress, Optional[Cell]] = {}
        self.callback = callback
        self.started_at = started_at
        self.completed = False
        self.timeout_handle: Optional[TimerEntry] = None
        self.repairs_outstanding = 0


class Coordinator:
    """Client-facing request coordinator bound to one cluster node.

    A coordinator holds no replica data itself (its node might also be a
    replica, in which case the fabric's loopback latency applies); it only
    orchestrates replica-level requests and merges their responses.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        fabric: NetworkFabric,
        topology: Topology,
        address: NodeAddress,
        replicas_for: Callable[[str], Sequence[NodeAddress]],
        counters: NodeCounters,
        config: Optional[CoordinatorConfig] = None,
        *,
        streams: Optional[RandomStreams] = None,
        write_size_bytes: int = 1024,
        failure_detector=None,
    ) -> None:
        self._engine = engine
        self._fabric = fabric
        self._topology = topology
        self.address = address
        #: The coordinator's own datacenter: what LOCAL_* levels block on.
        self.datacenter = topology.datacenter_of(address)
        self._replicas_for = replicas_for
        self._counters = counters
        self.config = config or CoordinatorConfig()
        # The ``coordinator.<address>.read_repair`` stream is looked up by
        # name at the first read-repair refill; ``None`` means no rolls
        # (only a chance of 1 repairs).
        self._streams = streams
        self._read_repair_pool = _EMPTY_POOL
        self._read_repair_index = 0
        self._write_size_bytes = int(write_size_bytes)
        #: Shared liveness view (see :mod:`repro.faults.detector`).  ``None``
        #: disables the availability precheck entirely (standalone use).
        self._failure_detector = failure_detector
        self._request_ids = itertools.count()
        self._value_ids = itertools.count()
        self._pending_writes: Dict[int, _PendingWrite] = {}
        self._pending_reads: Dict[int, _PendingRead] = {}
        # Reads at level ALL that detected divergent replicas and are waiting
        # for the blocking read repair to finish (paper Fig. 1, left side).
        # Born at the coordinator's first such read: most never start one.
        self._blocking_repairs: Optional[Dict[int, _PendingRead]] = None
        # Hot-path caches, each keyed by exactly what its value depends on,
        # so none can go stale when placement changes (the per-key replica
        # set itself is the cluster's cache, behind ``replicas_for``):
        # * requirement: (level, replica count) for the classic levels, and
        #   (level, replica tuple) for the DC-aware ones, whose per-DC split
        #   depends on where the replicas live;
        # * a read's route: (level, replica tuple) -> (requirement, contacted
        #   replicas), since the snitch order depends on which replicas, seen
        #   from this node.  The requirement rides along (the shared tuple
        #   above) so a read pays one lookup after placement, not two.
        self._requirement_cache: Dict[tuple, Tuple[int, Optional[Dict[str, int]]]] = {}
        self._read_routes: Dict[
            Tuple[ConsistencyLevel, Tuple[NodeAddress, ...]],
            Tuple[Tuple[int, Optional[Dict[str, int]]], Tuple[NodeAddress, ...]],
        ] = {}
        # Shared fixed-delay timer queues (one per distinct delay value)
        # replacing the historical one-engine-event-per-operation timeouts:
        # arming is an append, completion is an O(1) cancel, and dead entries
        # are swept in bulk when the queue's single armed event fires.
        self._timers: Dict[float, FixedDelayTimer] = {}
        self.hints = HintStore()
        #: Optional op-lifecycle tracer (see :mod:`repro.obs.tracer`).
        #: ``None`` by default; every hook below is a single identity check,
        #: so the traced and untraced hot paths schedule identical events.
        self.tracer = None
        # Membership pending-range hooks (see repro.cluster.membership).
        # ``None`` outside transitions, so the static-ring hot path pays one
        # identity check.  The provider maps key -> extra write targets (the
        # joining/new owners); the read guard observes the contacted set so
        # the no-pending-range-reads invariant is checkable at runtime.
        self._pending_provider: Optional[Callable[[str], Tuple[NodeAddress, ...]]] = None
        self._pending_read_guard: Optional[Callable[[str, Sequence[NodeAddress]], None]] = None
        # The coordinator receives replica responses at a dedicated logical
        # address component; responses are routed back via the fabric handler
        # installed by the owning cluster (see SimulatedCluster).

    def set_pending_hooks(
        self,
        provider: Optional[Callable[[str], Tuple[NodeAddress, ...]]],
        read_guard: Optional[Callable[[str, Sequence[NodeAddress]], None]] = None,
    ) -> None:
        """Install (or with ``None`` remove) the membership pending hooks.

        While a pending-range provider is installed, writes fan out to the
        pending targets *in addition to* the natural replicas and the
        blocked-for requirement grows by the pending count (Cassandra's
        pending-endpoint rule): a quorum of the post-cutover replica set is
        then guaranteed to intersect the writers of every acknowledged
        write.  Reads are never routed to pending targets; the read guard
        only observes the contacted set for invariant checking.
        """
        self._pending_provider = provider
        self._pending_read_guard = read_guard

    def _after(self, delay: float, fn, arg):
        """Schedule ``fn(arg)`` on the shared timer queue for ``delay``."""
        timer = self._timers.get(delay)
        if timer is None:
            timer = self._timers[delay] = FixedDelayTimer(self._engine, delay)
        return timer.schedule(fn, arg)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def write(
        self,
        key: str,
        value: object,
        consistency_level: ConsistencyLevel,
        callback: Callable[[OperationResult], None],
        *,
        size_bytes: Optional[int] = None,
    ) -> int:
        """Issue a write; ``callback`` receives the :class:`OperationResult`.

        Returns the request id (useful for tracing in tests).
        """
        replicas = self._replicas_for(key)
        if type(replicas) is not tuple:  # user-supplied replicas_for callables
            replicas = tuple(replicas)
        required, required_by_dc = self._requirement(consistency_level, replicas)
        pending_provider = self._pending_provider
        if pending_provider is not None:
            extra = pending_provider(key)
            if extra:
                # Pending-range write: fan out to the future owners as well
                # and raise the requirement by the pending count, so enough
                # *natural* acknowledgements remain even if every pending
                # target answered (quorum-intersection safety across both
                # an abort and a cutover).  Cached requirements stay
                # pending-free: the adjustment is applied per write and
                # vanishes with the provider.
                replicas = replicas + extra
                if required_by_dc is None:
                    required = required + len(extra)
                else:
                    # DC-aware level: bump only the buckets the level blocks
                    # on (a pending target in a DC outside the requirement
                    # still receives the write, it just cannot count).
                    required_by_dc = dict(required_by_dc)
                    for target in extra:
                        dc = self._topology.datacenter_of(target)
                        if dc in required_by_dc:
                            required_by_dc[dc] += 1
                    required = sum(required_by_dc.values())
        if not self._is_achievable(replicas, required, required_by_dc):
            return self._reject_unavailable(
                "write", key, consistency_level, required, replicas, callback
            )
        request_id = next(self._request_ids)
        cell = self.mint(key, value, size_bytes, self._engine.now)
        pending = _PendingWrite(
            request_id=request_id,
            cell=cell,
            replicas=replicas,
            required=required,
            required_by_dc=required_by_dc,
            level=consistency_level,
            callback=callback,
            started_at=self._engine.now,
        )
        self._pending_writes[request_id] = pending
        payload = (request_id, cell)
        fabric_send = self._fabric.send
        address = self.address
        size = cell.size_bytes
        for replica in replicas:
            fabric_send(
                address,
                replica,
                MessageKind.WRITE_REQUEST,
                payload,
                size_bytes=size,
            )
        if self.tracer is not None:
            self.tracer.op_fanout(
                "write", request_id, key, consistency_level, address, len(replicas)
            )
        pending.timeout_handle = self._after(
            self.config.write_timeout, self._write_timed_out, request_id
        )
        return request_id

    def mint(
        self, key: str, value: object, size_bytes: Optional[int], timestamp: float
    ) -> Cell:
        """A new version of ``key`` dated ``timestamp``, its value id from this
        coordinator's counter, counted as one coordinated write: the cell
        :meth:`write` sends and :meth:`SimulatedCluster.load` stores."""
        self._counters.coordinator_writes += 1
        if size_bytes is None:
            size_bytes = self._write_size_bytes
        return Cell(timestamp, next(self._value_ids), key, value, size_bytes)

    def read(
        self,
        key: str,
        consistency_level: ConsistencyLevel,
        callback: Callable[[OperationResult], None],
    ) -> int:
        """Issue a read; ``callback`` receives the :class:`OperationResult`."""
        replicas = self._replicas_for(key)
        if type(replicas) is not tuple:  # user-supplied replicas_for callables
            replicas = tuple(replicas)
        route = self._read_routes.get((consistency_level, replicas))
        if route is None:
            route = self._read_route(consistency_level, replicas)
        (required, required_by_dc), contacted = route
        if not self._is_achievable(replicas, required, required_by_dc):
            return self._reject_unavailable(
                "read", key, consistency_level, required, replicas, callback
            )
        request_id = next(self._request_ids)
        # Global read repair: occasionally contact every replica so the
        # background repair can fix stale ones even under CL=ONE (for LOCAL_*
        # levels this round is also the cross-DC anti-entropy path).  The
        # full order is sorted when rolled: a tenth of reads at the default
        # chance, not worth a cache entry per replica set.
        if len(contacted) < len(replicas) and self._read_repair_roll():
            contacted = self._order_by_proximity(replicas)
        read_guard = self._pending_read_guard
        if read_guard is not None:
            # Membership invariant probe: reads must route by the *current*
            # placement only, never to a pending (still-streaming) target.
            read_guard(key, contacted)
        pending = _PendingRead(
            request_id=request_id,
            key=key,
            replicas=replicas,
            contacted=contacted,
            required=required,
            required_by_dc=required_by_dc,
            level=consistency_level,
            callback=callback,
            started_at=self._engine.now,
        )
        self._pending_reads[request_id] = pending
        self._counters.coordinator_reads += 1
        # As in Cassandra, the closest replica receives the full data request
        # and the remaining contacted replicas receive cheaper digest requests
        # (enough to detect staleness and trigger read repair).  Two shared
        # payload tuples cover the whole fan-out.
        data_payload = (request_id, key, False)
        digest_payload = (request_id, key, True)
        fabric_send = self._fabric.send
        address = self.address
        payload = data_payload
        for replica in contacted:
            fabric_send(address, replica, MessageKind.READ_REQUEST, payload, size_bytes=64)
            payload = digest_payload
        if self.tracer is not None:
            self.tracer.op_fanout(
                "read", request_id, key, consistency_level, address, len(contacted)
            )
        pending.timeout_handle = self._after(
            self.config.read_timeout, self._read_timed_out, request_id
        )
        return request_id

    # ------------------------------------------------------------------
    # Response handling (wired up by SimulatedCluster)
    # ------------------------------------------------------------------
    def handle_write_response_payload(self, payload: Tuple) -> None:
        """A WRITE_RESPONSE payload: ``(request_id, replica, is_repair)``."""
        request_id = payload[0]
        if payload[2] and self._blocking_repairs and request_id in self._blocking_repairs:
            self._on_blocking_repair_ack(request_id)
        else:
            self._on_write_ack(request_id, payload[1])

    def handle_read_response_payload(self, payload: Tuple) -> None:
        """A READ_RESPONSE payload: ``(request_id, replica, cell)``."""
        self._on_read_response(payload[0], payload[1], payload[2])

    # ------------------------------------------------------------------
    # Write-path internals
    # ------------------------------------------------------------------
    def _on_write_ack(self, request_id: int, replica: NodeAddress) -> None:
        pending = self._pending_writes.get(request_id)
        if pending is None:
            return
        acks = pending.acks
        if replica not in acks:
            acks.append(replica)
        if pending.completed:
            # Late acks after completion just mean the replica converged;
            # clean up once everyone answered (including the hint-cleanup
            # timer, which otherwise fires as a dead event).
            if len(acks) == len(pending.replicas):
                if pending.timeout_handle is not None:
                    pending.timeout_handle.cancel()
                self._pending_writes.pop(request_id, None)
            return
        # Inlined _satisfied fast path for the count-based levels.
        if pending.required_by_dc is None:
            if len(acks) >= pending.required:
                self._complete_write(pending, timed_out=False)
        elif self._satisfied(acks, pending.required, pending.required_by_dc):
            self._complete_write(pending, timed_out=False)

    def _complete_write(self, pending: _PendingWrite, *, timed_out: bool) -> None:
        pending.completed = True
        if pending.timeout_handle is not None:
            pending.timeout_handle.cancel()
        # Keep tracking late acks only if some replicas have not answered yet.
        if len(pending.acks) == len(pending.replicas):
            self._pending_writes.pop(pending.request_id, None)
        else:
            # Re-arm a cleanup timeout: replicas that never answer get hints.
            pending.timeout_handle = self._after(
                self.config.write_timeout, self._hint_missing_replicas, pending.request_id
            )
        result = OperationResult(
            op_type="write",
            key=pending.cell.key,
            cell=pending.cell,
            consistency_level=pending.level,
            blocked_for=pending.required,
            started_at=pending.started_at,
            completed_at=self._engine.now + self.config.request_overhead,
            timed_out=timed_out,
            replicas=pending.replicas,
            responded=list(pending.acks),
            coordinator=self.address,
            datacenter=self.datacenter,
        )
        if self.tracer is not None:
            self.tracer.op_complete(result, pending.request_id)
        pending.callback(result)

    def _write_timed_out(self, request_id: int) -> None:
        pending = self._pending_writes.get(request_id)
        if pending is None or pending.completed:
            return
        # Could not gather enough acks in time: answer the client with the
        # timeout flag (Cassandra would raise TimedOutException) and hint the
        # replicas that never answered.
        self._complete_write(pending, timed_out=True)
        self._hint_missing_replicas(request_id)

    def _hint_missing_replicas(self, request_id: int) -> None:
        pending = self._pending_writes.pop(request_id, None)
        if pending is None:
            return
        stored = 0
        for replica in pending.replicas:
            if replica not in pending.acks:
                self.hints.add(
                    Hint(target=replica, cell=pending.cell, created_at=self._engine.now)
                )
                self._counters.hints_stored += 1
                stored += 1
        if stored and self.tracer is not None:
            self.tracer.hints_stored(self.address, stored)

    def replay_hints(self, target: NodeAddress) -> int:
        """Replay buffered hints for ``target`` (called when it comes back up)."""

        def deliver(hint: Hint) -> None:
            self._fabric.send(
                self.address,
                hint.target,
                MessageKind.HINT_REPLAY,
                hint.cell,
                size_bytes=hint.cell.size_bytes,
            )
            self._counters.hints_replayed += 1

        replayed = self.hints.replay(target, deliver)
        if replayed and self.tracer is not None:
            self.tracer.hint_replay(self.address, target, replayed)
        return replayed

    # ------------------------------------------------------------------
    # Read-path internals
    # ------------------------------------------------------------------
    def _on_read_response(
        self, request_id: int, replica: NodeAddress, cell: Optional[Cell]
    ) -> None:
        pending = self._pending_reads.get(request_id)
        if pending is None:
            return
        responses = pending.responses
        responses[replica] = cell
        if pending.completed:
            # A straggler response arriving after completion: use it for read
            # repair, then clean up once everyone contacted has answered.
            self._maybe_read_repair(pending, self._newest_response(pending))
            if len(pending.responses) == len(pending.contacted):
                if pending.timeout_handle is not None:
                    pending.timeout_handle.cancel()
                self._pending_reads.pop(request_id, None)
            return
        if pending.repairs_outstanding > 0:
            # Already waiting on a blocking repair triggered earlier.
            return
        if (
            len(responses) >= pending.required
            if pending.required_by_dc is None
            else self._satisfied(responses, pending.required, pending.required_by_dc)
        ):
            # Level ALL demands that the replicas agree before the client is
            # answered: if they diverge, repair the stale ones first and only
            # then complete (paper Fig. 1, strong-consistency flow).
            if pending.level is ConsistencyLevel.ALL and not self._responses_consistent(pending):
                self._start_blocking_repair(pending)
                return
            self._complete_read(pending, timed_out=False)

    def _newest_response(self, pending: _PendingRead) -> Optional[Cell]:
        newest: Optional[Cell] = None
        for cell in pending.responses.values():
            if cell is not None and cell.is_newer_than(newest):
                newest = cell
        return newest

    def _complete_read(self, pending: _PendingRead, *, timed_out: bool) -> None:
        pending.completed = True
        if pending.timeout_handle is not None:
            pending.timeout_handle.cancel()
        # Computed once and threaded through the repair helpers (historically
        # each helper re-scanned the responses).
        newest = self._newest_response(pending)
        result = OperationResult(
            op_type="read",
            key=pending.key,
            cell=newest,
            consistency_level=pending.level,
            blocked_for=pending.required,
            started_at=pending.started_at,
            completed_at=self._engine.now + self.config.request_overhead,
            timed_out=timed_out,
            replicas=pending.replicas,
            responded=list(pending.responses),
            coordinator=self.address,
            datacenter=self.datacenter,
        )
        if self.tracer is not None:
            self.tracer.op_complete(result, pending.request_id)
        self._maybe_read_repair(pending, newest)
        if len(pending.responses) == len(pending.contacted):
            self._pending_reads.pop(pending.request_id, None)
        else:
            # Mirror the write path's cleanup: contacted replicas that never
            # answer (down node, dropped message) must not pin the pending
            # read forever -- evict after one more timeout window, giving
            # stragglers a grace period to trigger read repair.
            pending.timeout_handle = self._after(
                self.config.read_timeout, self._evict_read, pending.request_id
            )
        pending.callback(result)

    def _evict_read(self, request_id: int) -> None:
        self._pending_reads.pop(request_id, None)

    def _read_timed_out(self, request_id: int) -> None:
        pending = self._pending_reads.get(request_id)
        if pending is None or pending.completed:
            return
        if self._blocking_repairs:
            self._blocking_repairs.pop(request_id, None)
        # _complete_read either pops the entry (everyone answered) or arms
        # the eviction grace timer; popping here as well would defeat that
        # window and drop straggler responses that should trigger read
        # repair.
        self._complete_read(pending, timed_out=True)

    def _responses_consistent(self, pending: _PendingRead) -> bool:
        """Whether every response received so far reports the same newest cell."""
        newest = self._newest_response(pending)
        if newest is None:
            return True
        for cell in pending.responses.values():
            if cell is None or newest.is_newer_than(cell):
                return False
        return True

    def _stale_responders(
        self, pending: _PendingRead, newest: Optional[Cell]
    ) -> List[NodeAddress]:
        """Contacted replicas whose response is older than ``newest``."""
        if newest is None:
            return []
        return [
            replica
            for replica, cell in pending.responses.items()
            if cell is None or newest.is_newer_than(cell)
        ]

    def _start_blocking_repair(self, pending: _PendingRead) -> None:
        """Repair divergent replicas and answer the client only once they ack."""
        newest = self._newest_response(pending)
        stale = self._stale_responders(pending, newest)
        if newest is None or not stale:
            self._complete_read(pending, timed_out=False)
            return
        pending.repairs_outstanding = len(stale)
        if self._blocking_repairs is None:
            self._blocking_repairs = {}
        self._blocking_repairs[pending.request_id] = pending
        for replica in stale:
            self._counters.read_repairs += 1
            self._fabric.send(
                self.address,
                replica,
                MessageKind.REPAIR_WRITE,
                (pending.request_id, newest),
                size_bytes=newest.size_bytes,
            )

    def _on_blocking_repair_ack(self, request_id: int) -> None:
        pending = self._blocking_repairs.get(request_id)
        if pending is None:
            return
        pending.repairs_outstanding -= 1
        if pending.repairs_outstanding <= 0:
            self._blocking_repairs.pop(request_id, None)
            if not pending.completed:
                self._complete_read(pending, timed_out=False)

    def _maybe_read_repair(self, pending: _PendingRead, newest: Optional[Cell]) -> None:
        """Send the newest observed cell to contacted replicas that are behind."""
        if newest is None:
            return
        for replica in self._stale_responders(pending, newest):
            self._fabric.send(
                self.address,
                replica,
                MessageKind.REPAIR_WRITE,
                (pending.request_id, newest),
                size_bytes=newest.size_bytes,
            )

    # ------------------------------------------------------------------
    # Availability (fail fast, Cassandra UnavailableException semantics)
    # ------------------------------------------------------------------
    def _is_achievable(
        self,
        replicas: Sequence[NodeAddress],
        required: int,
        required_by_dc: Optional[Dict[str, int]],
    ) -> bool:
        """Whether enough replicas are reachable to ever meet the requirement.

        A replica is reachable when the failure detector reports it up *and*
        no fabric partition severs the coordinator's datacenter from the
        replica's.  The whole check is skipped (returns True) while the
        cluster is healthy, so the hot path pays one boolean test.  Note the
        real-Cassandra asymmetry this reproduces: a request is rejected only
        when the requirement is *provably* unmeetable at issue time; a
        replica that dies mid-flight still surfaces as a timeout.
        """
        detector = self._failure_detector
        if detector is None:
            return True
        fabric = self._fabric
        partitioned = fabric.has_partitions
        if not detector.any_down and not partitioned:
            return True
        topology = self._topology
        local_dc = self.datacenter
        if required_by_dc is None:
            reachable = 0
            for replica in replicas:
                if not detector.is_up(replica):
                    continue
                if partitioned:
                    dc = topology.datacenter_of(replica)
                    if dc != local_dc and fabric.is_partitioned(local_dc, dc):
                        continue
                reachable += 1
                if reachable >= required:
                    return True
            return False
        for dc, need in required_by_dc.items():
            if need <= 0:
                continue
            if partitioned and dc != local_dc and fabric.is_partitioned(local_dc, dc):
                return False
            have = 0
            for replica in replicas:
                if topology.datacenter_of(replica) == dc and detector.is_up(replica):
                    have += 1
                    if have >= need:
                        break
            if have < need:
                return False
        return True

    def _reject_unavailable(
        self,
        op_type: str,
        key: str,
        level: ConsistencyLevel,
        required: int,
        replicas: Sequence[NodeAddress],
        callback: Callable[[OperationResult], None],
    ) -> int:
        """Answer the client immediately with an ``unavailable`` result.

        No replica is contacted and no hint is stored -- the mutation (if
        any) never happened anywhere, which is what lets the staleness
        auditor ignore unavailable operations entirely.
        """
        now = self._engine.now
        self._counters.unavailable_rejections += 1
        result = OperationResult(
            op_type=op_type,
            key=key,
            cell=None,
            consistency_level=level,
            blocked_for=required,
            started_at=now,
            completed_at=now + self.config.request_overhead,
            timed_out=False,
            unavailable=True,
            replicas=replicas,
            responded=[],
            coordinator=self.address,
            datacenter=self.datacenter,
        )
        if self.tracer is not None:
            self.tracer.op_complete(result)
        # Delivered through the event loop so callbacks never run re-entrantly
        # inside the caller's stack frame (same rule as every other response).
        self._engine.call_at(self._engine.now, callback, result)
        return next(self._request_ids)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _requirement(
        self, level: ConsistencyLevel, replicas: Tuple[NodeAddress, ...]
    ) -> tuple[int, Optional[Dict[str, int]]]:
        """Resolve a level against a replica set.

        Returns ``(total, per_dc)`` where ``per_dc`` is ``None`` for the
        classic count-based levels and a datacenter -> count map for the
        DC-aware ones (``total`` is then the sum over datacenters).  It is
        cached by what it depends on: the replica count for the classic
        levels, the replica set (through its datacenters) for the DC-aware
        ones.  Callers must treat the returned per-DC map as read-only.
        """
        # The count key first: it is all a classic level needs, and a
        # DC-aware level, never stored under it, pays one cheap miss there
        # instead of every level paying the ``is_datacenter_aware`` lookup.
        cached = self._requirement_cache.get((level, len(replicas)))
        if cached is not None:
            return cached
        if not level.is_datacenter_aware:
            key: tuple = (level, len(replicas))
            resolved: Tuple[int, Optional[Dict[str, int]]] = (
                level.blocked_for(len(replicas)),
                None,
            )
        else:
            key = (level, replicas)
            cached = self._requirement_cache.get(key)
            if cached is not None:
                return cached
            counts: Dict[str, int] = {}
            for replica in replicas:
                dc = self._topology.datacenter_of(replica)
                counts[dc] = counts.get(dc, 0) + 1
            by_dc = blocked_for_datacenters(level, counts, self.datacenter)
            resolved = (sum(by_dc.values()), by_dc)
        self._requirement_cache[key] = resolved
        return resolved

    def _satisfied(
        self,
        responded,
        required: int,
        required_by_dc: Optional[Dict[str, int]],
    ) -> bool:
        """Whether the gathered acknowledgements meet the level's requirement.

        ``responded`` is any sized iterable of node addresses (the read path
        passes its responses dict directly; iterating a dict yields keys).
        """
        if required_by_dc is None:
            return len(responded) >= required
        for dc, need in required_by_dc.items():
            have = sum(1 for node in responded if self._topology.datacenter_of(node) == dc)
            if have < need:
                return False
        return True

    def _read_route(
        self, level: ConsistencyLevel, replicas: Tuple[NodeAddress, ...]
    ) -> tuple:
        """A read's requirement and the replicas it contacts, closest first;
        cached per (level, replica set).  A level no read may use is refused
        here, so it is never cached and the hot path need not test for it."""
        if level.is_write_only:
            raise ValueError("consistency level ANY cannot be used for reads")
        requirement = self._requirement(level, replicas)
        required, required_by_dc = requirement
        if required_by_dc is None:
            contacted = self._order_by_proximity(replicas)[:required]
        else:
            # DC-aware level: contact exactly the required count in every
            # datacenter with a requirement (LOCAL_* touch only the local
            # DC).  The union is re-sorted by proximity so the closest
            # contacted replica receives the full data request and the rest
            # get digests, as in the classic path.
            union: List[NodeAddress] = []
            for dc, need in required_by_dc.items():
                in_dc = [r for r in replicas if self._topology.datacenter_of(r) == dc]
                in_dc.sort(key=lambda r: self._topology.mean_latency(self.address, r))
                union.extend(in_dc[:need])
            contacted = self._order_by_proximity(union)
        route = self._read_routes[(level, replicas)] = (requirement, contacted)
        return route

    def _order_by_proximity(self, replicas: Sequence[NodeAddress]) -> Tuple[NodeAddress, ...]:
        """Replicas sorted by expected latency from this coordinator (snitch:
        latency model *means*, not samples; the sort is stable, so ties keep
        the order given)."""
        return tuple(
            sorted(replicas, key=lambda r: self._topology.mean_latency(self.address, r))
        )

    _READ_REPAIR_POOL_SIZE = 512

    def _read_repair_roll(self) -> bool:
        if self.config.read_repair_chance <= 0.0:
            return False
        if self.config.read_repair_chance >= 1.0:
            return True
        if self._streams is None:
            return False
        # The coordinator's read-repair stream is consumed only here, so
        # pre-drawing a block yields the exact same uniform sequence as
        # per-read scalar draws (NumPy fills doubles sequentially from the
        # bit stream) at a fraction of the per-roll cost.  Blocks double from
        # 16 up to the cap, so a coordinator that rolls a few times holds few,
        # and hold C doubles (8 bytes a draw, not a boxed float each).
        index = self._read_repair_index
        pool = self._read_repair_pool
        if index >= len(pool):
            size = min(2 * len(pool) or 16, self._READ_REPAIR_POOL_SIZE)
            rng = self._streams.stream(f"coordinator.{self.address}.read_repair")
            pool = array("d", rng.random(size=size).tobytes())
            self._read_repair_pool = pool
            index = 0
        self._read_repair_index = index + 1
        return pool[index] < self.config.read_repair_chance

    @property
    def in_flight(self) -> int:
        """Number of operations currently awaiting replica responses."""
        return len(self._pending_reads) + len(self._pending_writes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Coordinator({self.address}, in_flight={self.in_flight})"
