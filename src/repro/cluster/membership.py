"""Elastic membership: fault-safe bootstrap and decommission transitions.

The paper studies consistency/staleness on a *static* ring, but the target
deployments grow and shrink.  The dangerous moments are the transitions: a
read served from a half-streamed range is a silent consistency violation.
This module reproduces the Cassandra 1.0-era operational contract:

**Bootstrap** (spare joins the ring)
    1. *Pending registration* -- from the instant the join starts, every
       coordinator counts the joining node as an extra **write** target for
       the keys it will own (``blocked_for`` += number of pending targets),
       while **reads** keep using the old placement only.  This is
       Cassandra's pending-range rule: the joiner absorbs new writes before
       it ever serves a read.
    2. *Range streaming* -- the keys the joiner will own are streamed from
       the old owners as ``range_stream`` bulk messages over the fabric
       (``background`` transfer group under bandwidth modeling).  A crash of
       the streaming source falls back to another live replica; a partition
       pauses (never corrupts) the transfer; chunks are idempotent
       newest-wins cells, so watchdog resends are safe.
    3. *Cutover* -- only when a catch-up pass finds **zero** keys on which
       the joiner is behind the live old owners *and* the pending window has
       been open for at least the write timeout does the ring flip
       (:meth:`SimulatedCluster.set_members`).  The window requirement
       closes the in-flight race: any write acknowledged at quorum either
       finished before the clean pass (so the pass verified the joiner has
       it) or was fanned out while the joiner was already a pending target
       (so the joiner received it directly, or holds a hint).

**Decommission** (member leaves the ring)
    The same machinery with the roles flipped: the *new* owners of the
    leaving node's ranges are the pending write targets, data streams from
    the current owners (including the leaving node itself) to them, and at
    cutover the leaving node drains its buffered hints toward reachable
    targets and steps out of the ring -- without dropping a single
    acknowledged write.  The node stays up as a spare (it can re-join
    later), so hints still held for or by it are never destroyed.

**Abort** rolls a transition back cleanly: pending registrations are
dropped and streaming stops.  Nothing needs wiping -- cells already
streamed to a spare are genuine replica copies that no read will ever
consult (reads go strictly by ring placement).

Every decision in this module is a deterministic function of engine time
and cluster state: no random stream is consumed, so enabling membership
leaves the rest of a trace byte-identical until placement actually changes.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Sequence, Tuple

from repro.cluster.coordinator import WRITE_TIMEOUT
from repro.cluster.ring import TokenRing
from repro.network.fabric import MessageKind
from repro.network.topology import NodeAddress
from repro.sim.background import PeriodicProcess

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.cluster import SimulatedCluster
    from repro.cluster.storage import Cell

__all__ = ["MembershipManager", "Transition"]


#: Seconds between progress ticks (streaming pump, catch-up passes,
#: watchdog resends).
TICK_INTERVAL = 0.25
#: Maximum cells per ``range_stream`` message.
CHUNK_CELLS = 64
#: Seconds after which an unacknowledged chunk is resent (from a possibly
#: different source -- this is the source-crash failover).
CHUNK_TIMEOUT = 2.0
#: Consecutive empty catch-up passes required before cutover.
CLEAN_PASSES_REQUIRED = 1


class Transition:
    """One in-flight membership change (bootstrap or decommission)."""

    __slots__ = (
        "kind",
        "node",
        "started_at",
        "state",
        "queue",
        "outstanding",
        "clean_passes",
        "streamed_cells",
        "streamed_bytes",
        "backlog_bytes",
        "paused",
        "completed_at",
    )

    def __init__(self, kind: str, node: NodeAddress, started_at: float) -> None:
        self.kind = kind  # "bootstrap" | "decommission"
        self.node = node
        self.started_at = started_at
        #: "catchup" -> ("done" | "aborted")
        self.state = "catchup"
        #: Work items still to stream this pass: (key, target) pairs.
        self.queue: Deque[Tuple[str, NodeAddress]] = deque()
        #: In-flight chunk: (items, source, target, sent_at) or None.
        self.outstanding: Optional[Tuple[list, NodeAddress, NodeAddress, float]] = None
        self.clean_passes = 0
        self.streamed_cells = 0
        self.streamed_bytes = 0
        #: Bytes remaining in the current pass (gauge for the obs layer).
        self.backlog_bytes = 0
        #: True while a partition / down target blocks progress.
        self.paused = False
        self.completed_at: Optional[float] = None

    @property
    def active(self) -> bool:
        return self.state == "catchup"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Transition({self.kind}, {self.node}, state={self.state}, "
            f"queued={len(self.queue)})"
        )


class MembershipManager:
    """Drives bootstrap/decommission transitions on a :class:`SimulatedCluster`.

    Install once per cluster (``MembershipManager(cluster)`` registers itself
    as ``cluster.membership``); start/stop controls the periodic progress
    process.  All public entry points are safe to call from engine callbacks.
    """

    def __init__(self, cluster: "SimulatedCluster"):
        self.cluster = cluster
        #: Active transitions by node (insertion order = start order).
        self._transitions: Dict[NodeAddress, Transition] = {}
        #: Finished transitions (done or aborted), for tests and reports.
        self.history: List[Transition] = []
        #: Reads observed contacting a pending target (must stay 0; the
        #: chaos ``no_pending_range_reads`` invariant asserts on it).
        self.pending_read_violations = 0
        self._target_ring: Optional[TokenRing] = None
        self._pending_cache: Dict[str, Tuple[NodeAddress, ...]] = {}
        self._process: Optional[PeriodicProcess] = None
        #: The cluster's op-lifecycle tracer (see :mod:`repro.obs.tracer`).
        self.tracer = cluster.tracer
        cluster.membership = self

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the periodic progress process (idempotent)."""
        if self._process is not None and self._process.running:
            return
        self._process = PeriodicProcess(
            self.cluster.engine,
            TICK_INTERVAL,
            self._tick,
            name="membership",
        )

    def stop(self) -> None:
        """Stop ticking (active transitions freeze until restarted)."""
        if self._process is not None:
            self._process.stop()
            self._process = None

    @property
    def running(self) -> bool:
        return self._process is not None and self._process.running

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def begin_bootstrap(self, node: NodeAddress) -> Transition:
        """Start joining a spare into the ring.

        The node immediately becomes a pending write target for the ranges
        it will own; cutover happens asynchronously once it has caught up.
        """
        cluster = self.cluster
        if node in self._transitions:
            raise ValueError(f"{node} already has an active transition")
        if node not in cluster.nodes:
            raise ValueError(f"unknown node {node}")
        if node in cluster.members:
            raise ValueError(f"{node} is already a ring member")
        transition = Transition("bootstrap", node, cluster.engine.now)
        self._admit(transition)
        return transition

    def begin_decommission(self, node: NodeAddress) -> Transition:
        """Start removing a member from the ring.

        The new owners of its ranges become pending write targets; the node
        leaves only when they have caught up, and drains its hints on the
        way out.
        """
        cluster = self.cluster
        if node in self._transitions:
            raise ValueError(f"{node} already has an active transition")
        if node not in cluster.members:
            raise ValueError(f"{node} is not a ring member")
        leaving = 1 + sum(
            1 for t in self._transitions.values() if t.kind == "decommission"
        )
        joining = sum(1 for t in self._transitions.values() if t.kind == "bootstrap")
        if len(cluster.members) - leaving + joining < cluster.config.replication_factor:
            raise ValueError(
                "decommission would shrink the ring below the replication factor"
            )
        transition = Transition("decommission", node, cluster.engine.now)
        self._admit(transition)
        return transition

    def abort(self, node: NodeAddress) -> bool:
        """Roll back an active transition cleanly.

        Pending registrations are dropped and streaming stops; no data is
        wiped (streamed cells on a spare are unreachable to reads).  Returns
        False when the node has no active transition.
        """
        transition = self._transitions.pop(node, None)
        if transition is None:
            return False
        transition.state = "aborted"
        transition.completed_at = self.cluster.engine.now
        transition.queue.clear()
        transition.outstanding = None
        transition.backlog_bytes = 0
        self.history.append(transition)
        self._rebuild_target()
        if self.tracer is not None:
            self.tracer.membership_event(f"{transition.kind}.abort", transition)
        return True

    def transition(self, node: NodeAddress) -> Optional[Transition]:
        """The active transition of ``node`` (None if none)."""
        return self._transitions.get(node)

    def active_transitions(self) -> List[Transition]:
        """Active transitions in start order."""
        return list(self._transitions.values())

    @property
    def has_active(self) -> bool:
        return bool(self._transitions)

    # ------------------------------------------------------------------
    # Pending-range resolution (consumed by the coordinators)
    # ------------------------------------------------------------------
    def pending_for(self, key: str) -> Tuple[NodeAddress, ...]:
        """Pending write targets of ``key``: target replicas not yet serving.

        The empty tuple for keys whose placement does not change.  Cached
        per key; the cache is dropped whenever the transition set or the
        current ring changes.
        """
        cached = self._pending_cache.get(key)
        if cached is None:
            target_ring = self._target_ring
            if target_ring is None:
                cached = ()
            else:
                current = self.cluster.replicas_for(key)
                target = self.cluster.strategy.replicas(target_ring, key)
                cached = tuple(a for a in target if a not in current)
            self._pending_cache[key] = cached
        return cached

    def _guard_read(self, key: str, contacted: Sequence[NodeAddress]) -> None:
        """Read-path invariant probe: reads must never touch a pending target."""
        pending = self.pending_for(key)
        if pending:
            for address in contacted:
                if address in pending:
                    self.pending_read_violations += 1

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _admit(self, transition: Transition) -> None:
        self._transitions[transition.node] = transition
        self._rebuild_target()
        if self.tracer is not None:
            self.tracer.membership_event(f"{transition.kind}.start", transition)
        self.start()

    def _rebuild_target(self) -> None:
        """Recompute the target ring and (un)install the coordinator hooks."""
        cluster = self.cluster
        self._pending_cache.clear()
        if not self._transitions:
            self._target_ring = None
            for coordinator in cluster.coordinators.values():
                coordinator.set_pending_hooks(None, None)
            return
        members = list(cluster.members)
        for t in self._transitions.values():
            if t.kind == "bootstrap":
                members.append(t.node)
            else:
                members.remove(t.node)
        self._target_ring = TokenRing(
            members,
            partitioner=cluster.ring.partitioner,
            vnodes=cluster.ring.vnodes,
        )
        for coordinator in cluster.coordinators.values():
            coordinator.set_pending_hooks(self.pending_for, self._guard_read)

    def on_ring_changed(self) -> None:
        """React to a ring membership change (cutover of some transition).

        Remaining transitions recompute their pending sets against the new
        current ring and re-diff their streaming queues -- already-complete
        keys verify equal and are not re-streamed.
        """
        self._rebuild_target()
        for t in self._transitions.values():
            t.queue.clear()
            t.outstanding = None

    # -- periodic progress ---------------------------------------------
    def _tick(self) -> None:
        for node in list(self._transitions):
            transition = self._transitions.get(node)
            if transition is None or not transition.active:
                continue
            self._advance(transition)

    def _advance(self, transition: Transition) -> None:
        cluster = self.cluster
        now = cluster.engine.now
        # Watchdog: an unacknowledged chunk (dropped by a partition, or its
        # source crashed before sending) is abandoned and re-queued; the
        # next pump re-picks a live source.  Chunks are idempotent cells.
        if transition.outstanding is not None:
            items, _source, _target, sent_at = transition.outstanding
            if now - sent_at >= CHUNK_TIMEOUT:
                transition.outstanding = None
                transition.queue.extendleft(reversed(items))
        if transition.outstanding is not None:
            return  # a chunk is in flight; let it land
        if transition.queue:
            self._pump(transition)
            return
        # Queue empty: run a catch-up pass (diff targets against the live
        # old owners).  A non-empty diff refills the queue; an empty one
        # counts toward the clean passes required for cutover.
        diff = self._diff(transition)
        if diff is None:
            # Cannot verify right now (no live source for some key, or the
            # target is unreachable): pause, retry next tick.
            self._set_paused(transition, True)
            return
        self._set_paused(transition, False)
        if diff:
            transition.clean_passes = 0
            transition.queue.extend(diff)
            transition.backlog_bytes = self._estimate_backlog(transition)
            if self.tracer is not None:
                self.tracer.membership_event(
                    f"{transition.kind}.stream", transition, keys=len(diff)
                )
            self._pump(transition)
            return
        transition.clean_passes += 1
        if transition.clean_passes < CLEAN_PASSES_REQUIRED:
            return
        if now - transition.started_at < WRITE_TIMEOUT:
            return  # pending window still open; in-flight writes may land
        self._cutover(transition)

    def _set_paused(self, transition: Transition, paused: bool) -> None:
        if transition.paused == paused:
            return
        transition.paused = paused
        if paused and self.tracer is not None:
            self.tracer.membership_event(f"{transition.kind}.pause", transition)

    # -- streaming ------------------------------------------------------
    def _diff(self, transition: Transition) -> Optional[List[Tuple[str, NodeAddress]]]:
        """Keys on which a stream target is behind the live current owners.

        Returns ``None`` when the pass cannot be trusted: some affected key
        has no live current replica to compare against, or a stream target
        is down/unreachable (the transition pauses rather than cutting over
        on partial knowledge).
        """
        cluster = self.cluster
        nodes = cluster.nodes
        if transition.kind == "bootstrap" and not nodes[transition.node].is_up:
            return None
        items: List[Tuple[str, NodeAddress]] = []
        for key in sorted(self._affected_keys(transition)):
            pending = self.pending_for(key)
            if transition.kind == "bootstrap":
                targets = [transition.node] if transition.node in pending else []
            else:
                targets = [a for a in pending if a not in self._transitions]
            if not targets:
                continue
            newest = None
            any_live = False
            for address in cluster.replicas_for(key):
                if not nodes[address].is_up:
                    continue
                any_live = True
                cell = nodes[address].peek(key)
                if cell is not None and cell.is_newer_than(newest):
                    newest = cell
            if not any_live:
                return None  # cannot verify this key right now
            if newest is None:
                continue
            for target in targets:
                if not nodes[target].is_up:
                    return None
                held = nodes[target].peek(key)
                if held is None or newest.is_newer_than(held):
                    items.append((key, target))
        return items

    def _affected_keys(self, transition: Transition) -> set:
        """Every key stored on a current replica whose placement changes."""
        cluster = self.cluster
        keys: set = set()
        if transition.kind == "decommission":
            keys |= cluster.nodes[transition.node].storage.keys()
        for address in cluster.members:
            keys |= cluster.nodes[address].storage.keys()
        affected = set()
        for key in keys:
            if self.pending_for(key):
                affected.add(key)
        return affected

    def _source_for(self, key: str, target: NodeAddress) -> Optional[NodeAddress]:
        """A live current replica holding the newest cell, reachable toward
        ``target`` (directional partition check)."""
        cluster = self.cluster
        nodes = cluster.nodes
        fabric = cluster.fabric
        topology = cluster.topology
        target_dc = topology.datacenter_of(target)
        newest = None
        for address in cluster.replicas_for(key):
            if not nodes[address].is_up:
                continue
            cell = nodes[address].peek(key)
            if cell is not None and cell.is_newer_than(newest):
                newest = cell
        if newest is None:
            return None
        for address in cluster.replicas_for(key):
            if not nodes[address].is_up:
                continue
            cell = nodes[address].peek(key)
            if cell is None or newest.is_newer_than(cell):
                continue
            if fabric.has_partitions:
                src_dc = topology.datacenter_of(address)
                if src_dc != target_dc and fabric.is_severed(src_dc, target_dc):
                    continue
            return address
        return None

    def _pump(self, transition: Transition) -> None:
        """Send the next chunk: consecutive queue items sharing one (source,
        target) pair, up to ``chunk_cells`` cells in one ``range_stream``."""
        cluster = self.cluster
        queue = transition.queue
        skipped = 0
        while queue:
            if skipped >= len(queue):
                # Every queued item is currently unstreamable (partition or
                # down source/target): pause, the next tick retries.
                self._set_paused(transition, True)
                return
            key, target = queue[0]
            if not cluster.nodes[target].is_up:
                self._set_paused(transition, True)
                return
            source = self._source_for(key, target)
            if source is None:
                # No live reachable source for this key right now: park the
                # item at the back and try the next one.
                queue.rotate(-1)
                skipped += 1
                continue
            self._set_paused(transition, False)
            items: List[Tuple[str, NodeAddress]] = []
            cells: List["Cell"] = []
            size = 0
            while queue and len(cells) < CHUNK_CELLS:
                next_key, next_target = queue[0]
                if next_target != target:
                    break
                cell = self._newest_live_cell(next_key)
                queue.popleft()
                if cell is None:
                    continue
                items.append((next_key, next_target))
                cells.append(cell)
                size += cell.size_bytes
            if not cells:
                continue
            sent_at = cluster.engine.now
            transition.outstanding = (items, source, target, sent_at)
            cluster.fabric.send(
                source,
                target,
                MessageKind.RANGE_STREAM,
                cells,
                size_bytes=size,
                on_delivered=lambda message, t=transition, i=items, b=size: (
                    self._chunk_delivered(t, i, b)
                ),
            )
            return
        transition.backlog_bytes = 0

    def _newest_live_cell(self, key: str) -> Optional["Cell"]:
        cluster = self.cluster
        newest = None
        for address in cluster.replicas_for(key):
            node = cluster.nodes[address]
            if not node.is_up:
                continue
            cell = node.peek(key)
            if cell is not None and cell.is_newer_than(newest):
                newest = cell
        return newest

    def _chunk_delivered(self, transition: Transition, items: list, size: int) -> None:
        if not transition.active:
            return
        outstanding = transition.outstanding
        if outstanding is None or outstanding[0] is not items:
            return  # superseded by a watchdog resend
        transition.outstanding = None
        transition.streamed_cells += len(items)
        transition.streamed_bytes += size
        transition.backlog_bytes = max(0, transition.backlog_bytes - size)
        if transition.queue:
            self._pump(transition)

    def _estimate_backlog(self, transition: Transition) -> int:
        total = 0
        for key, _target in transition.queue:
            cell = self._newest_live_cell(key)
            if cell is not None:
                total += cell.size_bytes
        return total

    # -- cutover --------------------------------------------------------
    def _cutover(self, transition: Transition) -> None:
        """Flip the ring: the transition's node joins or leaves for real."""
        cluster = self.cluster
        del self._transitions[transition.node]
        transition.state = "done"
        transition.completed_at = cluster.engine.now
        transition.backlog_bytes = 0
        self.history.append(transition)
        if transition.kind == "bootstrap":
            members = list(cluster.members) + [transition.node]
            cluster.set_members(members)
            # Writes the joiner missed while pending left hints behind;
            # replay them now that it serves reads.
            cluster._replay_hints_for(transition.node)
        else:
            members = [a for a in cluster.members if a != transition.node]
            cluster.set_members(members)
            # The leaving node drains its own hint buffer toward targets it
            # can reach; unreachable targets keep their hints (the node
            # stays up as a spare, so nothing acked is ever dropped).
            own = cluster.coordinators[transition.node]
            if cluster.nodes[transition.node].is_up:
                for target in own.hints.targets():
                    if cluster._hint_target_reachable(own, target):
                        own.replay_hints(target)
        # set_members bumped the epoch; re-derive pending state for any
        # transitions still in flight against the new current ring.
        self.on_ring_changed()
        if self.tracer is not None:
            self.tracer.membership_event(f"{transition.kind}.cutover", transition)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MembershipManager(active={len(self._transitions)})"
