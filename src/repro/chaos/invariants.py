"""Invariants every chaos run must satisfy after heal + repair.

These encode the recovery contract of the Cassandra 1.0 semantics the
simulator reproduces (and that Harmony's staleness bounds assume):

``no_lost_acked_writes``
    Every write acknowledged to a client is durable: its version (or a
    newer one) is present on some replica *and* readable at ``QUORUM``
    once the cluster has healed, hints have flushed and repair has run.
    Acked data may be stale on individual replicas mid-fault; it may never
    vanish.

``hint_conservation`` / ``hints_drained``
    Hinted handoff replays exactly once: per coordinator,
    ``stored == replayed + discarded + pending`` at all times, and after
    the final hint flush against a fully healed cluster nothing is left
    pending.  A hint counted twice, dropped from the books, or stranded
    forever all fail here.

``no_stuck_unavailable``
    Once every fault has healed, no coordinator may keep refusing
    requests: probe writes and reads at ``LOCAL_QUORUM`` in every
    datacenter, plus ``QUORUM`` and ``EACH_QUORUM`` probes, must complete
    without ``UnavailableException`` or timeout.  This catches a failure
    detector that never observed a recovery and fabric state that never
    tore down.

``no_pending_range_reads``
    Elastic membership must never serve reads from a pending-range node:
    while a bootstrap or decommission is streaming, the joining (or
    gaining) replica counts toward *write* quorums only.  The membership
    manager's read guard counts every read that contacted a pending target;
    any nonzero count fails here.  ``membership_converged`` additionally
    fails when a transition is still active at check time -- the replay
    driver force-aborts stragglers, so seeing one here means the
    sequencing contract broke.

``fabric_conservation``
    The fabric loses no message from its books and counts none twice:
    ``sent == delivered + dropped + parked`` plus what is still in flight
    (delivery events on the engine heap and message-borne bandwidth
    transfers, streaming or paused), and ``stats.parked`` equals the
    messages a partition actually holds.  It is checked first, on the
    cluster the caller settled, before the suite's own probes send anything;
    there nothing should be in flight but a paused transfer.

``windowed_stale_rate``
    PBS-style bound (Bailis et al., VLDB 2012): in the post-heal window
    ``[heal + grace, end of run]`` the observed stale rate from
    :class:`~repro.faults.timeline.FaultTimeline` must drop back under a
    configurable bound -- cluster-wide and per datacenter.  Windows with
    fewer than ``min_judged_reads`` verdicts are skipped (no evidence, no
    verdict), and a window that ends before it starts is vacuously fine.

The checker runs probes through the public cluster API (they drive the
simulation engine), so it must run *after* the workload and repair phases
-- :func:`repro.chaos.replay.run_chaos` sequences that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.cluster.cluster import SimulatedCluster
from repro.cluster.consistency import ConsistencyLevel
from repro.faults.timeline import FaultTimeline

__all__ = ["InvariantChecker", "Violation"]

_MAX_DETAILS_PER_INVARIANT = 8


@dataclass(frozen=True)
class Violation:
    """One invariant breach: the invariant's name and a human-readable detail."""

    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"{self.invariant}: {self.detail}"


@dataclass
class InvariantChecker:
    """Runs the post-run invariant suite against a healed cluster.

    Parameters bound the staleness invariant; the rest of the suite is
    parameter-free.  ``check()`` returns all violations found (empty list
    == healthy run); per invariant the detail list is capped so a run with
    hundreds of lost keys produces a readable report.
    """

    post_heal_grace: float = 3.0
    stale_bound: float = 0.5
    per_dc_stale_bound: float = 0.9
    min_judged_reads: int = 25
    violations: List[Violation] = field(default_factory=list)

    # ------------------------------------------------------------------
    def check(
        self,
        *,
        cluster: SimulatedCluster,
        timeline: FaultTimeline,
        heal_time: float,
        end_time: float,
    ) -> List[Violation]:
        """Run the full suite; returns (and stores) the violations found.

        ``heal_time`` is the virtual time by which every scheduled fault
        had healed; ``end_time`` is the end of the client run (the staleness
        window closes there -- probe reads issued by this checker are never
        judged).
        """
        self.violations = []
        self._check_fabric_conservation(cluster)
        self._check_no_stuck_unavailable(cluster, timeline)
        self._check_no_lost_acked_writes(cluster, timeline)
        self._check_hints(cluster)
        self._check_membership(cluster)
        self._check_windowed_stale_rate(timeline, heal_time, end_time)
        return self.violations

    def _add(self, invariant: str, detail: str, counter: dict) -> None:
        n = counter[invariant] = counter.get(invariant, 0) + 1
        if n <= _MAX_DETAILS_PER_INVARIANT:
            self.violations.append(Violation(invariant, detail))
        elif n == _MAX_DETAILS_PER_INVARIANT + 1:
            self.violations.append(Violation(invariant, "... further details elided"))

    # ------------------------------------------------------------------
    def _check_fabric_conservation(self, cluster: SimulatedCluster) -> None:
        counter: dict = {}
        name = "fabric_conservation"
        stats = cluster.fabric.stats
        parked, in_flight = cluster.fabric.messages_held()
        if stats.parked != parked:
            self._add(
                name, f"stats.parked={stats.parked} but partitions hold {parked}", counter
            )
        if stats.sent != stats.delivered + stats.dropped + stats.parked + in_flight:
            self._add(
                name,
                f"sent={stats.sent} != delivered={stats.delivered} + dropped="
                f"{stats.dropped} + parked={stats.parked} + in flight={in_flight}",
                counter,
            )

    # ------------------------------------------------------------------
    def _check_no_stuck_unavailable(
        self, cluster: SimulatedCluster, timeline: FaultTimeline
    ) -> None:
        counter: dict = {}
        name = "no_stuck_unavailable"
        if cluster.fabric.has_partitions:
            self._add(name, "fabric still has active partitions after heal", counter)
        down = [str(a) for a in cluster.addresses if not cluster.node(a).is_up]
        if down:
            self._add(name, f"nodes still down after heal: {down}", counter)

        datacenters = cluster.datacenter_names
        audited = sorted(timeline.audited_keys())
        sample_key: Optional[str] = audited[0] if audited else None

        for dc in datacenters:
            result = cluster.write_sync(
                f"chaos.probe.{dc}",
                "post-heal-probe",
                ConsistencyLevel.LOCAL_QUORUM,
                datacenter=dc,
                notify_observers=False,
            )
            if result.unavailable or result.timed_out:
                status = "unavailable" if result.unavailable else "timed out"
                self._add(name, f"LOCAL_QUORUM probe write in {dc} {status}", counter)
            if sample_key is not None:
                result = cluster.read_sync(
                    sample_key,
                    ConsistencyLevel.LOCAL_QUORUM,
                    datacenter=dc,
                    notify_observers=False,
                )
                if result.unavailable or result.timed_out:
                    status = "unavailable" if result.unavailable else "timed out"
                    self._add(name, f"LOCAL_QUORUM probe read in {dc} {status}", counter)

        levels = [ConsistencyLevel.QUORUM]
        if len(datacenters) > 1:
            levels.append(ConsistencyLevel.EACH_QUORUM)
        probe_key = sample_key if sample_key is not None else f"chaos.probe.{datacenters[0]}"
        for level in levels:
            result = cluster.read_sync(probe_key, level, notify_observers=False)
            if result.unavailable or result.timed_out:
                status = "unavailable" if result.unavailable else "timed out"
                self._add(name, f"{level.name} probe read {status}", counter)

    # ------------------------------------------------------------------
    def _check_no_lost_acked_writes(
        self, cluster: SimulatedCluster, timeline: FaultTimeline
    ) -> None:
        counter: dict = {}
        name = "no_lost_acked_writes"
        for key in sorted(timeline.audited_keys()):
            newest = timeline.newest_acknowledged(key)
            if newest is None:  # pragma: no cover - audited_keys filters these
                continue
            cell = cluster.newest_cell(key)
            if cell is None or (cell.timestamp, cell.value_id) < newest:
                have = None if cell is None else (cell.timestamp, cell.value_id)
                self._add(
                    name,
                    f"key {key!r}: acked version {newest} absent from every replica "
                    f"(ground truth {have})",
                    counter,
                )
                continue
            probe = cluster.read_sync(key, ConsistencyLevel.QUORUM, notify_observers=False)
            if probe.unavailable or probe.timed_out:
                status = "unavailable" if probe.unavailable else "timed out"
                self._add(name, f"key {key!r}: QUORUM read-back {status}", counter)
            elif probe.cell is None or (probe.cell.timestamp, probe.cell.value_id) < newest:
                have = None if probe.cell is None else (probe.cell.timestamp, probe.cell.value_id)
                self._add(
                    name,
                    f"key {key!r}: QUORUM read-back returned {have}, acked {newest}",
                    counter,
                )

    # ------------------------------------------------------------------
    def _check_hints(self, cluster: SimulatedCluster) -> None:
        counter: dict = {}
        for address in cluster.addresses:
            store = cluster.coordinator(address).hints
            pending = store.total_pending()
            if store.stored != store.replayed + store.discarded + pending:
                self._add(
                    "hint_conservation",
                    f"{address}: stored={store.stored} != replayed={store.replayed} "
                    f"+ discarded={store.discarded} + pending={pending}",
                    counter,
                )
            if pending:
                self._add(
                    "hints_drained",
                    f"{address}: {pending} hints still pending after final flush",
                    counter,
                )

    # ------------------------------------------------------------------
    def _check_membership(self, cluster: SimulatedCluster) -> None:
        manager = getattr(cluster, "membership", None)
        if manager is None:
            return
        counter: dict = {}
        if manager.pending_read_violations:
            self._add(
                "no_pending_range_reads",
                f"{manager.pending_read_violations} reads contacted a "
                "pending-range node before its cutover",
                counter,
            )
        for transition in manager.active_transitions():
            self._add(
                "membership_converged",
                f"{transition.kind} of {transition.node} still active at check time",
                counter,
            )

    # ------------------------------------------------------------------
    def _check_windowed_stale_rate(
        self, timeline: FaultTimeline, heal_time: float, end_time: float
    ) -> None:
        counter: dict = {}
        name = "windowed_stale_rate"
        start = heal_time + self.post_heal_grace
        if start >= end_time:
            return
        judged = 0
        stale = 0
        by_dc: dict = {}
        for time, dc, verdict in timeline.read_events:
            if verdict is None or not (start <= time <= end_time):
                continue
            judged += 1
            stale += verdict
            bucket = by_dc.setdefault(dc, [0, 0])
            bucket[0] += 1
            bucket[1] += verdict
        if judged >= self.min_judged_reads:
            rate = stale / judged
            if rate > self.stale_bound:
                self._add(
                    name,
                    f"cluster-wide stale rate {rate:.3f} > {self.stale_bound} in "
                    f"[{start:.2f}, {end_time:.2f}] ({stale}/{judged})",
                    counter,
                )
        for dc, (dc_judged, dc_stale) in sorted(by_dc.items(), key=lambda kv: str(kv[0])):
            if dc_judged < self.min_judged_reads:
                continue
            rate = dc_stale / dc_judged
            if rate > self.per_dc_stale_bound:
                self._add(
                    name,
                    f"{dc}: stale rate {rate:.3f} > {self.per_dc_stale_bound} in "
                    f"[{start:.2f}, {end_time:.2f}] ({dc_stale}/{dc_judged})",
                    counter,
                )
