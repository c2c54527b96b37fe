"""Op-lifecycle tracer: deterministic JSONL spans of everything a run does.

The tracer is an append-only event log with virtual (engine) timestamps.
Hook sites across the repository each hold a ``tracer`` attribute that
defaults to ``None``.  :meth:`Tracer.attach_cluster` is the one attach
point: it sets ``cluster.tracer`` and flips the coordinators and the fabric,
which are built with the cluster; the executor, control plane, fault
injector, anti-entropy service and membership manager copy
``cluster.tracer`` when they are constructed, so one attached before they
are built reaches them too (the membership manager is built mid-run).

Every hook is guarded by a single ``if tracer is not None`` identity check
inside a callback that already exists, so tracing adds **zero engine
events** and consumes **no random draws** -- a traced run replays the exact
event sequence of an untraced one and same-seed traces are byte-identical.

Event kinds (the trace schema, also documented in docs/observability.md):

=========================  =====================================================
kind                       emitted when
=========================  =====================================================
``op.issue``               a client thread issues an operation (executor hook)
``op.retry``               a client retries after Unavailable, possibly at a
                           downgraded level (executor hook)
``op.fanout``              a coordinator sends the replica fan-out of one
                           read/write (contact set size, level, request id)
``op.complete``            the client callback fires: ack, timeout or
                           unavailable rejection, with latency and outcome flags
``hint.stored``            a write timeout buffered hints for silent replicas
``hint.replay``            buffered hints were replayed to a recovered node
``repair.session``         an anti-entropy session completed (pair, ranges
                           diffed, cumulative pair bytes)
``control.decision``       a control-plane policy moved a knob
``fault``                  the fault injector applied a schedule event
``transfer.start``         a bulk message entered the fair-share transfer
                           scheduler instead of the foreground fast path
``transfer.end``           a bulk transfer finished streaming and its message
                           was handed to the delivery path
``transfer.background``    a non-message background transfer (e.g. a
                           ``wan_congestion`` fault) started occupying a link
``bootstrap.*`` /          an elastic-membership transition changed phase:
``decommission.*``         ``.start`` (the transition was admitted), ``.stream``
                           (a catch-up pass found divergent keys and queued
                           them), ``.pause`` (streaming backpressured by a down
                           or partitioned endpoint), ``.cutover`` (the ring
                           flipped: the node is a full member / a spare again)
                           and ``.abort``.  Every event carries the
                           transition's node, state, streamed totals and
                           backlog
=========================  =====================================================

Spans: an operation's lifecycle is the ``op.issue`` -> ``op.fanout`` ->
``op.complete`` (and possibly ``op.retry`` -> ...) sequence; coordinator
events carry ``(coordinator, request_id)`` which is unique per coordinator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = ["TraceEvent", "Tracer"]


@dataclass(frozen=True)
class TraceEvent:
    """One trace record: virtual time, kind, and a flat JSON-able payload."""

    time: float
    kind: str
    fields: Dict[str, object]

    def as_dict(self) -> Dict[str, object]:
        row: Dict[str, object] = {"t": self.time, "kind": self.kind}
        row.update(self.fields)
        return row


class Tracer:
    """Collects :class:`TraceEvent` records from every attached hook site.

    ``engine`` may be omitted when the cluster does not exist yet (the
    experiment runner builds it): :meth:`attach_cluster` late-binds the
    clock from the cluster's engine.
    """

    def __init__(self, engine=None) -> None:
        self._engine = engine
        self.events: List[TraceEvent] = []

    # ------------------------------------------------------------------
    # Attachment (flip the hook sites' ``tracer`` attributes)
    # ------------------------------------------------------------------
    def attach_cluster(self, cluster) -> "Tracer":
        """Trace every layer of ``cluster``'s runs.

        Sets ``cluster.tracer`` and flips the coordinators and the fabric;
        hook sites built later on the cluster copy ``cluster.tracer``.
        """
        if self._engine is None:
            self._engine = cluster.engine
        cluster.tracer = self
        for coordinator in cluster.coordinators.values():
            coordinator.tracer = self
        cluster.fabric.tracer = self
        return self

    # ------------------------------------------------------------------
    # Emitters (called from the hook sites)
    # ------------------------------------------------------------------
    def emit(self, kind: str, **fields: object) -> None:
        self.events.append(TraceEvent(self._engine.now, kind, fields))

    def op_issue(self, op_type: str, key: str, thread: Optional[int] = None) -> None:
        fields: Dict[str, object] = {"op": op_type, "key": key}
        if thread is not None:
            fields["thread"] = thread
        self.emit("op.issue", **fields)

    def op_retry(self, op_type: str, key: str, from_level, to_level, attempt: int) -> None:
        self.emit(
            "op.retry",
            op=op_type,
            key=key,
            from_level=getattr(from_level, "value", str(from_level)),
            to_level=getattr(to_level, "value", str(to_level)),
            attempt=attempt,
        )

    def op_fanout(
        self, op_type: str, request_id: int, key: str, level, coordinator, contacted: int
    ) -> None:
        self.emit(
            "op.fanout",
            op=op_type,
            request_id=request_id,
            key=key,
            level=getattr(level, "value", str(level)),
            coordinator=str(coordinator),
            contacted=contacted,
        )

    def op_complete(self, result, request_id: Optional[int] = None) -> None:
        """Trace a completed (or rejected) :class:`OperationResult`."""
        fields: Dict[str, object] = {
            "op": result.op_type,
            "key": result.key,
            "level": getattr(result.consistency_level, "value", str(result.consistency_level)),
            "latency": result.completed_at - result.started_at,
            "responded": len(result.responded),
            "blocked_for": result.blocked_for,
        }
        if request_id is not None:
            fields["request_id"] = request_id
        if result.coordinator is not None:
            fields["coordinator"] = str(result.coordinator)
        if result.datacenter is not None:
            fields["datacenter"] = result.datacenter
        if result.timed_out:
            fields["timed_out"] = True
        if result.unavailable:
            fields["unavailable"] = True
        self.emit("op.complete", **fields)

    def hints_stored(self, coordinator, count: int) -> None:
        self.emit("hint.stored", coordinator=str(coordinator), count=count)

    def hint_replay(self, coordinator, target, count: int) -> None:
        self.emit(
            "hint.replay", coordinator=str(coordinator), target=str(target), count=count
        )

    def repair_session(self, pair, ranges_diffed: int, pair_bytes: int) -> None:
        self.emit(
            "repair.session",
            pair=f"{pair[0]}|{pair[1]}",
            ranges_diffed=ranges_diffed,
            pair_bytes=pair_bytes,
        )

    def control_decision(self, decision) -> None:
        fields: Dict[str, object] = {
            "policy": decision.policy,
            "scope": decision.scope,
            "decision": decision.kind,
            "value": getattr(decision.value, "value", decision.value),
        }
        if decision.replicas is not None:
            fields["replicas"] = decision.replicas
        if decision.estimate is not None:
            fields["estimate"] = decision.estimate.probability
        self.emit("control.decision", **fields)

    def fault(self, description: str) -> None:
        self.emit("fault", description=description)

    def membership_event(self, kind: str, transition, **fields: object) -> None:
        """Trace one phase change of an elastic-membership transition.

        ``kind`` arrives fully formed from the manager (``bootstrap.start``,
        ``decommission.cutover``, ...); the transition's identity and
        streaming progress ride along so a span can be reconstructed from
        any single event.
        """
        payload: Dict[str, object] = {
            "node": str(transition.node),
            "state": transition.state,
            "streamed_cells": transition.streamed_cells,
            "streamed_bytes": transition.streamed_bytes,
            "backlog_bytes": transition.backlog_bytes,
        }
        payload.update(fields)
        self.emit(kind, **payload)

    def transfer_start(self, message, transfer) -> None:
        """Trace a message diverted onto the fair-share transfer scheduler."""
        self.emit(
            "transfer.start",
            seq=transfer.seq,
            pair=transfer.pair_key,
            message_kind=getattr(message.kind, "value", message.kind),
            bytes=transfer.total_bytes,
            group=transfer.group,
            dst=str(message.dst),
        )

    def transfer_end(self, message, deliver_at: float) -> None:
        """Trace a transfer whose last byte streamed; delivery is scheduled."""
        self.emit(
            "transfer.end",
            message_kind=getattr(message.kind, "value", message.kind),
            dst=str(message.dst),
            deliver_at=deliver_at,
        )

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def counts_by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return dict(sorted(counts.items()))

    def to_jsonl(self) -> str:
        """The whole trace as JSON Lines (one event per line, time-ordered)."""
        return "".join(
            json.dumps(event.as_dict(), sort_keys=True) + "\n" for event in self.events
        )

    def dump_jsonl(self, path: str) -> int:
        """Write the trace to ``path``; returns the number of events."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())
        return len(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tracer(events={len(self.events)})"
