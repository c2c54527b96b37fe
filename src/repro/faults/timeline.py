"""Windowed fault-run observability: who was stale, where, and when.

The stock run metrics aggregate over a whole run, which is useless for fault
experiments -- the entire point is comparing *before*, *during* and *after*
the failure.  :class:`FaultTimeline` is a drop-in
:class:`~repro.staleness.auditor.StalenessAuditor` replacement that
additionally timestamps every verdict and every completed operation, so the
per-datacenter stale rate, latency and Unavailable count can be sliced into
arbitrary time windows after the run.

Usage::

    timeline = FaultTimeline()
    timeline.attach(cluster)                  # observe every operation
    executor = WorkloadExecutor(..., auditor=timeline)
    executor.run()
    timeline.stale_rate_in(t0, t1, datacenter="sophia")
    timeline.unavailable_in(t0, t1, op_type="read")
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.cluster.coordinator import OperationResult
from repro.staleness.auditor import StalenessAuditor

__all__ = ["FaultTimeline", "OpEvent"]


@dataclass(frozen=True)
class OpEvent:
    """One completed client operation, as seen by the timeline observer."""

    time: float
    datacenter: Optional[str]
    op_type: str
    latency: float
    unavailable: bool
    timed_out: bool


class FaultTimeline(StalenessAuditor):
    """A staleness auditor that also keeps a per-operation event log.

    Read verdicts are recorded at judge time (``(completed_at, datacenter,
    verdict)``); every completed operation -- reads, writes, unavailable
    rejections -- is recorded through the cluster's operation-observer hook
    (call :meth:`attach` once before the run).
    """

    def __init__(self) -> None:
        super().__init__()
        #: ``(completed_at, datacenter, verdict)`` per judged read;
        #: verdict is True (stale), False (fresh) or None (no prior write).
        self.read_events: List[Tuple[float, Optional[str], Optional[bool]]] = []
        #: Every completed operation, in completion order.
        self.op_events: List[OpEvent] = []

    # ------------------------------------------------------------------
    # Hook-in points
    # ------------------------------------------------------------------
    def attach(self, cluster) -> None:
        """Register the operation observer with the cluster (idempotent use:
        call exactly once per run)."""
        cluster.add_operation_observer(self.observe)

    def observe(self, result: OperationResult) -> None:
        """Cluster operation observer: log one completed operation."""
        self.op_events.append(
            OpEvent(
                time=result.completed_at,
                datacenter=result.datacenter,
                op_type=result.op_type,
                latency=result.latency,
                unavailable=result.unavailable,
                timed_out=result.timed_out,
            )
        )

    def judge(self, key: str, result: OperationResult) -> Optional[bool]:
        verdict = super().judge(key, result)
        self.read_events.append((result.completed_at, result.datacenter, verdict))
        return verdict

    # ------------------------------------------------------------------
    # Windowed queries
    # ------------------------------------------------------------------
    def stale_rate_in(
        self, start: float, end: float, datacenter: Optional[str] = None
    ) -> Optional[float]:
        """Stale fraction of judged reads completed in ``[start, end)``.

        Returns ``None`` when no read in the window received a verdict
        (callers must not mistake "no data" for "no staleness").
        """
        stale = judged = 0
        for time, dc, verdict in self.read_events:
            if verdict is None or not start <= time < end:
                continue
            if datacenter is not None and dc != datacenter:
                continue
            judged += 1
            if verdict:
                stale += 1
        if judged == 0:
            return None
        return stale / judged

    def _select(
        self,
        start: float,
        end: float,
        datacenter: Optional[str],
        op_type: Optional[str],
    ) -> List[OpEvent]:
        return [
            event
            for event in self.op_events
            if start <= event.time < end
            and (datacenter is None or event.datacenter == datacenter)
            and (op_type is None or event.op_type == op_type)
        ]

    def ops_in(
        self,
        start: float,
        end: float,
        datacenter: Optional[str] = None,
        op_type: Optional[str] = None,
    ) -> int:
        """Completed operations in ``[start, end)`` (any outcome)."""
        return len(self._select(start, end, datacenter, op_type))

    def unavailable_in(
        self,
        start: float,
        end: float,
        datacenter: Optional[str] = None,
        op_type: Optional[str] = None,
    ) -> int:
        """Operations rejected as Unavailable in ``[start, end)``."""
        return sum(
            1 for event in self._select(start, end, datacenter, op_type) if event.unavailable
        )

    def mean_latency_in(
        self,
        start: float,
        end: float,
        datacenter: Optional[str] = None,
        op_type: Optional[str] = None,
    ) -> Optional[float]:
        """Mean latency of successful (non-unavailable) ops in the window."""
        latencies = [
            event.latency
            for event in self._select(start, end, datacenter, op_type)
            if not event.unavailable
        ]
        if not latencies:
            return None
        return sum(latencies) / len(latencies)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultTimeline(ops={len(self.op_events)}, reads_judged={len(self.read_events)}, "
            f"stale={self.stale_reads})"
        )
