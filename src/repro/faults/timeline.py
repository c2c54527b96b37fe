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

Both logs are typed columns, about 30 bytes per operation;
:attr:`FaultTimeline.op_events` and ``read_events`` build rows on access.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

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


class _Rows(Sequence):
    """A read-only sequence whose rows are built on access from parallel columns."""

    def __init__(self, row: Callable[..., object], columns: Tuple[array, ...]) -> None:
        self._row = row
        self._columns = columns

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return self._row(*(column[index] for column in self._columns))

    def __iter__(self):
        return map(self._row, *self._columns)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)


class FaultTimeline(StalenessAuditor):
    """A staleness auditor that also keeps a per-operation event log.

    Read verdicts are recorded at judge time (``(completed_at, datacenter,
    verdict)``); every completed operation -- reads, writes, unavailable
    rejections -- is recorded through the cluster's operation-observer hook
    (call :meth:`attach` once before the run).
    """

    def __init__(self) -> None:
        super().__init__()
        # Datacenter name or op type -> the code the columns hold.  Codes are
        # handed out densely in first-seen order, so ``list(codes)[code]`` is
        # the name.
        self._codes: Dict[Optional[str], int] = {}
        # One row per completed operation, in OpEvent's field order: time,
        # datacenter, op type, latency, unavailable, timed out.
        self._ops = (array("d"), array("B"), array("B"), array("d"), array("b"), array("b"))
        # One row per judged read: time, datacenter, verdict (-1 / 0 / 1 for
        # None / fresh / stale).
        self._reads = (array("d"), array("B"), array("b"))
        #: ``(completed_at, datacenter, verdict)`` per judged read;
        #: verdict is True (stale), False (fresh) or None (no prior write).
        self.read_events: Sequence = _Rows(self._read_event, self._reads)
        #: Every completed operation, in completion order.
        self.op_events: Sequence = _Rows(self._op_event, self._ops)

    def _wanted(self, name: Optional[str]) -> Optional[int]:
        """The code a filter on ``name`` matches (``None``: no filter; -1: no row)."""
        return None if name is None else self._codes.get(name, -1)

    def _op_event(self, time, dc, op_type, latency, unavailable, timed_out) -> OpEvent:
        names = list(self._codes)
        return OpEvent(time, names[dc], names[op_type], latency, bool(unavailable), bool(timed_out))

    def _read_event(self, time, dc, verdict) -> tuple:
        return time, list(self._codes)[dc], None if verdict < 0 else bool(verdict)

    # ------------------------------------------------------------------
    # Hook-in points
    # ------------------------------------------------------------------
    def attach(self, cluster) -> None:
        """Register the operation observer with the cluster (idempotent use:
        call exactly once per run)."""
        cluster.add_operation_observer(self.observe)

    def observe(self, result: OperationResult) -> None:
        """Cluster operation observer: log one completed operation."""
        times, dcs, op_types, latencies, unavailable, timed_out = self._ops
        codes = self._codes
        times.append(result.completed_at)
        dcs.append(codes.setdefault(result.datacenter, len(codes)))
        op_types.append(codes.setdefault(result.op_type, len(codes)))
        latencies.append(result.completed_at - result.started_at)
        unavailable.append(result.unavailable)
        timed_out.append(result.timed_out)

    def judge(self, key: str, result: OperationResult) -> Optional[bool]:
        verdict = super().judge(key, result)
        times, dcs, verdicts = self._reads
        codes = self._codes
        times.append(result.completed_at)
        dcs.append(codes.setdefault(result.datacenter, len(codes)))
        verdicts.append(-1 if verdict is None else verdict)
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
        wanted = self._wanted(datacenter)
        stale = judged = 0
        for time, dc, verdict in zip(*self._reads):
            if verdict < 0 or not start <= time < end:
                continue
            if wanted is not None and dc != wanted:
                continue
            judged += 1
            stale += verdict
        if judged == 0:
            return None
        return stale / judged

    def _select(
        self,
        start: float,
        end: float,
        datacenter: Optional[str],
        op_type: Optional[str],
    ) -> List[int]:
        """Rows of the op log completed in ``[start, end)`` that pass the filters."""
        dc, kind = self._wanted(datacenter), self._wanted(op_type)
        times, dcs, op_types = self._ops[:3]
        return [
            row
            for row, time in enumerate(times)
            if start <= time < end
            and (dc is None or dcs[row] == dc)
            and (kind is None or op_types[row] == kind)
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
        unavailable = self._ops[4]
        return sum(unavailable[row] for row in self._select(start, end, datacenter, op_type))

    def mean_latency_in(
        self,
        start: float,
        end: float,
        datacenter: Optional[str] = None,
        op_type: Optional[str] = None,
    ) -> Optional[float]:
        """Mean latency of successful (non-unavailable) ops in the window."""
        latencies, unavailable = self._ops[3:5]
        window = [
            latencies[row]
            for row in self._select(start, end, datacenter, op_type)
            if not unavailable[row]
        ]
        if not window:
            return None
        return sum(window) / len(window)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultTimeline(ops={len(self.op_events)}, reads_judged={len(self.read_events)}, "
            f"stale={self.stats.stale_reads})"
        )
