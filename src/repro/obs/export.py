"""Time-series export: periodic snapshots of the run's key metrics.

A :class:`RunSeriesRecorder` ticks on its own
:class:`~repro.sim.background.PeriodicProcess` and appends one point per
series per tick:

* ``stale_rate`` -- fraction of reads judged stale *in the window* (exact,
  from the auditor's ground truth);
* ``stale_age_p99`` -- cumulative 99th-percentile staleness age in seconds
  over all judged reads so far;
* ``read_latency_mean[<dc>]`` -- per-datacenter mean read latency of the
  window (from the run metrics' per-DC histograms);
* ``repair_bytes`` -- anti-entropy WAN bytes sent in the window;
* ``control_decisions`` -- decisions the control plane logged in the window
  (the growth of ``plane.decisions``);
* ``wan_utilization[<dcA|dcB>]`` -- fraction of the window each modeled
  inter-DC link spent busy (only when the fabric's bandwidth model is on);
* ``transfer_backlog_bytes`` -- bytes still queued across all fair-share
  transfers at the tick instant (only with bandwidth modeling on);
* ``pending_ranges`` -- membership transitions (token ranges in pending
  state) active at the tick instant (only when a
  :class:`~repro.cluster.membership.MembershipManager` is installed);
* ``streaming_backlog_bytes`` -- bytes still to stream across every
  active bootstrap/decommission at the tick instant (same condition).

The recorder consumes no randomness (window deltas over counters that
already exist), so enabling it shifts no random stream; it *does* schedule
engine events (one per tick), which is why it is opt-in and separate from
the zero-event :class:`~repro.obs.tracer.Tracer`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.metrics.series import TimeSeries
from repro.sim.background import PeriodicProcess

__all__ = ["RunSeriesRecorder"]


class RunSeriesRecorder:
    """Samples run-level metrics into :class:`TimeSeries` on a fixed cadence.

    Parameters
    ----------
    cluster:
        The cluster under test (provides the engine and, when present, the
        anti-entropy service via ``cluster.anti_entropy``).
    auditor:
        Optional :class:`~repro.staleness.auditor.StalenessAuditor`; enables
        the ``stale_rate`` and ``stale_age_p99`` series.
    metrics:
        Optional :class:`~repro.workload.executor.RunMetrics`; enables the
        per-DC read-latency series.
    interval:
        Tick period in virtual seconds.
    """

    def __init__(
        self,
        cluster,
        *,
        auditor=None,
        metrics=None,
        interval: float = 1.0,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"series interval must be positive, got {interval!r}")
        self.cluster = cluster
        self.auditor = auditor
        self.metrics = metrics
        #: Control plane whose decision count is sampled (the runner assigns
        #: the executor's).
        self.plane = None
        self.interval = float(interval)
        self.series: Dict[str, TimeSeries] = {
            "stale_rate": TimeSeries("stale_rate"),
            "stale_age_p99": TimeSeries("stale_age_p99"),
            "repair_bytes": TimeSeries("repair_bytes"),
            "control_decisions": TimeSeries("control_decisions"),
        }
        self._process: Optional[PeriodicProcess] = None
        self._prev_judged = 0
        self._prev_stale = 0
        self._prev_repair = 0
        self._prev_decisions = 0
        # Per-DC latency window state: dc -> (count, total seconds).
        self._prev_latency: Dict[str, tuple] = {}
        # Per-link busy-time integrals (seconds), for utilization deltas.
        self._prev_busy: Dict[str, float] = {}

    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._process is not None and self._process.running

    def start(self) -> None:
        if self.running:
            return
        self._process = PeriodicProcess(
            self.cluster.engine, self.interval, self._tick, name="obs.series"
        )

    def stop(self) -> None:
        if self._process is not None:
            self._process.stop()
            self._process = None

    # ------------------------------------------------------------------
    def _tick(self) -> None:
        now = self.cluster.engine.now
        if self.auditor is not None:
            stats = self.auditor.stats
            judged, stale = stats.judged_reads, stats.stale_reads
            d_judged = judged - self._prev_judged
            d_stale = stale - self._prev_stale
            self._prev_judged, self._prev_stale = judged, stale
            self.series["stale_rate"].append(
                now, d_stale / d_judged if d_judged > 0 else 0.0
            )
            self.series["stale_age_p99"].append(now, stats.age_percentile(99))
        service = getattr(self.cluster, "anti_entropy", None)
        if service is not None:
            total = service.wan_traffic_bytes()
            self.series["repair_bytes"].append(now, float(total - self._prev_repair))
            self._prev_repair = total
        if self.plane is not None:
            count = len(self.plane.decisions)
            self.series["control_decisions"].append(now, float(count - self._prev_decisions))
            self._prev_decisions = count
        if self.metrics is not None:
            for dc, histogram in self.metrics.read_latency_by_dc.items():
                count, total = histogram.count, histogram.total
                prev_count, prev_total = self._prev_latency.get(dc, (0, 0.0))
                self._prev_latency[dc] = (count, total)
                name = f"read_latency_mean[{dc}]"
                series = self.series.get(name)
                if series is None:
                    series = self.series[name] = TimeSeries(name)
                d_count = count - prev_count
                series.append(
                    now, (total - prev_total) / d_count if d_count > 0 else 0.0
                )
        fabric = getattr(self.cluster, "fabric", None)
        if fabric is not None and fabric.bandwidth_enabled:
            for pair, busy in sorted(fabric.transfer_utilization().items()):
                prev = self._prev_busy.get(pair, 0.0)
                self._prev_busy[pair] = busy
                name = f"wan_utilization[{pair}]"
                series = self.series.get(name)
                if series is None:
                    series = self.series[name] = TimeSeries(name)
                series.append(now, (busy - prev) / self.interval)
            name = "transfer_backlog_bytes"
            series = self.series.get(name)
            if series is None:
                series = self.series[name] = TimeSeries(name)
            series.append(now, fabric.transfer_backlog_bytes())
        membership = getattr(self.cluster, "membership", None)
        if membership is not None:
            for name, value in (
                ("pending_ranges", float(membership.pending_range_count())),
                ("streaming_backlog_bytes", float(membership.streaming_backlog_bytes())),
            ):
                series = self.series.get(name)
                if series is None:
                    series = self.series[name] = TimeSeries(name)
                series.append(now, value)

    # ------------------------------------------------------------------
    def rows(self) -> Dict[str, List[Dict[str, float]]]:
        """Every non-empty series as JSON-able ``[{"time", "value"}]`` rows."""
        return {
            name: series.as_rows()
            for name, series in sorted(self.series.items())
            if len(series)
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        points = sum(len(s) for s in self.series.values())
        return f"RunSeriesRecorder(interval={self.interval}, points={points})"
