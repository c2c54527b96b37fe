"""Measurement utilities: latency histograms, throughput, time series, reports.

The evaluation section of the paper reports three families of metrics:

* 99th-percentile read latency (Fig. 5(a)/(b)) -- :class:`LatencyHistogram`;
* overall throughput in operations per second (Fig. 5(c)/(d)) --
  :meth:`~repro.workload.executor.RunMetrics.ops_per_second`, completed
  :class:`OperationCounters` over the run phase's duration;
* the number of stale reads (Fig. 6) -- counted once per scope by
  :class:`~repro.staleness.stats.StalenessStats`.

Everything here operates on plain floats/ints collected during a simulation
run and has no dependency on the cluster itself, so the same classes are used
by unit tests, the workload executor and the benchmark harness.
"""

from repro.metrics.counters import OperationCounters
from repro.metrics.histogram import LatencyHistogram
from repro.metrics.report import MetricsReport, format_table
from repro.metrics.series import TimeSeries

__all__ = [
    "LatencyHistogram",
    "MetricsReport",
    "OperationCounters",
    "TimeSeries",
    "format_table",
]
