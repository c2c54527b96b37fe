"""Latency histogram with accurate percentiles.

The paper's Fig. 5(a)/(b) report the 99th percentile of read-operation
latency.  For simulation-scale sample counts (10^4-10^6 operations) an exact
sample-based percentile is affordable and avoids the bucketing error of HDR-
style histograms, so the histogram simply keeps every sample in an
``array('d')``: 8 bytes a sample.
"""

from __future__ import annotations

import math
from array import array
from typing import Dict, Sequence

__all__ = ["LatencyHistogram"]


class LatencyHistogram:
    """Collects latency samples (seconds) and computes summary statistics.

    Every sample is kept, so percentiles are exact.  The first query after
    the samples grew sorts them in place; no statistic depends on their
    insertion order.
    """

    def __init__(self) -> None:
        self._samples = array("d")
        #: Length of the sorted prefix of ``_samples``: recording and merging
        #: append past it, which is what tells a query to sort again.
        self._sorted = 0
        self._count = 0
        self._total = 0.0
        self._min = float("inf")
        self._max = 0.0

    # ------------------------------------------------------------------
    def record(self, latency: float) -> None:
        """Add one latency sample (must be non-negative)."""
        if latency < 0:
            raise ValueError(f"latency must be non-negative, got {latency!r}")
        self._count += 1
        self._total += latency
        if latency < self._min:
            self._min = latency
        if latency > self._max:
            self._max = latency
        self._samples.append(latency)

    def record_many(self, latencies: Sequence[float]) -> None:
        """Add several samples at once."""
        for latency in latencies:
            self.record(latency)

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram's samples into this one."""
        self._samples.extend(other._samples)
        self._count += other._count
        self._total += other._total
        if other._count:
            self._min = min(self._min, other._min)
            self._max = max(self._max, other._max)

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of samples recorded."""
        return self._count

    @property
    def total(self) -> float:
        """Sum of all samples (seconds)."""
        return self._total

    def mean(self) -> float:
        """Arithmetic mean latency, 0.0 when empty."""
        return self._total / self._count if self._count else 0.0

    def min(self) -> float:
        return self._min if self._count else 0.0

    def max(self) -> float:
        return self._max if self._count else 0.0

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (``q`` in [0, 100]); 0.0 when empty.

        NumPy's default ``"linear"`` rule, to the last bit: interpolate
        between the two samples around rank ``(n - 1) * q / 100``, from the
        nearer end.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q!r}")
        samples = self.sorted_samples()
        last = len(samples) - 1
        if last < 0:
            return 0.0
        virtual = last * (q / 100)
        below = int(virtual)
        if below >= last:
            return samples[last]
        low, high = samples[below], samples[below + 1]
        gamma = virtual - below
        if gamma >= 0.5:
            return high - (high - low) * (1 - gamma)
        return low + (high - low) * gamma

    def sorted_samples(self) -> array:
        """The samples in ascending order, as C doubles.

        This is the histogram's own array, sorted once per growth: read it,
        do not modify it.
        """
        samples = self._samples
        if self._sorted != len(samples):
            samples = self._samples = array("d", sorted(samples))
            self._sorted = len(samples)
        return samples

    def p50(self) -> float:
        """Median latency."""
        return self.percentile(50.0)

    def p95(self) -> float:
        return self.percentile(95.0)

    def p99(self) -> float:
        """99th-percentile latency -- the metric reported in the paper's Fig. 5."""
        return self.percentile(99.0)

    def stddev(self) -> float:
        """Sample standard deviation (0.0 with fewer than two samples)."""
        samples = self._samples
        if len(samples) < 2:
            return 0.0
        mean = math.fsum(samples) / len(samples)
        return math.sqrt(math.fsum((x - mean) ** 2 for x in samples) / (len(samples) - 1))

    def summary(self) -> Dict[str, float]:
        """All headline statistics in one dict (seconds)."""
        return {
            "count": float(self._count),
            "mean": self.mean(),
            "min": self.min(),
            "max": self.max(),
            "p50": self.p50(),
            "p95": self.p95(),
            "p99": self.p99(),
            "stddev": self.stddev(),
        }

    def summary_ms(self) -> Dict[str, float]:
        """Headline statistics with latencies converted to milliseconds."""
        summary = self.summary()
        return {
            key: (value * 1e3 if key != "count" else value) for key, value in summary.items()
        }

    def __len__(self) -> int:
        return self._count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LatencyHistogram(count={self._count}, mean={self.mean() * 1e3:.3f}ms, "
            f"p99={self.p99() * 1e3:.3f}ms)"
        )
