"""Latency histogram with accurate percentiles.

The paper's Fig. 5(a)/(b) report the 99th percentile of read-operation
latency.  For simulation-scale sample counts (10^4-10^6 operations) an exact
sample-based percentile is affordable and avoids the bucketing error of HDR-
style histograms, so the default implementation simply keeps every sample in
an ``array('d')``: 8 bytes a sample, which NumPy reads without a copy.  A
bounded reservoir mode is available for very long runs.
"""

from __future__ import annotations

from array import array
from typing import Dict, Optional, Sequence

import numpy as np

__all__ = ["LatencyHistogram"]


class LatencyHistogram:
    """Collects latency samples (seconds) and computes summary statistics.

    Parameters
    ----------
    reservoir_size:
        If ``None`` (default), every sample is kept and percentiles are
        exact.  Otherwise a uniform reservoir of that size is maintained,
        bounding memory at the cost of a small sampling error.
    rng:
        Random generator used only in reservoir mode.
    """

    def __init__(
        self,
        reservoir_size: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if reservoir_size is not None and reservoir_size < 1:
            raise ValueError("reservoir_size must be >= 1 when given")
        self._reservoir_size = reservoir_size
        # Constructed lazily: a Generator costs tens of microseconds to build
        # and is only needed in reservoir mode, while histograms are created
        # in bulk (one per datacenter per run, plus ad-hoc ones in tests).
        self._rng = rng
        self._samples = array("d")
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
        if self._reservoir_size is None:
            self._samples.append(latency)
        elif len(self._samples) < self._reservoir_size:
            self._samples.append(latency)
        else:
            # Vitter's algorithm R: replace a random slot with prob k/n.
            rng = self._rng
            if rng is None:
                rng = self._rng = np.random.default_rng(0)
            slot = int(rng.integers(0, self._count))
            if slot < self._reservoir_size:
                self._samples[slot] = latency

    def record_many(self, latencies: Sequence[float]) -> None:
        """Add several samples at once."""
        for latency in latencies:
            self.record(latency)

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram's samples into this one.

        In reservoir mode only the other histogram's retained samples are
        folded in (an unavoidable approximation once samples were discarded).
        """
        if self._reservoir_size is None:
            self._samples.extend(other._samples)
            self._count += other._count
            self._total += other._total
            if other._count:
                self._min = min(self._min, other._min)
                self._max = max(self._max, other._max)
        else:
            for sample in other._samples:
                self.record(sample)

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
        """The ``q``-th percentile (``q`` in [0, 100]); 0.0 when empty."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q!r}")
        if not self._samples:
            return 0.0
        return float(np.percentile(self._samples, q))

    def sorted_samples(self) -> array:
        """The retained samples in ascending order, as C doubles."""
        return array("d", sorted(self._samples))

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
        if len(self._samples) < 2:
            return 0.0
        return float(np.std(self._samples, ddof=1))

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
