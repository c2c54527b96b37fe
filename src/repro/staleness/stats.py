"""Quantitative staleness aggregates: t-visibility and k-staleness.

Bailis et al.'s PBS work (PAPERS.md) measures eventual consistency with two
distributions rather than a single rate:

* **t-visibility** -- the probability that a read issued ``t`` seconds after
  a write's client acknowledgement observes it.  Here it is computed exactly
  from ground truth: every stale read carries a *staleness age* (read start
  minus the ack time of the newest write it missed), and
  ``t_visibility(t) = P(age <= t)`` over all judged reads (a fresh read has
  age zero by definition).
* **k-staleness** -- the *version lag*: how many acknowledged-newer versions
  the returned cell is behind.  Fresh reads sit at ``k = 0``.

One :class:`StalenessStats` instance aggregates one scope (the whole
cluster, or one datacenter) and is that scope's only tally of read verdicts,
the stale-read rate included; the auditor feeds it as verdicts are produced,
so the aggregation adds zero simulated cost and consumes no randomness.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, List, Optional, Sequence

from repro.metrics.histogram import LatencyHistogram

__all__ = ["StalenessStats"]

#: Default t grid (seconds) used by :meth:`StalenessStats.visibility_curve`
#: when the caller does not supply one: log-spaced from 1 ms to 2 s, the
#: range where the reference scenarios' propagation windows live.
DEFAULT_T_GRID = (
    0.0,
    0.001,
    0.002,
    0.005,
    0.01,
    0.02,
    0.05,
    0.1,
    0.2,
    0.5,
    1.0,
    2.0,
)


class StalenessStats:
    """Verdict counts and exact staleness-age / version-lag aggregates of one scope."""

    def __init__(self) -> None:
        #: Reads with a definite verdict (stale or fresh).
        self.judged_reads = 0
        self.stale_reads = 0
        #: Reads with no acknowledged prior write: no verdict, so they are
        #: excluded from every rate and aggregate below.
        self.unknown_reads = 0
        #: Staleness-age histogram over stale reads only (exact percentiles
        #: of "how stale were the stale reads"): one sample per stale read,
        #: fresh reads having age 0 implicitly.
        self.stale_age_histogram = LatencyHistogram()
        #: Version lag -> read count, including ``k = 0`` for fresh reads.
        self.k_counts: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Recording (called by the auditor per verdict)
    # ------------------------------------------------------------------
    def record_unknown(self) -> None:
        self.unknown_reads += 1

    def record_fresh(self) -> None:
        self.judged_reads += 1
        self.k_counts[0] = self.k_counts.get(0, 0) + 1

    def record_stale(self, age: float, k: int) -> None:
        if age < 0:
            age = 0.0
        if k < 1:
            k = 1
        self.judged_reads += 1
        self.stale_reads += 1
        self.stale_age_histogram.record(age)
        self.k_counts[k] = self.k_counts.get(k, 0) + 1

    def merge(self, other: "StalenessStats") -> None:
        """Fold another scope's aggregates into this one.

        Used by the sharded engine to combine per-shard stats into one
        cluster-wide view; all aggregates here are order-insensitive except
        the histogram's samples, which the age queries re-sort.
        """
        self.judged_reads += other.judged_reads
        self.stale_reads += other.stale_reads
        self.unknown_reads += other.unknown_reads
        self.stale_age_histogram.merge(other.stale_age_histogram)
        for k, count in other.k_counts.items():
            self.k_counts[k] = self.k_counts.get(k, 0) + count

    # ------------------------------------------------------------------
    # t-visibility
    # ------------------------------------------------------------------
    def stale_rate(self) -> float:
        """Fraction of judged reads that were stale (0.0 when nothing judged)."""
        return self.stale_reads / self.judged_reads if self.judged_reads else 0.0

    def stale_beyond(self, t: float) -> float:
        """Fraction of judged reads whose staleness age exceeds ``t``.

        Monotone non-increasing in ``t``; ``stale_beyond(0) == stale_rate()``
        because every stale read has a strictly positive age (the missed
        write was acknowledged strictly before the read started).
        """
        return self.violations_beyond(t) / self.judged_reads if self.judged_reads else 0.0

    def t_visibility(self, t: float) -> float:
        """P(a read is at most ``t`` seconds stale) -- 1 minus stale_beyond."""
        return 1.0 - self.stale_beyond(t)

    def visibility_curve(self, ts: Optional[Sequence[float]] = None) -> List[Dict[str, float]]:
        """The t-visibility CDF sampled on a grid of ``t`` values.

        Returns rows ``{"t": t, "visibility": P(age <= t)}`` suitable for
        JSON export and plotting.
        """
        grid = DEFAULT_T_GRID if ts is None else ts
        return [{"t": float(t), "visibility": self.t_visibility(t)} for t in grid]

    def violations_beyond(self, t: float) -> int:
        """Count of judged reads staler than ``t`` (the SLA policy's signal)."""
        ages = self.stale_age_histogram.sorted_samples()
        return len(ages) - bisect.bisect_right(ages, t)

    def age_percentile(self, q: float) -> float:
        """The ``q``-th percentile of staleness age over *all* judged reads.

        Fresh reads contribute age 0, so for a mostly-fresh run the low
        percentiles are exactly zero and the tail shows how stale the stale
        reads were.  Uses the nearest-rank definition (deterministic,
        machine-independent).
        """
        if self.judged_reads == 0:
            return 0.0
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q!r}")
        rank = max(1, math.ceil(q / 100.0 * self.judged_reads))
        fresh = self.judged_reads - self.stale_reads
        if rank <= fresh:
            return 0.0
        return self.stale_age_histogram.sorted_samples()[rank - fresh - 1]

    # ------------------------------------------------------------------
    # k-staleness
    # ------------------------------------------------------------------
    def k_histogram(self) -> Dict[int, int]:
        """Version lag -> read count, ascending in k (k = 0 means fresh)."""
        return dict(sorted(self.k_counts.items()))

    def max_k(self) -> int:
        return max(self.k_counts) if self.k_counts else 0

    def mean_k(self) -> float:
        if self.judged_reads == 0:
            return 0.0
        return sum(k * n for k, n in self.k_counts.items()) / self.judged_reads

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """One flat dict for reports and benchmark JSON."""
        return {
            "judged": self.judged_reads,
            "stale": self.stale_reads,
            "stale_rate": round(self.stale_rate(), 6),
            "age_p50_ms": round(self.age_percentile(50) * 1e3, 3),
            "age_p95_ms": round(self.age_percentile(95) * 1e3, 3),
            "age_p99_ms": round(self.age_percentile(99) * 1e3, 3),
            "age_max_ms": round(self.stale_age_histogram.max() * 1e3, 3),
            "stale_age_mean_ms": round(self.stale_age_histogram.mean() * 1e3, 3),
            "k_max": self.max_k(),
            "k_mean": round(self.mean_k(), 4),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StalenessStats(judged={self.judged_reads}, stale={self.stale_reads}, "
            f"age_p99={self.age_percentile(99):.4f}s, k_max={self.max_k()})"
        )
