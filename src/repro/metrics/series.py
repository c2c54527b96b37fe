"""Time series: (time, value) samples collected during a run.

Fig. 4(a) of the paper plots the estimated stale-read probability against
running time; the Harmony controller records its estimates into a
:class:`TimeSeries` so the figure benches can regenerate exactly that curve.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

__all__ = ["TimeSeries"]


class TimeSeries:
    """An append-only sequence of timestamped float samples.

    Parameters
    ----------
    name:
        Label used in reports.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._times: List[float] = []
        self._values: List[float] = []

    def append(self, time: float, value: float) -> None:
        """Add one sample; times must be non-decreasing."""
        if self._times and time < self._times[-1]:
            raise ValueError(
                f"time series {self.name!r}: sample at t={time!r} precedes the last "
                f"sample at t={self._times[-1]!r}"
            )
        self._times.append(float(time))
        self._values.append(float(value))

    def extend(self, samples: Iterable[Tuple[float, float]]) -> None:
        for time, value in samples:
            self.append(time, value)

    # ------------------------------------------------------------------
    @property
    def times(self) -> np.ndarray:
        return np.asarray(self._times, dtype=float)

    @property
    def values(self) -> np.ndarray:
        return np.asarray(self._values, dtype=float)

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self):
        return iter(zip(self._times, self._values))

    def last(self) -> Optional[Tuple[float, float]]:
        """Most recent (time, value) pair, or ``None`` if empty."""
        if not self._times:
            return None
        return self._times[-1], self._values[-1]

    # ------------------------------------------------------------------
    def mean(self) -> float:
        """Unweighted mean of the values (0.0 when empty)."""
        return float(np.mean(self._values)) if self._values else 0.0

    def time_weighted_mean(self) -> float:
        """Mean of the values weighted by the time they were in effect.

        Each value is assumed to hold from its own timestamp until the next
        sample's timestamp; the last value receives zero weight (its holding
        period is unknown).  Falls back to the plain mean for fewer than two
        samples.
        """
        if len(self._values) < 2:
            return self.mean()
        times = self.times
        values = self.values
        durations = np.diff(times)
        total = float(durations.sum())
        if total <= 0:
            return self.mean()
        weighted = float(np.sum(values[:-1] * durations) / total)
        # Guard against last-ulp rounding pushing the average outside the
        # sample range when durations are tiny.
        return float(np.clip(weighted, self.min(), self.max()))

    def max(self) -> float:
        return float(np.max(self._values)) if self._values else 0.0

    def min(self) -> float:
        return float(np.min(self._values)) if self._values else 0.0

    def as_rows(self) -> List[Dict[str, float]]:
        """Rows suitable for report tables."""
        return [{"time": t, "value": v} for t, v in zip(self._times, self._values)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TimeSeries({self.name!r}, n={len(self)})"
