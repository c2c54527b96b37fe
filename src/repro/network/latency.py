"""One-way network latency models.

Each model answers one question: *how long does a message take between two
nodes right now?*  Models are sampled through the shared
:class:`~repro.sim.rng.RandomStreams` facility so runs remain reproducible.

Two presets mirror the paper's evaluation platforms:

* :class:`Grid5000LikeLatency` -- a bare-metal Gigabit-Ethernet LAN: very low
  base latency with narrow jitter.
* :class:`EC2LikeLatency` -- a virtualised cloud network: roughly five times
  the Grid'5000 latency (the ratio the paper reports), a heavier-tailed
  jitter distribution and occasional latency spikes caused by multi-tenant
  interference.

All latencies are expressed in **seconds** (the paper's figures use
milliseconds; conversion happens only at the reporting layer).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LatencyModel",
    "ConstantLatency",
    "LogNormalLatency",
    "SpikyLatency",
    "Grid5000LikeLatency",
    "EC2LikeLatency",
]


class LatencyModel(ABC):
    """Abstract one-way latency model.

    Subclasses implement :meth:`sample` (one draw) and :meth:`mean`
    (the analytic or configured expectation used by monitoring baselines and
    by tests).
    """

    @abstractmethod
    def sample(self, rng: np.random.Generator) -> float:
        """Draw one one-way latency value in seconds (always ``>= 0``)."""

    @abstractmethod
    def mean(self) -> float:
        """Expected one-way latency in seconds."""

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` latencies as a NumPy array.

        This base implementation is a per-element Python loop kept only as a
        fallback for third-party subclasses; every distribution shipped in
        this module overrides it with a true vectorised path (the network
        fabric pre-draws latency pools through this method, so the override
        is what makes the per-message hot path cheap).
        """
        return np.array([self.sample(rng) for _ in range(n)], dtype=float)

    def describe(self) -> str:
        """Short human-readable description used in experiment logs."""
        return f"{type(self).__name__}(mean={self.mean() * 1e3:.3f}ms)"


@dataclass(frozen=True)
class ConstantLatency(LatencyModel):
    """Deterministic latency; useful for tests and analytic validation."""

    value: float

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError(f"latency must be non-negative, got {self.value!r}")

    def sample(self, rng: np.random.Generator) -> float:
        return self.value

    def mean(self) -> float:
        return self.value

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, self.value, dtype=float)


class LogNormalLatency(LatencyModel):
    """Log-normal latency with a configurable median and tail.

    Network round-trip times in shared clouds are well described by
    heavy-tailed distributions; a log-normal with moderate sigma captures
    both the typical case and the occasional slow packet.

    Parameters
    ----------
    median:
        Median one-way latency in seconds.
    sigma:
        Shape parameter of the underlying normal distribution (dimensionless).
    floor:
        Hard lower bound (propagation/serialisation delay that can never be
        beaten), in seconds.
    """

    def __init__(self, median: float, sigma: float = 0.3, floor: float = 0.0) -> None:
        if median <= 0:
            raise ValueError(f"median latency must be positive, got {median!r}")
        if sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {sigma!r}")
        if floor < 0:
            raise ValueError(f"floor must be non-negative, got {floor!r}")
        self.median = float(median)
        self.sigma = float(sigma)
        self.floor = float(floor)
        self._mu = math.log(median)

    def sample(self, rng: np.random.Generator) -> float:
        return max(self.floor, float(rng.lognormal(self._mu, self.sigma)))

    def mean(self) -> float:
        return max(self.floor, self.median * math.exp(0.5 * self.sigma**2))

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.maximum(self.floor, rng.lognormal(self._mu, self.sigma, size=n))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LogNormalLatency(median={self.median!r}, sigma={self.sigma!r})"


class SpikyLatency(LatencyModel):
    """Wrap another model and add rare multiplicative latency spikes.

    With probability ``spike_probability`` a sample is multiplied by
    ``spike_factor``; this mimics the transient slow periods observed on
    multi-tenant cloud networks (the paper's Fig. 4(b) exploits exactly this
    EC2 variability).
    """

    def __init__(
        self,
        base: LatencyModel,
        spike_probability: float = 0.01,
        spike_factor: float = 10.0,
    ) -> None:
        if not 0.0 <= spike_probability <= 1.0:
            raise ValueError(f"spike_probability must be in [0, 1], got {spike_probability!r}")
        if spike_factor < 1.0:
            raise ValueError(f"spike_factor must be >= 1, got {spike_factor!r}")
        self.base = base
        self.spike_probability = float(spike_probability)
        self.spike_factor = float(spike_factor)

    def sample(self, rng: np.random.Generator) -> float:
        value = self.base.sample(rng)
        if self.spike_probability and rng.random() < self.spike_probability:
            value *= self.spike_factor
        return value

    def mean(self) -> float:
        p = self.spike_probability
        return self.base.mean() * (1.0 - p + p * self.spike_factor)

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        values = np.asarray(self.base.sample_many(rng, n), dtype=float)
        if self.spike_probability:
            spikes = rng.random(n) < self.spike_probability
            values = np.where(spikes, values * self.spike_factor, values)
        return values

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpikyLatency({self.base!r}, p={self.spike_probability!r}, "
            f"factor={self.spike_factor!r})"
        )


class Grid5000LikeLatency(LogNormalLatency):
    """LAN latency preset mirroring the Grid'5000 Gigabit-Ethernet testbed.

    The paper reports that EC2 latency is about five times the Grid'5000
    latency "in the normal case"; we anchor the LAN preset at a ~0.05 ms
    one-way median with tight jitter, which is representative of a
    single-site GbE cluster (~0.1 ms ping RTT).
    """

    DEFAULT_MEDIAN = 0.00004  # 0.04 ms one-way
    DEFAULT_SIGMA = 0.15
    DEFAULT_FLOOR = 0.00002

    def __init__(
        self,
        median: float = DEFAULT_MEDIAN,
        sigma: float = DEFAULT_SIGMA,
        floor: float = DEFAULT_FLOOR,
    ) -> None:
        super().__init__(median=median, sigma=sigma, floor=floor)


class EC2LikeLatency(SpikyLatency):
    """Virtualised-cloud latency preset (EC2 "Large" instances, one AZ).

    Five times the Grid'5000 median (the ratio stated in the paper), wider
    jitter, and occasional 10x spikes from multi-tenant interference.
    """

    DEFAULT_MEDIAN = 5 * Grid5000LikeLatency.DEFAULT_MEDIAN  # 0.25 ms one-way
    DEFAULT_SIGMA = 0.45
    DEFAULT_FLOOR = 0.00006
    DEFAULT_SPIKE_PROBABILITY = 0.02
    DEFAULT_SPIKE_FACTOR = 8.0

    def __init__(
        self,
        median: float = DEFAULT_MEDIAN,
        sigma: float = DEFAULT_SIGMA,
        floor: float = DEFAULT_FLOOR,
        spike_probability: float = DEFAULT_SPIKE_PROBABILITY,
        spike_factor: float = DEFAULT_SPIKE_FACTOR,
    ) -> None:
        super().__init__(
            base=LogNormalLatency(median=median, sigma=sigma, floor=floor),
            spike_probability=spike_probability,
            spike_factor=spike_factor,
        )

