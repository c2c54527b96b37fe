"""Harmony configuration."""

from __future__ import annotations

from dataclasses import dataclass

from repro.constants import DEFAULT_BANDWIDTH_BYTES_PER_S

__all__ = ["HarmonyConfig"]


@dataclass(frozen=True)
class HarmonyConfig:
    """Tunables of the Harmony controller.

    Attributes
    ----------
    tolerated_stale_rate:
        The application's tolerated stale-read rate (``app_stale_rate`` /
        ASR), in ``[0, 1]``.  ``0.0`` demands strong consistency for every
        read; ``1.0`` corresponds to static eventual consistency.  The
        paper's evaluation uses 0.2/0.4 on Grid'5000 and 0.4/0.6 on EC2.
    monitoring_interval:
        Seconds of virtual time between monitoring samples.  The paper's
        monitoring module runs continuously; the interval trades
        responsiveness against measurement noise (ablation A1).
    rate_smoothing:
        Exponential-smoothing factor applied to the measured read/write
        rates (1.0 = use only the latest window, lower values smooth more).
    latency_probes_per_sample:
        Number of node pairs probed (``ping``) per monitoring sample.
    avg_write_size:
        Average write payload size in bytes used in the ``Tp`` computation.
    bandwidth_bytes_per_s:
        Replication-link bandwidth used in the ``Tp`` computation.
    propagation_overhead:
        Fixed per-write overhead added to ``Tp`` (serialisation, commit-log
        append on the receiving replica).
    """

    tolerated_stale_rate: float = 0.4
    monitoring_interval: float = 0.2
    rate_smoothing: float = 0.6
    latency_probes_per_sample: int = 8
    avg_write_size: float = 1024.0
    bandwidth_bytes_per_s: float = DEFAULT_BANDWIDTH_BYTES_PER_S
    propagation_overhead: float = 0.000005

    def __post_init__(self) -> None:
        if not 0.0 <= self.tolerated_stale_rate <= 1.0:
            raise ValueError(
                f"tolerated_stale_rate must be in [0, 1], got {self.tolerated_stale_rate!r}"
            )
        if self.monitoring_interval <= 0:
            raise ValueError("monitoring_interval must be positive")
        if not 0.0 < self.rate_smoothing <= 1.0:
            raise ValueError("rate_smoothing must be in (0, 1]")
        if self.latency_probes_per_sample < 1:
            raise ValueError("latency_probes_per_sample must be >= 1")
        if self.avg_write_size < 0:
            raise ValueError("avg_write_size must be non-negative")
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth_bytes_per_s must be positive")
        if self.propagation_overhead < 0:
            raise ValueError("propagation_overhead must be non-negative")
