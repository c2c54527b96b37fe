"""Harmony configuration."""

from __future__ import annotations

from dataclasses import dataclass

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

    Everything else the controller needs it measures (see
    :mod:`repro.core.monitor`, which holds the monitor's fixed constants).
    """

    tolerated_stale_rate: float = 0.4
    monitoring_interval: float = 0.2

    def __post_init__(self) -> None:
        if not 0.0 <= self.tolerated_stale_rate <= 1.0:
            raise ValueError(
                f"tolerated_stale_rate must be in [0, 1], got {self.tolerated_stale_rate!r}"
            )
        if self.monitoring_interval <= 0:
            raise ValueError("monitoring_interval must be positive")
