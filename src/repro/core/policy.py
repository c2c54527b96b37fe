"""Consistency policies: the uniform interface the workload executor drives.

A *policy* answers two questions for every client operation -- which
consistency level to read at, and which to write at -- and may attach
run-time machinery to the cluster (the adaptive policies attach a control
plane).  The policies cover the paper's comparison, one related-work
baseline, and a measured-staleness SLA loop:

* :class:`HarmonyPolicy` -- the adaptive controller with a tolerated
  stale-read rate (the paper's "Harmony-S% Tolerable SR" series);
* :class:`StaticEventualPolicy` -- reads and writes at level ONE (the
  paper's "eventual consistency" series);
* :class:`StaticStrongPolicy` -- reads at level ALL (the paper's "strong
  consistency" series, Fig. 1 left);
* :class:`StaticQuorumPolicy` -- reads and writes at QUORUM (classic
  R+W > N configuration, used in ablations);
* :class:`ThresholdPolicy` -- a Wang et al.-style read/write-ratio threshold
  rule switching between ONE and ALL, used as the related-work ablation
  (DESIGN.md ablation A2);
* :class:`SLAConsistencyPolicy` -- closes the loop on the staleness
  auditor's *measured* t-visibility instead of the model estimate: "at
  least 99.9% of reads at most 50 ms stale" as a control target.

Writes default to level ONE for every policy except the quorum policy,
matching the paper's experimental setup (the adaptation is applied to reads).

Every adaptive policy here drives a
:class:`~repro.control.plane.ControlPlane` directly, so plane-level
observability (decision log, counters, tracing) covers all of them through
one code path.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.cluster import SimulatedCluster
from repro.cluster.consistency import ConsistencyLevel
from repro.control.plane import ControlPlane
from repro.control.policies import (
    HarmonyReadPolicy,
    StalenessSLAPolicy,
    ThresholdReadPolicy,
)
from repro.core.config import HarmonyConfig
from repro.metrics.series import TimeSeries

__all__ = [
    "ConsistencyPolicy",
    "StaticEventualPolicy",
    "StaticStrongPolicy",
    "StaticQuorumPolicy",
    "HarmonyPolicy",
    "ThresholdPolicy",
    "SLAConsistencyPolicy",
]


class ConsistencyPolicy:
    """Base class: fixed read/write levels, no run-time machinery."""

    #: Human-readable policy name used in reports and figure legends.
    name = "base"

    def __init__(
        self,
        read: ConsistencyLevel = ConsistencyLevel.ONE,
        write: ConsistencyLevel = ConsistencyLevel.ONE,
    ) -> None:
        self._read = read
        self._write = write

    # -- executor interface -------------------------------------------------
    def attach(self, cluster: SimulatedCluster) -> None:
        """Called by the executor before the run phase starts."""

    def detach(self) -> None:
        """Called by the executor after the run phase completes."""

    def read_level(self) -> ConsistencyLevel:
        """Consistency level for the next read."""
        return self._read

    def write_level(self) -> ConsistencyLevel:
        """Consistency level for the next write."""
        return self._write

    @property
    def decision_counts(self):
        """Control-plane decision counters (exported into run metrics).

        Adaptive policies run a :class:`~repro.control.plane.ControlPlane`
        (``self.plane``); static policies have none and report no decisions.
        """
        plane = getattr(self, "plane", None)
        return plane.decision_counts if plane is not None else {}

    def describe(self) -> str:
        """One-line description used in experiment logs."""
        return f"{self.name}(read={self._read}, write={self._write})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.describe()


class StaticEventualPolicy(ConsistencyPolicy):
    """Cassandra's static eventual consistency: every operation at level ONE."""

    name = "eventual"

    def __init__(self) -> None:
        super().__init__(read=ConsistencyLevel.ONE, write=ConsistencyLevel.ONE)


class StaticStrongPolicy(ConsistencyPolicy):
    """Strong consistency: reads wait for every replica (level ALL).

    Writes stay at level ONE, as in the paper's strong-consistency series
    (Fig. 1 left shows the read path blocking on all replicas).
    """

    name = "strong"

    def __init__(self, write: ConsistencyLevel = ConsistencyLevel.ONE) -> None:
        super().__init__(read=ConsistencyLevel.ALL, write=write)


class StaticQuorumPolicy(ConsistencyPolicy):
    """Reads and writes at QUORUM: the classic R + W > N configuration."""

    name = "quorum"

    def __init__(self) -> None:
        super().__init__(read=ConsistencyLevel.QUORUM, write=ConsistencyLevel.QUORUM)


class HarmonyPolicy(ConsistencyPolicy):
    """The adaptive policy: a :class:`HarmonyReadPolicy` on its own plane.

    Its decisions land in the same ``plane.decisions`` log (and the same
    trace channel) as every other adaptive policy's.

    Parameters
    ----------
    tolerated_stale_rate:
        The application's ASR; also accepted pre-packaged in ``config``.
    config:
        Full Harmony configuration; built from the ASR if omitted.
    write:
        Write consistency level (ONE, as in the paper).
    """

    def __init__(
        self,
        tolerated_stale_rate: Optional[float] = None,
        config: Optional[HarmonyConfig] = None,
        write: ConsistencyLevel = ConsistencyLevel.ONE,
    ) -> None:
        if config is None:
            if tolerated_stale_rate is None:
                raise ValueError("provide tolerated_stale_rate or a full HarmonyConfig")
            config = HarmonyConfig(tolerated_stale_rate=tolerated_stale_rate)
        elif tolerated_stale_rate is not None and (
            abs(config.tolerated_stale_rate - tolerated_stale_rate) > 1e-12
        ):
            raise ValueError(
                "tolerated_stale_rate disagrees with config.tolerated_stale_rate; "
                "pass only one of them"
            )
        super().__init__(read=ConsistencyLevel.ONE, write=write)
        self.config = config
        self.plane: Optional[ControlPlane] = None
        self._read_policy: Optional[HarmonyReadPolicy] = None
        self.name = f"harmony-{int(round(config.tolerated_stale_rate * 100))}%"

    # -- executor interface -------------------------------------------------
    def attach(self, cluster: SimulatedCluster) -> None:
        self._read_policy = HarmonyReadPolicy(self.config)
        self.plane = ControlPlane(cluster, self.config, name="harmony.tick")
        self.plane.add(self._read_policy)
        self.plane.start()

    def detach(self) -> None:
        if self.plane is not None:
            self.plane.stop()

    def read_level(self) -> ConsistencyLevel:
        if self._read_policy is None:
            return ConsistencyLevel.ONE
        return self._read_policy.current_level

    @property
    def estimate_series(self) -> TimeSeries:
        """The stale-estimate trace of the read loop (empty before attach)."""
        if self._read_policy is None:
            return TimeSeries("stale_estimate")
        return self._read_policy.estimate_series

    def describe(self) -> str:
        return (
            f"{self.name}(asr={self.config.tolerated_stale_rate}, "
            f"interval={self.config.monitoring_interval}s)"
        )


class ThresholdPolicy(ConsistencyPolicy):
    """Read/write-ratio threshold rule (Wang et al.-style related work).

    Every ``monitoring_interval`` the policy compares the measured
    write/read ratio against a static threshold: above it reads go to ALL,
    below it they go to ONE.  The paper criticises exactly this kind of
    arbitrary static threshold; the ablation benchmark quantifies the
    difference against Harmony's model-driven decision.

    The decision loop lives in
    :class:`~repro.control.policies.ThresholdReadPolicy`; this wrapper just
    gives it a plane at ``monitoring_interval`` cadence.
    """

    def __init__(
        self,
        threshold: float = 0.3,
        monitoring_interval: float = 0.5,
        write: ConsistencyLevel = ConsistencyLevel.ONE,
    ) -> None:
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        if monitoring_interval <= 0:
            raise ValueError("monitoring_interval must be positive")
        super().__init__(read=ConsistencyLevel.ONE, write=write)
        self.threshold = float(threshold)
        self.monitoring_interval = float(monitoring_interval)
        self.name = f"threshold-{threshold:g}"
        # One read policy for the wrapper's lifetime: `level_series` spans
        # re-attaches, matching the pre-port behaviour.
        self._policy = ThresholdReadPolicy(self.threshold)
        self.plane: Optional[ControlPlane] = None

    def attach(self, cluster: SimulatedCluster) -> None:
        self.plane = ControlPlane(
            cluster, interval=self.monitoring_interval, name="threshold.tick"
        )
        self.plane.add(self._policy)
        self.plane.start()

    def detach(self) -> None:
        if self.plane is not None:
            self.plane.stop()

    @property
    def level_series(self) -> TimeSeries:
        """Per-tick blocked-replica trace (idle ticks included)."""
        return self._policy.level_series

    def read_level(self) -> ConsistencyLevel:
        return self._policy.current_level


class SLAConsistencyPolicy(ConsistencyPolicy):
    """Adaptive reads steered by a quantitative staleness SLA.

    Wraps :class:`~repro.control.policies.StalenessSLAPolicy`: each control
    tick compares the auditor's windowed staleness-age violation rate
    against the SLA budget and moves the read level one replica at a time.
    The auditor is injected by the experiment runner (``needs_auditor``),
    or can be assigned manually before :meth:`attach`.
    """

    #: The experiment runner assigns ``policy.auditor`` before attach.
    needs_auditor = True

    def __init__(
        self,
        max_age: float = 0.05,
        quantile: float = 0.999,
        monitoring_interval: float = 0.5,
        *,
        min_window_reads: int = 20,
        write: ConsistencyLevel = ConsistencyLevel.ONE,
    ) -> None:
        if max_age <= 0:
            raise ValueError("max_age must be positive")
        if not 0.0 < quantile < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        if monitoring_interval <= 0:
            raise ValueError("monitoring_interval must be positive")
        super().__init__(read=ConsistencyLevel.ONE, write=write)
        self.max_age = float(max_age)
        self.quantile = float(quantile)
        self.monitoring_interval = float(monitoring_interval)
        self.min_window_reads = int(min_window_reads)
        self.auditor = None
        self.name = f"sla-{max_age * 1000.0:g}ms"
        self._policy: Optional[StalenessSLAPolicy] = None
        self.plane: Optional[ControlPlane] = None

    def attach(self, cluster: SimulatedCluster) -> None:
        if self.auditor is None:
            raise RuntimeError(
                f"{self.name}: assign a StalenessAuditor to policy.auditor "
                "before attach (the experiment runner does this automatically)"
            )
        self._policy = StalenessSLAPolicy(
            self.auditor,
            max_age=self.max_age,
            quantile=self.quantile,
            min_window_reads=self.min_window_reads,
        )
        self.plane = ControlPlane(
            cluster, interval=self.monitoring_interval, name="sla.tick"
        )
        self.plane.add(self._policy)
        self.plane.start()

    def detach(self) -> None:
        if self.plane is not None:
            self.plane.stop()

    def read_level(self) -> ConsistencyLevel:
        if self._policy is None:
            return ConsistencyLevel.ONE
        return self._policy.current_level

    @property
    def violation_series(self) -> TimeSeries:
        """Windowed SLA-violation-rate trace (empty before attach)."""
        if self._policy is None:
            return TimeSeries("sla_violation_rate")
        return self._policy.violation_series

    def describe(self) -> str:
        return (
            f"{self.name}(quantile={self.quantile}, "
            f"interval={self.monitoring_interval}s)"
        )
