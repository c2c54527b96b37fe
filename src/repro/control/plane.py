"""The control plane: one periodic driver for every adaptive decision.

Every feedback loop of the simulator -- cluster-wide read levels (the
paper's), per-datacenter read and write levels, repair cadence, ring size --
needs the same sample/estimate/decide scaffolding.  The control plane holds
it once:

* a :class:`ControlPolicy` answers one question per tick -- given the shared
  monitoring view, which knob moves where -- and returns its answers as
  :class:`Decision` records;
* the :class:`ControlPlane` owns the monitor, drives every registered policy
  from **one** :class:`~repro.sim.background.PeriodicProcess`, logs the
  decisions and counts them per ``policy.kind`` (the observability channel
  the run metrics export);
* a :class:`ControlTick` hands policies the monitoring samples of the tick
  **at most once per scope** -- two policies consuming the per-DC view share
  one sampling pass, so registering a second policy never shrinks the
  monitoring windows of the first (monitor sampling advances window state).

Determinism: the plane itself consumes no randomness; policies must draw
only from named :class:`~repro.sim.rng.RandomStreams` streams (the monitor's
latency probes already do) or from none, so same-seed runs stay
byte-identical regardless of which policies are registered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.config import HarmonyConfig
from repro.core.model import StaleEstimate
from repro.core.monitor import ClusterMonitor, MonitoringSample
from repro.sim.background import PeriodicProcess

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.cluster import SimulatedCluster

__all__ = ["Decision", "ControlPolicy", "ControlTick", "ControlPlane"]


@dataclass(frozen=True)
class Decision:
    """One knob movement taken by one policy.

    Attributes
    ----------
    time:
        Virtual time of the decision.
    policy:
        Name of the emitting policy.
    scope:
        What the decision applies to: ``"cluster"``, ``"dc:<name>"``,
        ``"pair:<a>|<b>"``, ...
    kind:
        Which knob: ``"read_level"``, ``"write_level"``,
        ``"repair_interval"``, ...
    value:
        The new setting (a :class:`~repro.cluster.consistency.ConsistencyLevel`,
        a float interval, ...).
    replicas:
        Replica count behind a consistency-level decision, when applicable.
    estimate / sample:
        The model evaluation and monitoring sample that motivated the
        decision, echoed for traceability (``None`` for decisions that do
        not consume the staleness model).  The estimate is always the
        eventual-consistency baseline -- "what happens if this knob stays
        at 1" -- the pressure signal every policy searches against.
    achieved_staleness:
        The estimated stale-read probability *under the chosen setting*,
        for policies whose decision changes it (the joint read/write
        policy); ``None`` where the baseline estimate already describes
        the outcome.
    """

    time: float
    policy: str
    scope: str
    kind: str
    value: object
    replicas: Optional[int] = None
    estimate: Optional[StaleEstimate] = None
    sample: Optional[MonitoringSample] = None
    achieved_staleness: Optional[float] = None


class ControlTick:
    """Shared, lazily-sampled monitoring view of one control tick.

    Policies must read the tick's samples through this object instead of
    sampling the monitor themselves: the monitor's rate windows advance on
    every sampling pass, so two policies sampling independently would each
    see half-length windows.  Each view is taken at most once per tick.
    """

    def __init__(self, plane: "ControlPlane") -> None:
        self._plane = plane
        self.now = plane.cluster.engine.now
        self._sample: Optional[MonitoringSample] = None
        self._samples_by_dc: Optional[Dict[str, MonitoringSample]] = None

    @property
    def sample(self) -> MonitoringSample:
        """The cluster-wide monitoring sample of this tick."""
        if self._sample is None:
            self._sample = self._plane.monitor.sample()
        return self._sample

    @property
    def samples_by_dc(self) -> Dict[str, MonitoringSample]:
        """One monitoring sample per datacenter, taken once for the tick."""
        if self._samples_by_dc is None:
            self._samples_by_dc = self._plane.monitor.sample_per_datacenter()
        return self._samples_by_dc


class ControlPolicy:
    """Base class of control-plane policies.

    Subclasses override :meth:`tick` (and usually :meth:`bind`, to validate
    against the cluster and build per-scope state).  A policy may also be
    driven manually through whatever decision methods it exposes -- the unit
    tests of the decision schemes do -- but scheduled execution always goes
    through the plane.
    """

    #: Policy name used in decision records and counters.
    name = "control"

    #: Whether the policy reads the tick's monitoring samples.  Policies
    #: that steer from other signals (the repair scheduler watches session
    #: stats) set this False so a plane carrying only such policies never
    #: builds or primes a monitor.
    uses_monitor = True

    def __init__(self) -> None:
        self.plane: Optional[ControlPlane] = None

    @property
    def cluster(self) -> "SimulatedCluster":
        if self.plane is None:
            raise RuntimeError(f"policy {self.name!r} is not bound to a control plane")
        return self.plane.cluster

    def bind(self, plane: "ControlPlane") -> None:
        """Called once when the policy is registered with a plane."""
        self.plane = plane

    def tick(self, tick: ControlTick) -> List[Decision]:
        """Produce this tick's decisions (empty list = nothing changed)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


@dataclass
class _PlaneStats:
    """Aggregate counters of one plane (exported into run metrics)."""

    ticks: int = 0
    decisions: int = 0
    by_policy_kind: Dict[str, int] = field(default_factory=dict)

    def record(self, decision: Decision) -> None:
        self.decisions += 1
        key = f"{decision.policy}.{decision.kind}"
        self.by_policy_kind[key] = self.by_policy_kind.get(key, 0) + 1

    def as_dict(self) -> Dict[str, object]:
        return {
            "ticks": self.ticks,
            "decisions": self.decisions,
            **dict(sorted(self.by_policy_kind.items())),
        }


class ControlPlane:
    """Drives every registered :class:`ControlPolicy` on one periodic loop.

    Parameters
    ----------
    cluster:
        The cluster under control.
    config:
        Shared Harmony tunables; ``config.monitoring_interval`` is the tick
        period unless ``interval`` overrides it.
    monitor:
        Optional pre-built monitor (a fresh one is created otherwise).
    interval:
        Explicit tick period in virtual seconds (e.g. the repair policy's
        base cadence when no consistency policy shares the plane).
    name:
        Process name in traces (``"control-plane"``).
    """

    def __init__(
        self,
        cluster: "SimulatedCluster",
        config: Optional[HarmonyConfig] = None,
        monitor: Optional[ClusterMonitor] = None,
        *,
        interval: Optional[float] = None,
        name: str = "control-plane",
    ) -> None:
        self.cluster = cluster
        self.config = config or HarmonyConfig()
        self._monitor = monitor
        self.interval = float(interval if interval is not None else self.config.monitoring_interval)
        if self.interval <= 0:
            raise ValueError(f"control interval must be positive, got {interval!r}")
        self.name = name
        self.policies: List[ControlPolicy] = []
        self.decisions: List[Decision] = []
        self.stats = _PlaneStats()
        self._process: Optional[PeriodicProcess] = None
        #: Optional op-lifecycle tracer (see :mod:`repro.obs.tracer`): every
        #: decision of every registered policy is mirrored into the trace.
        self.tracer = None

    @property
    def monitor(self) -> ClusterMonitor:
        """The plane's monitor, built on first use.

        A plane carrying only sampling-free policies (``uses_monitor``
        False, e.g. the repair scheduler) never pays for monitor
        construction or the priming snapshots.
        """
        if self._monitor is None:
            self._monitor = ClusterMonitor(self.cluster, self.config)
        return self._monitor

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def add(self, policy: ControlPolicy) -> ControlPolicy:
        """Register (and bind) one policy; returns it for chaining."""
        policy.bind(self)
        self.policies.append(policy)
        return policy

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._process is not None and self._process.running

    def start(self) -> None:
        """Prime the monitor (if any policy samples) and begin the loop."""
        if self.running:
            return
        if self._monitor is not None or any(p.uses_monitor for p in self.policies):
            self.monitor.prime()
        self._process = PeriodicProcess(
            self.cluster.engine, self.interval, self._on_tick, name=self.name
        )

    def stop(self) -> None:
        """Stop ticking (the last decisions remain in effect)."""
        if self._process is not None:
            self._process.stop()
            self._process = None

    def _on_tick(self) -> None:
        self.tick()

    # ------------------------------------------------------------------
    # Decision loop
    # ------------------------------------------------------------------
    def tick(self) -> List[Decision]:
        """Run one tick over every policy; returns the new decisions."""
        tick = ControlTick(self)
        self.stats.ticks += 1
        produced: List[Decision] = []
        for policy in self.policies:
            produced.extend(policy.tick(tick))
        for decision in produced:
            self.stats.record(decision)
        self.decisions.extend(produced)
        tracer = self.tracer
        if tracer is not None:
            for decision in produced:
                tracer.control_decision(decision)
        return produced

    @property
    def decision_counts(self) -> Dict[str, int]:
        """Decisions per ``policy.kind`` key (exported into run metrics)."""
        return dict(self.stats.by_policy_kind)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = ", ".join(policy.name for policy in self.policies) or "none"
        state = "running" if self.running else "stopped"
        return (
            f"ControlPlane(policies=[{names}], interval={self.interval}, "
            f"decisions={len(self.decisions)}, {state})"
        )
