"""The control plane: one periodic driver for every adaptive decision.

Every feedback loop of the simulator -- cluster-wide read levels (the
paper's), per-datacenter read and write levels, repair cadence, ring size --
needs the same sample/estimate/decide scaffolding.  The control plane holds
it once:

* a :class:`ControlPolicy` answers one question per tick -- given the shared
  monitoring view, which knob moves where -- and returns its answers as
  :class:`Decision` records;
* the :class:`ControlPlane` owns the monitor, drives every registered policy
  from **one** :class:`~repro.sim.background.PeriodicProcess` and logs the
  decisions: ``ControlPlane.decisions`` is the run's one record of control,
  and the per-``policy.kind`` counts, the cluster-wide estimate series, the
  tracer's ``control.decision`` events and the series recorder's
  ``control_decisions`` are views of it;
* a :class:`LevelPolicy` is the :class:`ControlPolicy` the workload executor
  asks for consistency levels -- ``read_level(datacenter)`` /
  ``write_level(datacenter)`` -- and the one place a datacenter is resolved
  to a level (:func:`resolve_level`); on its own it holds a fixed pair and
  never ticks, the adaptive level policies subclass it;
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

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence

from repro.cluster.consistency import ConsistencyLevel
from repro.core.config import HarmonyConfig
from repro.core.model import StaleEstimate
from repro.core.monitor import ClusterMonitor, MonitoringSample
from repro.metrics.series import TimeSeries
from repro.sim.background import PeriodicProcess

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.cluster import SimulatedCluster

__all__ = [
    "Decision",
    "ControlPolicy",
    "ControlTick",
    "ControlPlane",
    "LevelPolicy",
    "resolve_level",
    "site_agnostic_level",
]


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

    #: Tick period the policy wants, in virtual seconds; ``None`` for a
    #: policy that never needs a tick of its own (static levels).  A plane
    #: given no explicit period ticks at the first one its policies declare.
    interval: Optional[float] = None

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

    def prime(self) -> None:
        """Take the baselines the first tick's window is measured against.

        Called when the policy is registered (so manual ticks have a window)
        and again when the plane starts: the executor registers its policies
        before the load phase, and a window left open since then would count
        the load as the first tick's traffic.
        """

    def tick(self, tick: ControlTick) -> List[Decision]:
        """Produce this tick's decisions (empty list = nothing changed)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


#: LOCAL_* levels resolved for a client with no replica-holding "local" site:
#: LOCAL_* is unsatisfiable at a coordinator whose datacenter holds no
#: replicas (``UnavailableException``), so "local" degrades to the
#: corresponding global level.
_SITE_AGNOSTIC = {
    ConsistencyLevel.LOCAL_ONE: ConsistencyLevel.ONE,
    ConsistencyLevel.LOCAL_QUORUM: ConsistencyLevel.QUORUM,
}

#: Blocking strength of the per-site decisions, to pick the strictest.
_STRICTNESS = {
    ConsistencyLevel.LOCAL_QUORUM: 1,
    ConsistencyLevel.EACH_QUORUM: 2,
    ConsistencyLevel.ALL: 3,
}


def site_agnostic_level(level: ConsistencyLevel) -> ConsistencyLevel:
    """A level safe at any coordinator, for clients not pinned to a site.

    ``LOCAL_ONE``/``LOCAL_QUORUM`` become ``ONE``/``QUORUM``; every other
    level (including ``EACH_QUORUM``, which needs no *local* replicas) is
    already coordinator-agnostic and passes through.
    """
    return _SITE_AGNOSTIC.get(level, level)


def resolve_level(
    decided: Mapping[str, ConsistencyLevel],
    fallback: ConsistencyLevel,
    replica_sites: Optional[Sequence[str]],
    datacenter: Optional[str],
) -> ConsistencyLevel:
    """The one ``datacenter -> level`` rule of every level policy.

    ``decided`` holds the per-site decisions (empty for a fixed level),
    ``fallback`` the level of a site without one, ``replica_sites`` the
    datacenters holding replicas (``None``: every site does -- a cluster
    without per-DC replication factors).

    * A client pinned to a replica-holding site gets that site's level.
    * A client pinned to a site holding no replicas gets it degraded by
      :func:`site_agnostic_level`.
    * An unpinned client (``datacenter=None``) has no local site to consult
      and may be routed to a coordinator anywhere: it gets the *strictest*
      level any site currently demands -- conservative, and it keeps an
      adaptive loop live instead of degrading to a static level -- degraded
      the same way.
    """
    if datacenter is None:
        strictest = max(
            decided.values(), key=lambda level: _STRICTNESS.get(level, 0), default=fallback
        )
        return site_agnostic_level(strictest)
    level = decided.get(datacenter, fallback)
    if replica_sites is not None and datacenter not in replica_sites:
        return site_agnostic_level(level)
    return level


@lru_cache(maxsize=256)
def _resolve_fixed_level(
    level: ConsistencyLevel, replica_sites: Optional[Sequence[str]], datacenter: Optional[str]
) -> ConsistencyLevel:
    """:func:`resolve_level` of a level no tick moves: looked up per operation, resolved once."""
    return resolve_level({}, level, replica_sites, datacenter)


class LevelPolicy(ControlPolicy):
    """The policy the workload executor asks for consistency levels.

    On its own: a fixed read/write pair that never ticks (the paper's static
    baselines -- eventual, strong, quorum -- and the DC-aware ones).  The
    adaptive level policies in :mod:`repro.control.policies` subclass it and
    move ``read_level`` / ``write_level`` from their ticks.

    Two names: ``name`` keys the decision records (``"harmony"``) and
    ``label`` is what reports show (``"harmony-20%"``,
    :attr:`RunMetrics.policy_name <repro.workload.executor.RunMetrics>`);
    a static policy emits no decisions and uses one string for both.

    Parameters
    ----------
    read / write:
        The fixed levels (writes default to ONE, as in the paper's setup:
        the adaptation is applied to reads).
    name:
        Report name of a static policy built directly from its levels.
    """

    name = "base"
    uses_monitor = False

    #: Harmony tunables the run's monitor is built with (``None``: defaults).
    config: Optional[HarmonyConfig] = None

    def __init__(
        self,
        read: ConsistencyLevel = ConsistencyLevel.ONE,
        write: ConsistencyLevel = ConsistencyLevel.ONE,
        name: Optional[str] = None,
    ) -> None:
        super().__init__()
        self._read = read
        self._write = write
        if name is not None:
            self.name = name
        self.label = self.name
        #: Datacenters holding replicas, in placement order (``None`` until
        #: bound, and on clusters without per-DC replication factors).
        self.replica_sites: Optional[Sequence[str]] = None

    def bind(self, plane: "ControlPlane") -> None:
        super().bind(plane)
        factors = plane.cluster.replication_factors
        self.replica_sites = (
            None if factors is None else tuple(dc for dc, rf in factors.items() if rf >= 1)
        )

    def read_level(self, datacenter: Optional[str] = None) -> ConsistencyLevel:
        """Level of the next read of a client pinned to ``datacenter``."""
        return _resolve_fixed_level(self._read, self.replica_sites, datacenter)

    def write_level(self, datacenter: Optional[str] = None) -> ConsistencyLevel:
        """Level of the next write of a client pinned to ``datacenter``."""
        return _resolve_fixed_level(self._write, self.replica_sites, datacenter)

    def tick(self, tick: ControlTick) -> List[Decision]:
        return []  # fixed levels: nothing to decide when a co-registered policy ticks

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.label!r}, read={self._read}, write={self._write})"


class ControlPlane:
    """Drives every registered :class:`ControlPolicy` on one periodic loop.

    Parameters
    ----------
    cluster:
        The cluster under control.
    config:
        Shared Harmony tunables (the monitor is built with them); when
        given, ``config.monitoring_interval`` is the tick period unless
        ``interval`` overrides it.
    monitor:
        Optional pre-built monitor (a fresh one is created otherwise).
    interval:
        Explicit tick period in virtual seconds.  With neither ``interval``
        nor ``config`` the plane ticks at the first period its policies
        declare (:attr:`ControlPolicy.interval`), and not at all when none
        does -- a plane of static levels schedules no engine event.
    """

    def __init__(
        self,
        cluster: "SimulatedCluster",
        config: Optional[HarmonyConfig] = None,
        monitor: Optional[ClusterMonitor] = None,
        *,
        interval: Optional[float] = None,
    ) -> None:
        self.cluster = cluster
        if interval is None and config is not None:
            interval = config.monitoring_interval
        if interval is not None and interval <= 0:
            raise ValueError(f"control interval must be positive, got {interval!r}")
        self._interval = None if interval is None else float(interval)
        self.config = config or HarmonyConfig()
        self._monitor = monitor
        self.policies: List[ControlPolicy] = []
        #: The run's one record of control: every decision of every policy,
        #: in the order taken.  Run metrics, the tracer and the series
        #: recorder derive their views from it.
        self.decisions: List[Decision] = []
        #: Ticks run so far.
        self.ticks = 0
        self._process: Optional[PeriodicProcess] = None
        #: Optional op-lifecycle tracer (see :mod:`repro.obs.tracer`): every
        #: decision of every registered policy is mirrored into the trace.
        self.tracer = None

    @property
    def interval(self) -> Optional[float]:
        """The tick period: explicit, else the first a policy declares."""
        if self._interval is not None:
            return self._interval
        return next((float(p.interval) for p in self.policies if p.interval is not None), None)

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
        """Register (bind and prime) one policy; returns it for chaining."""
        policy.bind(self)
        policy.prime()
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
        interval = self.interval
        if interval is None:
            return  # nothing registered ever wants a tick
        if self._monitor is not None or any(p.uses_monitor for p in self.policies):
            self.monitor.prime()
        for policy in self.policies:
            policy.prime()
        self._process = PeriodicProcess(
            self.cluster.engine, interval, self.tick, name="control-plane"
        )

    def stop(self) -> None:
        """Stop ticking (the last decisions remain in effect)."""
        if self._process is not None:
            self._process.stop()
            self._process = None

    # ------------------------------------------------------------------
    # Decision loop
    # ------------------------------------------------------------------
    def tick(self) -> List[Decision]:
        """Run one tick over every policy; returns the new decisions."""
        tick = ControlTick(self)
        self.ticks += 1
        produced: List[Decision] = []
        for policy in self.policies:
            produced.extend(policy.tick(tick))
        self.decisions.extend(produced)
        tracer = self.tracer
        if tracer is not None:
            for decision in produced:
                tracer.control_decision(decision)
        return produced

    @property
    def decision_counts(self) -> Dict[str, int]:
        """Decisions per ``policy.kind`` key, keys in first-decision order:
        a recount of the log (exported into run metrics)."""
        counts: Dict[str, int] = {}
        for decision in self.decisions:
            key = f"{decision.policy}.{decision.kind}"
            counts[key] = counts.get(key, 0) + 1
        return counts

    @property
    def estimate_series(self) -> TimeSeries:
        """The cluster-wide stale-read estimates of the decision log."""
        series = TimeSeries("stale_estimate")
        for decision in self.decisions:
            if decision.scope == "cluster" and decision.estimate is not None:
                series.append(decision.time, decision.estimate.probability)
        return series

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = ", ".join(policy.name for policy in self.policies) or "none"
        state = "running" if self.running else "stopped"
        return (
            f"ControlPlane(policies=[{names}], interval={self.interval}, "
            f"decisions={len(self.decisions)}, {state})"
        )
