"""Control-plane policies: every adaptive knob of the simulator in one idiom.

Six policies share the :class:`~repro.control.plane.ControlPolicy` spine.
Four are :class:`~repro.control.plane.LevelPolicy` subclasses -- the object
the workload executor asks for ``read_level(dc)`` / ``write_level(dc)`` *is*
the object the plane ticks:

* :class:`HarmonyReadPolicy` -- the paper's cluster-wide read-level loop
  (Section III: estimate the stale-read rate, compare it with the tolerated
  rate, pick ``Xn``), tuned by a :class:`HarmonyConfig`;
* :class:`GeoReadPolicy` -- the per-datacenter read-level loop;
* :class:`GeoReadWritePolicy` -- the per-datacenter **joint read/write**
  adaptation: instead of forcing the whole consistency requirement onto the
  read path, each site picks the ``(X reads, W writes)`` pair that satisfies
  its tolerated stale rate at the lowest blocking cost for its current
  read/write mix (read-heavy sites escalate writes, write-heavy sites
  escalate reads);
* :class:`ThresholdReadPolicy` -- the Wang et al.-style write/read-ratio
  threshold rule.

Two move other knobs:

* :class:`RepairSchedulePolicy` -- adapts the anti-entropy repair interval
  per DC pair from measured leaf-diff divergence, with the pair's repair
  WAN traffic fed back as a cost term;
* :class:`ScaleOutPolicy` -- demand-driven ring membership.

:func:`make_policy` is the one way to name a level policy: ``"eventual"``,
``"harmony-20%"``, ``"geo-harmony"``, ... -- the names the experiments,
benchmarks and chaos corpus are phrased in.  The model arithmetic is shared
through :class:`~repro.control.estimator.StalenessEstimator`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Tuple

from repro.cluster.consistency import (
    ConsistencyLevel,
    level_for_replicas,
    local_level_for_replicas,
    quorum_size,
)
from repro.control.estimator import StalenessEstimator
from repro.control.plane import (
    ControlPolicy,
    ControlTick,
    Decision,
    LevelPolicy,
    resolve_level,
)
from repro.control.monitor import MonitoringSample
from repro.metrics.series import TimeSeries

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.scenarios import Scenario

__all__ = [
    "HarmonyConfig",
    "HarmonyReadPolicy",
    "GeoReadPolicy",
    "GeoReadWritePolicy",
    "RepairControlConfig",
    "RepairSchedulePolicy",
    "ThresholdReadPolicy",
    "ScaleOutConfig",
    "ScaleOutPolicy",
    "make_policy",
]


@dataclass(frozen=True)
class HarmonyConfig:
    """Tunables of the Harmony loop.

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

    Everything else the loop needs it measures (see
    :mod:`repro.control.monitor`, which holds the monitor's fixed constants).
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


def _percent(rate: float) -> str:
    return f"{int(round(rate * 100))}%"


class HarmonyReadPolicy(LevelPolicy):
    """Cluster-wide adaptive read levels (paper Section III, one scope).

    Holds the current decision between ticks; :meth:`decide` can also be
    driven manually with a hand-built sample (the unit-test path).  Writes
    stay at the fixed ``write`` level (ONE, as in the paper).
    """

    name = "harmony"
    kind = "read_level"
    uses_monitor = True

    def __init__(
        self,
        config: Optional[HarmonyConfig] = None,
        write: ConsistencyLevel = ConsistencyLevel.ONE,
    ) -> None:
        super().__init__(write=write)
        self.config = config or HarmonyConfig()
        self.interval = self.config.monitoring_interval
        self.label = f"harmony-{_percent(self.config.tolerated_stale_rate)}"
        self.estimator: Optional[StalenessEstimator] = None
        self.current_level = ConsistencyLevel.ONE

    def read_level(self, datacenter: Optional[str] = None) -> ConsistencyLevel:
        return self.current_level  # a cluster-wide level needs no per-site rule

    def bind(self, plane) -> None:
        super().bind(plane)
        self.estimator = StalenessEstimator({None: plane.cluster.replication_factor})

    # ------------------------------------------------------------------
    def decide(self, sample: MonitoringSample) -> Decision:
        """Run the paper's decision scheme on one monitoring sample."""
        assert self.estimator is not None, "policy must be bound before deciding"
        asr = self.config.tolerated_stale_rate
        estimate, replicas = self.estimator.decide_replicas(sample, asr)
        level = level_for_replicas(replicas, self.estimator.replication_factor())
        decision = Decision(
            time=self.cluster.engine.now,
            policy=self.name,
            scope="cluster",
            kind=self.kind,
            value=level,
            replicas=replicas,
            estimate=estimate,
            sample=sample,
        )
        self.current_level = level
        return decision

    def tick(self, tick: ControlTick) -> List[Decision]:
        return [self.decide(tick.sample)]


class GeoReadPolicy(LevelPolicy):
    """Per-datacenter adaptive read levels (the geo controller's scheme).

    One estimator scope per replica-holding datacenter, evaluated against
    the site's **local** replication factor, so every site independently
    picks the replica involvement that keeps its own stale-read estimate
    under its own tolerance and maps it onto the local levels; sites without
    replicas fall back to level ONE (the closest replica, wherever it
    lives).

    Parameters
    ----------
    config:
        Shared Harmony configuration; a default one is built if omitted.
    tolerated_stale_rates:
        Per-datacenter ASR overrides (sites without an entry use
        ``config.tolerated_stale_rate``).
    write:
        The fixed write level (``LOCAL_ONE``: acknowledge on one local
        replica, replicate across the WAN asynchronously -- the geo analogue
        of the paper's writes-at-ONE setup).
    """

    name = "geo-harmony"
    kind = "read_level"
    uses_monitor = True

    def __init__(
        self,
        config: Optional[HarmonyConfig] = None,
        tolerated_stale_rates: Optional[Mapping[str, float]] = None,
        write: ConsistencyLevel = ConsistencyLevel.LOCAL_ONE,
    ) -> None:
        super().__init__(read=ConsistencyLevel.LOCAL_ONE, write=write)
        self.config = config or HarmonyConfig()
        self.interval = self.config.monitoring_interval
        #: The per-site overrides until bound, every site's tolerance after.
        self.tolerated_stale_rates: Dict[str, float] = dict(tolerated_stale_rates or {})
        rates = "/".join(
            f"{dc}:{_percent(asr)}" for dc, asr in sorted(self.tolerated_stale_rates.items())
        ) or _percent(self.config.tolerated_stale_rate)
        self.label = f"{self.name}-{rates}"
        self.estimator: Optional[StalenessEstimator] = None
        self.current_level: Dict[str, ConsistencyLevel] = {}

    def read_level(self, datacenter: Optional[str] = None) -> ConsistencyLevel:
        return resolve_level(self.current_level, self._read, self.replica_sites, datacenter)

    def bind(self, plane) -> None:
        super().bind(plane)
        cluster = plane.cluster
        factors = cluster.replication_factors
        if factors is None:
            raise ValueError(
                "per-datacenter control needs a cluster using NetworkTopologyStrategy "
                "(per-DC replication factors); got "
                f"{type(cluster.strategy).__name__}"
            )
        overrides = self.tolerated_stale_rates
        unknown = set(overrides) - set(cluster.datacenter_names)
        if unknown:
            raise ValueError(
                f"tolerated_stale_rates references unknown datacenter(s) {sorted(unknown)}"
            )
        for dc, asr in overrides.items():
            if not 0.0 <= asr <= 1.0:
                raise ValueError(
                    f"tolerated stale rate for {dc!r} must be in [0, 1], got {asr!r}"
                )
        self.tolerated_stale_rates = {
            dc: overrides.get(dc, self.config.tolerated_stale_rate)
            for dc in cluster.datacenter_names
        }
        self.estimator = StalenessEstimator({dc: factors[dc] for dc in self.replica_sites})
        self.current_level = {
            dc: (
                ConsistencyLevel.LOCAL_ONE
                if dc in self.estimator.factors
                else ConsistencyLevel.ONE
            )
            for dc in cluster.datacenter_names
        }

    # ------------------------------------------------------------------
    def decide(self, datacenter: str, sample: MonitoringSample) -> Decision:
        """Run the decision scheme for one datacenter."""
        assert self.estimator is not None, "policy must be bound before deciding"
        if datacenter not in self.estimator.factors:
            raise ValueError(f"datacenter {datacenter!r} holds no replicas")
        asr = self.tolerated_stale_rates[datacenter]
        estimate, replicas = self.estimator.decide_replicas(sample, asr, scope=datacenter)
        level = local_level_for_replicas(
            replicas, self.estimator.replication_factor(datacenter)
        )
        decision = Decision(
            time=self.cluster.engine.now,
            policy=self.name,
            scope=f"dc:{datacenter}",
            kind=self.kind,
            value=level,
            replicas=replicas,
            estimate=estimate,
            sample=sample,
        )
        self.current_level[datacenter] = level
        return decision

    def tick(self, tick: ControlTick) -> List[Decision]:
        assert self.estimator is not None
        samples = tick.samples_by_dc
        return [self.decide(dc, samples[dc]) for dc in self.estimator.factors]


class GeoReadWritePolicy(GeoReadPolicy):
    """Joint per-datacenter read *and* write level adaptation.

    The paper (and :class:`GeoReadPolicy`) adapts reads only: writes stay at
    one acknowledged replica and the read path absorbs the whole
    consistency requirement.  But the stale-read probability depends on the
    overlap of the read and written sets -- ``C(N-W, X) / C(N, X)`` -- so
    the same tolerance can be met by many ``(X, W)`` pairs, and which pair
    blocks *least* depends on the read/write mix: a read-heavy site should
    pay on its rare writes, a write-heavy site on its rare reads.

    Per tick and per datacenter the policy searches the pairs

    ``X in 1..N_local``  x  ``W in {1, local_quorum}``

    for the feasible pair (estimated staleness <= the site's tolerance)
    minimizing the blocking-cost proxy ``read_rate * X + write_rate * W``;
    ties break toward lower ``W``, then lower ``X`` (the paper's read-led
    behaviour).  ``X`` maps onto LOCAL_ONE/LOCAL_QUORUM/ALL exactly as the
    read-only policy does; ``W = 1`` maps to LOCAL_ONE and
    ``W = local_quorum`` to LOCAL_QUORUM.

    Everything is a pure function of the monitoring sample: the policy
    consumes no randomness.  Validation, per-site tolerances and the read
    side's state are the read-only policy's.
    """

    name = "geo-harmony-rw"

    def __init__(
        self,
        config: Optional[HarmonyConfig] = None,
        tolerated_stale_rates: Optional[Mapping[str, float]] = None,
    ) -> None:
        super().__init__(config, tolerated_stale_rates)
        self.current_write_level: Dict[str, ConsistencyLevel] = {}

    def write_level(self, datacenter: Optional[str] = None) -> ConsistencyLevel:
        return resolve_level(
            self.current_write_level, self._write, self.replica_sites, datacenter
        )

    def bind(self, plane) -> None:
        super().bind(plane)
        # Same starting point as the read side: LOCAL_ONE where replicas live.
        self.current_write_level = dict(self.current_level)

    # ------------------------------------------------------------------
    def search(
        self, datacenter: str, sample: MonitoringSample
    ) -> Tuple[int, int]:
        """The ``(X, W)`` pair for one site and sample (pure, for tests)."""
        estimator = self.estimator
        assert estimator is not None, "policy must be bound before deciding"
        if datacenter not in estimator.factors:
            raise ValueError(f"datacenter {datacenter!r} holds no replicas")
        n = estimator.replication_factor(datacenter)
        asr = self.tolerated_stale_rates[datacenter]
        write_candidates = sorted({1, quorum_size(n)})
        best: Optional[Tuple[float, int, int]] = None
        for w in write_candidates:
            for x in range(1, n + 1):
                probability = estimator.stale_probability_rw(
                    sample, read_replicas=x, write_replicas=w, scope=datacenter
                )
                if probability > asr:
                    continue
                cost = sample.read_rate * x + sample.write_rate * w
                key = (cost, w, x)
                if best is None or key < best:
                    best = key
        assert best is not None  # X = N is always feasible (miss probability 0)
        _cost, w, x = best
        return x, w

    def decide(self, datacenter: str, sample: MonitoringSample) -> List[Decision]:
        """Joint read+write decision for one datacenter (two records)."""
        estimator = self.estimator
        assert estimator is not None
        x, w = self.search(datacenter, sample)
        n = estimator.replication_factor(datacenter)
        asr = self.tolerated_stale_rates[datacenter]
        estimate = estimator.evaluate(sample, asr, scope=datacenter)
        achieved = estimator.stale_probability_rw(
            sample, read_replicas=x, write_replicas=w, scope=datacenter
        )
        now = self.cluster.engine.now
        read_level = local_level_for_replicas(x, n)
        write_level = (
            ConsistencyLevel.LOCAL_ONE if w <= 1 else ConsistencyLevel.LOCAL_QUORUM
        )
        read_decision = Decision(
            time=now,
            policy=self.name,
            scope=f"dc:{datacenter}",
            kind="read_level",
            value=read_level,
            replicas=x,
            estimate=estimate,
            sample=sample,
            achieved_staleness=achieved,
        )
        write_decision = Decision(
            time=now,
            policy=self.name,
            scope=f"dc:{datacenter}",
            kind="write_level",
            value=write_level,
            replicas=w,
            estimate=estimate,
            sample=sample,
            achieved_staleness=achieved,
        )
        self.current_level[datacenter] = read_level
        self.current_write_level[datacenter] = write_level
        return [read_decision, write_decision]

    def tick(self, tick: ControlTick) -> List[Decision]:
        assert self.estimator is not None
        samples = tick.samples_by_dc
        decisions: List[Decision] = []
        for dc in self.estimator.factors:
            decisions.extend(self.decide(dc, samples[dc]))
        return decisions


#: Multiplier applied to a pair's repair interval when its last completed
#: session found divergence.
TIGHTEN_FACTOR = 0.5
#: Multiplier applied when the pair's sessions came back clean.
RELAX_FACTOR = 1.5
#: Differing Merkle leaves (since the previous control tick) that count as
#: divergence.
DIVERGENCE_THRESHOLD = 1


@dataclass(frozen=True)
class RepairControlConfig:
    """Tunables of the adaptive anti-entropy repair scheduler.

    Attributes
    ----------
    min_interval / max_interval:
        Bounds of the per-pair repair interval in virtual seconds.
    wan_budget_bytes_per_s:
        Optional cost cap: when the pair's repair traffic over the control
        window exceeds this rate, the interval is relaxed even under
        divergence -- the repair traffic feeding back into the decision.
        When the cluster's fabric models bandwidth
        (:class:`~repro.network.transfers.BandwidthConfig`), the budget
        additionally becomes *physical* backpressure: the policy installs
        it as the aggregate rate cap of the ``"repair"`` transfer group and
        sets the repair service's stream-issue backlog limit, so repair
        flows cannot exceed the budget no matter how many streams are live.
    backlog_pace_s:
        Stream-issue pacing horizon: the repair service is allowed to keep
        up to ``wan_budget_bytes_per_s * backlog_pace_s`` unstreamed bytes
        queued per link before deferring the rest of a diff (only
        meaningful with bandwidth modeling on).
    """

    min_interval: float = 5.0
    max_interval: float = 60.0
    wan_budget_bytes_per_s: Optional[float] = None
    backlog_pace_s: float = 1.0

    def __post_init__(self) -> None:
        if self.min_interval <= 0:
            raise ValueError("min_interval must be positive")
        if self.max_interval < self.min_interval:
            raise ValueError("max_interval must be >= min_interval")
        if self.wan_budget_bytes_per_s is not None and self.wan_budget_bytes_per_s <= 0:
            raise ValueError("wan_budget_bytes_per_s must be positive")
        if self.backlog_pace_s <= 0:
            raise ValueError("backlog_pace_s must be positive")


class RepairSchedulePolicy(ControlPolicy):
    """Divergence-driven anti-entropy scheduling, per DC pair.

    A fixed repair interval pays the tree-exchange WAN cost forever, even
    when sites never diverge; a long interval leaves real divergence (after
    partitions, outages) unrepaired.  This policy watches every pair's
    completed sessions between control ticks:

    * leaf diffs at or above ``DIVERGENCE_THRESHOLD`` -> **tighten** the
      pair's interval (multiply by ``TIGHTEN_FACTOR``, floor at
      ``min_interval``) so convergence accelerates while divergence lasts;
    * clean sessions -> **relax** (multiply by ``RELAX_FACTOR``, cap at
      ``max_interval``) so steady state pays almost nothing;
    * repair traffic above ``wan_budget_bytes_per_s`` -> relax even under
      divergence: the pair is already streaming as fast as the budget
      allows, and more sessions would only add tree-exchange overhead.

    When the fabric models bandwidth, the budget is additionally enforced
    *physically* at bind time: it becomes the aggregate fair-share rate cap
    of the ``"repair"`` transfer group on every link, and the repair
    service's stream issue is paced against the measured link backlog
    (``stream_backlog_limit``).  A pair whose link still carries a full
    backlog at tick time counts as over budget even if little traffic
    *completed* in the window -- queue depth is the real congestion signal.

    Ticks where a pair completed no session carry no new information and
    leave its interval untouched.  The policy consumes no randomness.
    """

    name = "repair-schedule"
    kind = "repair_interval"
    #: Steers from the repair service's session stats, never from the
    #: monitor -- a plane carrying only this policy builds no monitor.
    uses_monitor = False

    def __init__(self, service, config: Optional[RepairControlConfig] = None) -> None:
        super().__init__()
        self.service = service
        self.config = config or RepairControlConfig()
        self._previous: Dict[Tuple[str, str], Tuple[int, int, int]] = {}
        self._last_tick_at: float = 0.0
        self._fabric = None

    @property
    def interval(self) -> float:
        """One control evaluation per base repair tick: the policy only acts
        on completed sessions, so a faster cadence of its own would add ticks
        without adding information."""
        return self.service.config.interval

    def bind(self, plane) -> None:
        super().bind(plane)
        fabric = plane.cluster.fabric
        budget = self.config.wan_budget_bytes_per_s
        if budget is not None and fabric.bandwidth_enabled:
            # Make the budget physical: cap the repair transfer group's
            # aggregate fair-share rate per link and pace the service's
            # stream issue against measured backlog.
            self._fabric = fabric
            fabric.set_transfer_group_cap("repair", budget)
            self.service.stream_backlog_limit = budget * self.config.backlog_pace_s

    def prime(self) -> None:
        self._last_tick_at = self.cluster.engine.now
        for pair in self.service.pairs:
            stats = self.service.stats[pair]
            self._previous[pair] = (
                stats.sessions_completed,
                stats.ranges_diffed,
                stats.bytes_sent,
            )

    # ------------------------------------------------------------------
    def tick(self, tick: ControlTick) -> List[Decision]:
        now = tick.now
        window = max(now - self._last_tick_at, 1e-9)
        self._last_tick_at = now
        decisions: List[Decision] = []
        for pair in self.service.pairs:
            stats = self.service.stats[pair]
            prev_sessions, prev_diffs, prev_bytes = self._previous[pair]
            sessions = stats.sessions_completed - prev_sessions
            diffs = stats.ranges_diffed - prev_diffs
            traffic = stats.bytes_sent - prev_bytes
            self._previous[pair] = (
                stats.sessions_completed,
                stats.ranges_diffed,
                stats.bytes_sent,
            )
            if sessions == 0:
                continue  # no completed session since the last tick: no signal
            current = self.service.pair_interval(pair)
            diverging = diffs >= DIVERGENCE_THRESHOLD
            budget = self.config.wan_budget_bytes_per_s
            over_budget = budget is not None and traffic / window > budget
            if not over_budget and self._fabric is not None:
                # Physical signal: unstreamed backlog still queued on the
                # pair's link means the pipe is saturated regardless of how
                # much traffic completed inside this window.
                limit = self.service.stream_backlog_limit
                if limit is not None and self._fabric.transfer_backlog_bytes(*pair) >= limit:
                    over_budget = True
            if diverging and not over_budget:
                target = max(self.config.min_interval, current * TIGHTEN_FACTOR)
            else:
                target = min(self.config.max_interval, current * RELAX_FACTOR)
            if abs(target - current) <= 1e-12:
                continue
            self.service.set_pair_interval(pair, target)
            decisions.append(
                Decision(
                    time=now,
                    policy=self.name,
                    scope=f"pair:{pair[0]}|{pair[1]}",
                    kind=self.kind,
                    value=target,
                )
            )
        return decisions


class ThresholdReadPolicy(LevelPolicy):
    """Read/write-ratio threshold rule (Wang et al.-style related work).

    Every ``monitoring_interval`` the policy compares the measured
    write/read ratio against a static threshold -- windowed rates from
    :class:`~repro.cluster.stats.ClusterStats` snapshots; idle windows keep
    the current level, a window with writes but no reads escalates to ALL,
    otherwise reads go to ALL when ``write_rate / read_rate`` exceeds the
    threshold and to ONE when it does not.  The paper criticises exactly
    this kind of arbitrary static threshold; the ablation benchmark
    quantifies the difference against Harmony's model-driven decision.

    Steers from request counters, not the monitor: a plane carrying only
    this policy probes nothing and consumes no randomness.
    """

    name = "threshold"
    kind = "read_level"

    def __init__(
        self,
        threshold: float = 0.3,
        monitoring_interval: float = 0.5,
        write: ConsistencyLevel = ConsistencyLevel.ONE,
    ) -> None:
        if threshold < 0:
            raise ValueError(f"threshold must be non-negative, got {threshold!r}")
        if monitoring_interval <= 0:
            raise ValueError("monitoring_interval must be positive")
        super().__init__(write=write)
        self.threshold = float(threshold)
        self.interval = float(monitoring_interval)
        self.label = f"threshold-{threshold:g}"
        self.current_level = ConsistencyLevel.ONE
        self._previous = None

    def read_level(self, datacenter: Optional[str] = None) -> ConsistencyLevel:
        return self.current_level

    def prime(self) -> None:
        self._previous = self.cluster.stats.snapshot(self.cluster.engine.now)

    # ------------------------------------------------------------------
    def tick(self, tick: ControlTick) -> List[Decision]:
        cluster = self.cluster
        current = cluster.stats.snapshot(tick.now)
        rates = cluster.stats.window_rates(self._previous, current)
        self._previous = current
        level = self.current_level
        if rates["read_rate"] > 0 or rates["write_rate"] > 0:
            if rates["read_rate"] <= 0:
                level = ConsistencyLevel.ALL
            elif rates["write_rate"] / rates["read_rate"] > self.threshold:
                level = ConsistencyLevel.ALL
            else:
                level = ConsistencyLevel.ONE
        self.current_level = level
        # One decision every tick -- idle windows included -- so the log's
        # trajectory always covers the whole run.
        return [
            Decision(
                time=tick.now,
                policy=self.name,
                scope="cluster",
                kind=self.kind,
                value=level,
                replicas=level.blocked_for(cluster.replication_factor),
            )
        ]


@dataclass(frozen=True)
class ScaleOutConfig:
    """Tunables of the demand-driven membership policy.

    Attributes
    ----------
    high_ops_per_node / low_ops_per_node:
        Per-member operation rate (reads + writes per second divided by the
        datacenter's ring members) above which the site counts as under
        pressure, and below which it counts as over-provisioned.
    sustain_ticks:
        Consecutive ticks a signal must persist before acting -- transient
        spikes never trigger a topology change.
    cooldown:
        Minimum virtual seconds between membership actions in one
        datacenter (a transition must also have fully completed).
    min_members_per_dc:
        Never decommission below this many members per site.
    """

    high_ops_per_node: float = 120.0
    low_ops_per_node: float = 40.0
    sustain_ticks: int = 3
    cooldown: float = 30.0
    min_members_per_dc: int = 1

    def __post_init__(self) -> None:
        if self.high_ops_per_node <= 0:
            raise ValueError("high_ops_per_node must be positive")
        if not 0 <= self.low_ops_per_node < self.high_ops_per_node:
            raise ValueError("low_ops_per_node must be in [0, high_ops_per_node)")
        if self.sustain_ticks < 1:
            raise ValueError("sustain_ticks must be >= 1")
        if self.cooldown < 0:
            raise ValueError("cooldown must be non-negative")
        if self.min_members_per_dc < 1:
            raise ValueError("min_members_per_dc must be >= 1")


class ScaleOutPolicy(ControlPolicy):
    """Demand-driven elasticity: add/remove ring members per datacenter.

    Sustained per-member load above the high watermark bootstraps a provisioned spare into the site's ring;
    sustained load below the low watermark decommissions the most recently
    provisioned member back to spare.  All data movement runs through the
    cluster's :class:`~repro.cluster.membership.MembershipManager`, so every
    scaling action inherits the pending-range write guarantees -- a scaling
    decision can be slow, but never wrong.
    """

    name = "scale_out"
    kind = "membership"
    uses_monitor = True

    def __init__(self, config: Optional[ScaleOutConfig] = None) -> None:
        super().__init__()
        self.config = config or ScaleOutConfig()
        self._pressure: Dict[str, int] = {}
        self._relief: Dict[str, int] = {}
        self._last_action: Dict[str, float] = {}
        self.member_series = TimeSeries("ring_members")

    def bind(self, plane) -> None:
        super().bind(plane)
        cluster = plane.cluster
        if getattr(cluster, "membership", None) is None:
            raise ValueError(
                "ScaleOutPolicy needs a MembershipManager installed on the "
                "cluster (repro.cluster.membership) -- it owns the transitions"
            )
        for dc in cluster.datacenter_names:
            self._pressure[dc] = 0
            self._relief[dc] = 0
            self._last_action[dc] = float("-inf")

    # ------------------------------------------------------------------
    def tick(self, tick: ControlTick) -> List[Decision]:
        cluster = self.cluster
        manager = cluster.membership
        config = self.config
        dcs = cluster.datacenter_names
        if len(dcs) > 1:
            samples = tick.samples_by_dc
        else:
            samples = {dcs[0]: tick.sample}
        decisions: List[Decision] = []
        self.member_series.append(tick.now, float(len(cluster.members)))
        for dc in dcs:
            sample = samples.get(dc)
            if sample is None:
                continue
            members = cluster.members_in(dc)
            ops_per_node = (sample.read_rate + sample.write_rate) / max(1, len(members))
            hot = ops_per_node >= config.high_ops_per_node
            cold = not hot and ops_per_node <= config.low_ops_per_node
            self._pressure[dc] = self._pressure[dc] + 1 if hot else 0
            self._relief[dc] = self._relief[dc] + 1 if cold else 0
            if self._busy(dc) or tick.now - self._last_action[dc] < config.cooldown:
                continue
            if self._pressure[dc] >= config.sustain_ticks:
                decision = self._scale_out(dc, tick, sample)
            elif self._relief[dc] >= config.sustain_ticks:
                decision = self._scale_in(dc, tick, sample, members)
            else:
                continue
            if decision is not None:
                self._pressure[dc] = 0
                self._relief[dc] = 0
                self._last_action[dc] = tick.now
                decisions.append(decision)
        return decisions

    # ------------------------------------------------------------------
    def _busy(self, dc: str) -> bool:
        """Whether the site already has a membership transition in flight."""
        cluster = self.cluster
        manager = cluster.membership
        return any(
            cluster.topology.datacenter_of(t.node) == dc
            for t in manager.active_transitions()
        )

    def _scale_out(self, dc: str, tick: ControlTick, sample) -> Optional[Decision]:
        cluster = self.cluster
        spare = next(
            (
                a
                for a in cluster.spares
                if cluster.topology.datacenter_of(a) == dc and cluster.nodes[a].is_up
            ),
            None,
        )
        if spare is None:
            return None  # site fully scaled out
        cluster.membership.begin_bootstrap(spare)
        return Decision(
            time=tick.now,
            policy=self.name,
            scope=f"dc:{dc}",
            kind=self.kind,
            value=f"bootstrap:{spare}",
            sample=sample,
        )

    def _scale_in(self, dc: str, tick: ControlTick, sample, members) -> Optional[Decision]:
        cluster = self.cluster
        config = self.config
        floor = config.min_members_per_dc
        factors = cluster.replication_factors
        if factors is not None:
            floor = max(floor, factors.get(dc, 0))
        if len(members) - 1 < floor:
            return None
        if len(cluster.members) - 1 < cluster.config.replication_factor:
            return None
        manager = cluster.membership
        candidate = next(
            (
                a
                for a in reversed(members)
                if manager.transition(a) is None and cluster.nodes[a].is_up
            ),
            None,
        )
        if candidate is None:
            return None
        manager.begin_decommission(candidate)
        return Decision(
            time=tick.now,
            policy=self.name,
            scope=f"dc:{dc}",
            kind=self.kind,
            value=f"decommission:{candidate}",
            sample=sample,
        )


def _stale_rate(spec: str) -> float:
    """``"20%"`` -> 0.2; a bare number above 1 is a percentage too (``"20"``)."""
    if spec.endswith("%"):
        rate = float(spec[:-1]) / 100.0
    else:
        rate = float(spec)
        if rate > 1.0:
            rate /= 100.0
    return rate


def _static_geo(read: ConsistencyLevel) -> LevelPolicy:
    """A fixed DC-aware read level, writes at LOCAL_ONE."""
    write = ConsistencyLevel.LOCAL_ONE
    return LevelPolicy(read, write, name=f"static-geo({read.value}/{write.value})")


def _site_rates(scenario: Optional["Scenario"]) -> Mapping[str, float]:
    """The per-datacenter ASR map the geo loops are named against."""
    if scenario is None:
        raise ValueError("geo-harmony policies take their per-site tolerances from a scenario")
    return scenario.harmony_stale_rates_by_dc


#: Policy name (or ``"<family>-"`` prefix, applied to the rest of the name)
#: -> constructor ``(spec, scenario, interval)``, where ``interval`` is
#: ``{"monitoring_interval": x}`` when the caller overrides it and ``{}``
#: otherwise -- both ``HarmonyConfig`` and ``ThresholdReadPolicy`` take it
#: under that name.
_POLICIES: Dict[str, Callable[[str, Optional["Scenario"], Dict[str, float]], LevelPolicy]] = {
    "eventual": lambda spec, scenario, interval: LevelPolicy(
        ConsistencyLevel.ONE, ConsistencyLevel.ONE, name="eventual"
    ),
    "strong": lambda spec, scenario, interval: LevelPolicy(
        ConsistencyLevel.ALL, ConsistencyLevel.ONE, name="strong"
    ),
    "quorum": lambda spec, scenario, interval: LevelPolicy(
        ConsistencyLevel.QUORUM, ConsistencyLevel.QUORUM, name="quorum"
    ),
    "local_one": lambda spec, scenario, interval: _static_geo(ConsistencyLevel.LOCAL_ONE),
    "local_quorum": lambda spec, scenario, interval: _static_geo(ConsistencyLevel.LOCAL_QUORUM),
    "each_quorum": lambda spec, scenario, interval: _static_geo(ConsistencyLevel.EACH_QUORUM),
    "geo-harmony": lambda spec, scenario, interval: GeoReadPolicy(
        HarmonyConfig(**interval), _site_rates(scenario)
    ),
    "geo-harmony-rw": lambda spec, scenario, interval: GeoReadWritePolicy(
        HarmonyConfig(**interval), _site_rates(scenario)
    ),
    "harmony-": lambda spec, scenario, interval: HarmonyReadPolicy(
        HarmonyConfig(tolerated_stale_rate=_stale_rate(spec), **interval)
    ),
    "threshold-": lambda spec, scenario, interval: ThresholdReadPolicy(float(spec), **interval),
}


def make_policy(
    name: str,
    scenario: Optional["Scenario"] = None,
    *,
    monitoring_interval: Optional[float] = None,
) -> LevelPolicy:
    """Build a level policy (the object the run's control plane ticks) from its name.

    Recognised names:

    * ``eventual`` -- static eventual consistency (every operation at ONE);
    * ``strong`` -- static strong consistency (reads at ALL, writes at ONE,
      the paper's strong series);
    * ``quorum`` -- static QUORUM reads and writes (R + W > N);
    * ``harmony-<asr>`` -- Harmony with the given tolerated stale rate: a
      trailing ``%`` always means percent (``harmony-20%``, ``harmony-0.5%``),
      a bare number is a rate up to 1 and a percentage above it
      (``harmony-0.2`` and ``harmony-20`` are the same policy);
    * ``threshold-<x>`` -- write/read-ratio threshold baseline;
    * ``local_one`` / ``local_quorum`` / ``each_quorum`` -- static DC-aware
      read levels (geo scenarios; writes at LOCAL_ONE);
    * ``geo-harmony`` -- the per-datacenter adaptive loop, using the
      ``scenario``'s ``harmony_stale_rates_by_dc``;
    * ``geo-harmony-rw`` -- joint per-datacenter read *and* write
      adaptation (same ASR map); read-heavy sites escalate writes instead
      of reads.

    Only the two geo loops need ``scenario``.  ``monitoring_interval``
    overrides the tick period of the adaptive ones.  Other settings (a
    different write level, per-site tolerances of one's own) are the
    classes' constructor arguments.
    """
    lowered = name.lower()
    build = _POLICIES.get(lowered)
    spec = ""
    if build is None:
        family, _, spec = lowered.partition("-")
        build = _POLICIES.get(family + "-") if spec else None
    if build is None:
        raise ValueError(f"unknown policy name {name!r}")
    interval = {} if monitoring_interval is None else {"monitoring_interval": monitoring_interval}
    return build(spec, scenario, interval)
