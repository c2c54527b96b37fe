"""Deterministic chaos run: workload + fault schedule + invariant suite.

:func:`run_chaos` is the single entry point everything in the chaos stack
shares -- the search CLI, the shrinker and the corpus replay tests all call
it, which is what makes a schedule found by one replayable by the others.

One run is a fixed phase sequence (all in virtual time):

1. **Load** -- the workload's records are bulk-loaded into every replica.
2. **Run** -- the fault schedule is armed, cross-DC anti-entropy starts,
   and clients execute the workload while faults fire.  The client run is
   sized (via its think time) to outlast the fault horizon so there is
   always a post-heal observation window.
3. **Heal** -- the engine is driven past the schedule horizon so every
   scheduled heal has fired; any fault state *still* active afterwards is
   recorded as an ``unhealed_state`` violation and then force-cleared so
   the rest of the suite can produce meaningful verdicts.
4. **Converge** -- buffered hints are flushed (Cassandra's periodic hint
   delivery), repair runs for a configurable number of extra rounds, the
   service stops and the cluster settles.
5. **Check** -- the :class:`~repro.chaos.invariants.InvariantChecker`
   suite runs (its probes drive the engine through the public API).

Trace identity
--------------
Every report carries two phase hashes -- the client-run summary and the
final cluster state -- folded into one :meth:`ChaosReport.signature` (the
SHA-256 of the newline-joined phase hashes).  The shrinker re-runs
a schedule and compares signatures before trusting any verdict, so
nondeterminism is *detected*, never silently shrunk around.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.chaos.invariants import InvariantChecker, Violation
from repro.cluster.antientropy import AntiEntropyConfig
from repro.cluster.cluster import SimulatedCluster
from repro.cluster.membership import MembershipManager
from repro.control.policies import make_policy
from repro.experiments.scenarios import Scenario, ScenarioRegistry
from repro.faults.schedule import FaultInjector, FaultSchedule
from repro.faults.timeline import FaultTimeline
from repro.workload.executor import WorkloadExecutor
from repro.workload.workloads import WorkloadConfig

__all__ = ["ChaosConfig", "ChaosReport", "run_chaos"]


def _hash_obj(obj: Any) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, default=str).encode("utf-8")
    ).hexdigest()


#: Share of client operations that are reads (the rest are updates).
READ_PROPORTION = 0.5
#: Seconds between cross-DC anti-entropy rounds on multi-DC scenarios.
REPAIR_INTERVAL = 2.5
#: Clean repair rounds run after the heal, before the suite judges.
REPAIR_ROUNDS = 2
#: Grace after the heal before reads are judged (also the membership
#: straggler window's base).
POST_HEAL_GRACE = 3.0
#: Post-heal stale-read rate the checker tolerates, cluster-wide and per DC.
STALE_BOUND = 0.5
PER_DC_STALE_BOUND = 0.9
#: Fewest post-heal judged reads before a stale rate is held to its bound.
MIN_JUDGED_READS = 25


@dataclass(frozen=True)
class ChaosConfig:
    """Everything besides the schedule that defines one chaos run.

    ``seed`` feeds the cluster/workload RNG tree (the schedule has its own
    generator seed); ``policy=None`` picks ``local_quorum`` for multi-DC
    scenarios and ``quorum`` otherwise.  The client pace
    (:meth:`resolved_think_time`) stretches the run about 40% past the
    fault horizon.
    """

    scenario: str = "grid5000_3sites"
    seed: int = 0
    record_count: int = 60
    operation_count: int = 420
    threads: int = 6
    policy: Optional[str] = None
    horizon: float = 12.0

    def __post_init__(self) -> None:
        for name in ("threads", "record_count", "operation_count"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        if self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon!r}")
        if self.scenario.lower() not in ScenarioRegistry.names():
            raise ValueError(
                f"unknown scenario {self.scenario!r}; available: {ScenarioRegistry.names()}"
            )

    def overrides(self) -> Dict[str, Any]:
        """Non-default fields as a dict (the corpus ``config`` block)."""
        defaults = ChaosConfig()
        return {
            name: getattr(self, name)
            for name in self.__dataclass_fields__
            if getattr(self, name) != getattr(defaults, name)
        }

    def resolved_think_time(self) -> float:
        span = self.horizon * 1.4 + 2.0
        ops_per_thread = max(1, self.operation_count // self.threads)
        return round(span / ops_per_thread, 4)


@dataclass
class ChaosReport:
    """Outcome of one chaos run: verdicts plus the evidence behind them."""

    config: ChaosConfig
    schedule: FaultSchedule
    violations: List[Violation] = field(default_factory=list)
    metrics_summary: Dict[str, Any] = field(default_factory=dict)
    injector_log: List[Tuple[float, str]] = field(default_factory=list)
    hints: Dict[str, int] = field(default_factory=dict)
    trace_hashes: List[str] = field(default_factory=list)
    arm_time: float = 0.0
    heal_time: float = 0.0
    end_time: float = 0.0
    flushed_hints: int = 0

    def failed(self) -> bool:
        return bool(self.violations)

    def violated_invariants(self) -> Tuple[str, ...]:
        """Sorted, de-duplicated invariant names -- the failure *kind*.

        The shrinker compares kinds, not detail strings, so a candidate
        schedule only counts as "still failing" when it fails the same
        invariants as the original."""
        return tuple(sorted({violation.invariant for violation in self.violations}))

    def signature(self) -> str:
        """Single trace-identity hash for determinism comparison."""
        if not self.trace_hashes:
            raise TypeError("a chaos report without phase hashes has no signature")
        return hashlib.sha256("\n".join(self.trace_hashes).encode("utf-8")).hexdigest()


def _pick_policy(config: ChaosConfig, scenario: Scenario, multi_dc: bool):
    name = config.policy or ("local_quorum" if multi_dc else "quorum")
    return name, make_policy(name, scenario)


def run_chaos(schedule: FaultSchedule, config: ChaosConfig) -> ChaosReport:
    """Execute one deterministic chaos run and return its report."""
    scenario = ScenarioRegistry.get(config.scenario)
    multi_dc = len(scenario.datacenter_names) > 1
    policy_name, policy = _pick_policy(config, scenario, multi_dc)

    cluster = SimulatedCluster(scenario.cluster_config(seed=config.seed))
    timeline = FaultTimeline()
    timeline.attach(cluster)

    workload = WorkloadConfig(
        name="chaos",
        record_count=config.record_count,
        operation_count=config.operation_count,
        read_proportion=READ_PROPORTION,
        update_proportion=round(1.0 - READ_PROPORTION, 6),
    )
    executor = WorkloadExecutor(
        cluster,
        workload,
        policy,
        threads=config.threads,
        auditor=timeline,
        think_time=config.resolved_think_time(),
        max_virtual_time=config.horizon * 4.0 + 60.0,
        datacenters=scenario.datacenter_names if multi_dc else None,
    )
    executor.load()

    engine = cluster.engine
    arm_time = engine.now
    if cluster.config.spares_per_dc > 0:
        # Elastic scenarios run a membership manager for the measured phase
        # so schedule events can begin transitions.  Stopped before the
        # convergence settles below (a ticking periodic process would keep
        # settle spinning); scenarios without spares never construct one and
        # stay byte-identical.
        MembershipManager(cluster).start()
    injector = FaultInjector(cluster, schedule)
    injector.arm()
    service = None
    if multi_dc:
        service = cluster.start_anti_entropy(
            AntiEntropyConfig(interval=REPAIR_INTERVAL)
        )

    metrics = executor.run()
    end_time = engine.now

    # Phase hash 1: the client run (summary + global message counters).
    stats = cluster.fabric.stats
    run_hash = _hash_obj(
        {
            "policy": policy_name,
            "summary": metrics.summary(),
            "events_processed": engine.events_processed,
            "sent": stats.sent,
            "delivered": stats.delivered,
            "dropped": stats.dropped,
            "blocked": stats.blocked,
            "virtual_now": round(engine.now, 9),
        }
    )

    # Drive past the schedule horizon so every scheduled heal has fired
    # (clients usually outlast it; short runs need the extra push).
    horizon_end = arm_time + schedule.horizon
    if engine.now < horizon_end:
        engine.run_until(horizon_end + 1e-3)
    heal_time = max(horizon_end, arm_time)

    # Anything still broken now means a heal didn't do its job.  Record it
    # as a violation, then force-clear so the rest of the suite can judge a
    # healed cluster rather than cascade-failing.
    extra_violations: List[Violation] = []
    still_down = [address for address in cluster.addresses if not cluster.node(address).is_up]
    for address in still_down:
        extra_violations.append(
            Violation("unhealed_state", f"node {address} still down past schedule horizon")
        )
        cluster.bring_up(address)
    if cluster.fabric.has_partitions:
        pairs = sorted(cluster.fabric.partitioned_pairs()) + sorted(
            cluster.fabric.oneway_partitioned_pairs()
        )
        extra_violations.append(
            Violation("unhealed_state", f"partitions still active past horizon: {pairs}")
        )
        cluster.fabric.heal_all_partitions()
    cluster.fabric.clear_pair_degradations()

    # Convergence tail: give anti-entropy a few clean rounds, drain pending
    # work (late write-timeout cleanups may still store hints here), then
    # flush stranded hints (periodic hint delivery) and drain again.
    if service is not None:
        engine.run_until(engine.now + REPAIR_ROUNDS * REPAIR_INTERVAL + 0.5)
        service.stop()
    # Membership transitions (schedule-started or injector-created) must
    # complete or abort before the suite judges the run: give stragglers one
    # extra grace window, then force-abort whatever is left -- an abort is
    # clean by design, but a transition that could not finish once every
    # fault healed means streaming or cutover wedged, so record it.
    membership = cluster.membership
    if membership is not None:
        if membership.has_active:
            engine.run_until(engine.now + POST_HEAL_GRACE + 5.0)
        for transition in membership.active_transitions():
            extra_violations.append(
                Violation(
                    "membership_converged",
                    f"{transition.kind} of {transition.node} still active past "
                    "the convergence tail; force-aborted",
                )
            )
            membership.abort(transition.node)
        membership.stop()
    cluster.settle()
    flushed = cluster.flush_hints()
    cluster.settle()

    checker = InvariantChecker(
        post_heal_grace=POST_HEAL_GRACE,
        stale_bound=STALE_BOUND,
        per_dc_stale_bound=PER_DC_STALE_BOUND,
        min_judged_reads=MIN_JUDGED_READS,
    )
    violations = extra_violations + checker.check(
        cluster=cluster,
        timeline=timeline,
        heal_time=heal_time,
        end_time=end_time,
    )

    hints = _hint_totals(cluster)
    final_hash = _hash_obj(
        {
            "injector_log": [[round(t, 9), note] for t, note in injector.log],
            "violations": [str(v) for v in violations],
            "hints": hints,
            "flushed": flushed,
            "events_processed": engine.events_processed,
            "virtual_now": round(engine.now, 9),
            "sent": stats.sent,
            "delivered": stats.delivered,
            "dropped": stats.dropped,
        }
    )

    return ChaosReport(
        config=config,
        schedule=schedule,
        violations=violations,
        metrics_summary=metrics.summary(),
        injector_log=list(injector.log),
        hints=hints,
        trace_hashes=[run_hash, final_hash],
        arm_time=arm_time,
        heal_time=heal_time,
        end_time=end_time,
        flushed_hints=flushed,
    )


def _hint_totals(cluster: SimulatedCluster) -> Dict[str, int]:
    totals = {"stored": 0, "replayed": 0, "discarded": 0, "pending": 0}
    for address in cluster.addresses:
        store = cluster.coordinator(address).hints
        totals["stored"] += store.stored
        totals["replayed"] += store.replayed
        totals["discarded"] += store.discarded
        totals["pending"] += store.total_pending()
    return totals
