"""Experiment runner: one (scenario, policy, workload, threads) combination.

:func:`run_experiment` is the single entry point every figure bench, example
and integration test uses.  It builds a fresh simulated cluster for the
platform, loads the dataset, runs the workload under the requested policy
with the requested number of closed-loop client threads, and returns an
:class:`ExperimentResult` bundling the run metrics with the scenario and
policy identification.

Every run gets its own cluster and its own seed-derived random streams, so
runs are independent and reproducible; comparing policies on the *same*
scenario and seed therefore differs only in the consistency decisions (plus
the downstream scheduling effects they cause), which is the fair comparison
the paper makes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

from repro.cluster.cluster import SimulatedCluster
from repro.cluster.consistency import ConsistencyLevel
from repro.control.plane import LevelPolicy
from repro.control.policies import RepairSchedulePolicy
from repro.core.config import HarmonyConfig
from repro.core.policy import (
    HarmonyPolicy,
    StaticEventualPolicy,
    StaticQuorumPolicy,
    StaticStrongPolicy,
    ThresholdPolicy,
)
from repro.experiments.scenarios import Scenario
from repro.geo.policy import GeoHarmonyPolicy, GeoHarmonyRWPolicy, StaticGeoPolicy
from repro.staleness.auditor import StalenessAuditor
from repro.workload.executor import RunMetrics, WorkloadExecutor
from repro.workload.workloads import WorkloadConfig

__all__ = ["ExperimentConfig", "ExperimentResult", "run_experiment", "make_policy"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one experiment run.

    Attributes
    ----------
    scenario:
        The platform (GRID5000 or EC2, or a custom scenario).
    workload:
        The workload definition (mix, record count, operation count).
    policy_name:
        One of ``"eventual"``, ``"strong"``, ``"quorum"``,
        ``"harmony-<ASR>"`` (e.g. ``"harmony-0.2"``) or ``"threshold-<x>"``.
    threads:
        Number of closed-loop client threads.
    seed:
        Root random seed of the run.
    n_nodes:
        Optional cluster-size override.
    monitoring_interval:
        Optional override of Harmony's monitoring interval.
    """

    scenario: Scenario
    workload: WorkloadConfig
    policy_name: str
    threads: int
    seed: int = 0
    n_nodes: Optional[int] = None
    monitoring_interval: Optional[float] = None

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads!r}")
        if self.n_nodes is not None and self.n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1 when given, got {self.n_nodes!r}")
        if self.monitoring_interval is not None and self.monitoring_interval <= 0:
            raise ValueError(
                f"monitoring_interval must be positive when given, got {self.monitoring_interval!r}"
            )


@dataclass
class ExperimentResult:
    """Outcome of one run: metrics plus identification.

    Fault-scenario runs additionally carry the armed
    :class:`~repro.faults.schedule.FaultInjector` (whose ``log`` records the
    applied fault timeline) and the
    :class:`~repro.cluster.antientropy.AntiEntropyService` (whose stats hold
    the per-DC-pair repair traffic); the auditor is then a
    :class:`~repro.faults.timeline.FaultTimeline`, so results can be sliced
    into before/during/after windows.  Every run carries its one
    :class:`~repro.control.plane.ControlPlane` (the executor's), whose
    ``decisions`` log every move of every policy registered on it -- the
    level policy's and, on scenarios with ``adaptive_repair``, the repair
    scheduler's.
    """

    config: ExperimentConfig
    metrics: RunMetrics
    auditor: StalenessAuditor
    injector: Optional[object] = None
    anti_entropy: Optional[object] = None
    control_plane: Optional[object] = None
    #: The run's :class:`~repro.obs.tracer.Tracer` (``None`` unless the
    #: caller passed one in) and :class:`~repro.obs.export.RunSeriesRecorder`
    #: (``None`` unless ``series_interval`` was given).
    tracer: Optional[object] = None
    series: Optional[object] = None

    def summary(self) -> Dict[str, object]:
        """One flat row: the columns every figure table shares."""
        row = self.metrics.summary()
        row["scenario"] = self.config.scenario.name
        row["seed"] = self.config.seed
        return row


def _stale_rate(spec: str) -> float:
    """``"20%"`` -> 0.2; a bare number above 1 is a percentage too (``"20"``)."""
    if spec.endswith("%"):
        rate = float(spec[:-1]) / 100.0
    else:
        rate = float(spec)
        if rate > 1.0:
            rate /= 100.0
    return rate


#: Policy name (or ``"<family>-"`` prefix, applied to the rest of the name)
#: -> constructor ``(spec, scenario, interval)``, where ``interval`` is
#: ``{"monitoring_interval": x}`` when the caller overrides it and ``{}``
#: otherwise -- both ``HarmonyConfig`` and the threshold constructor take it
#: under that name.
_POLICIES: Dict[str, Callable[[str, Scenario, Dict[str, float]], LevelPolicy]] = {
    "eventual": lambda spec, scenario, interval: StaticEventualPolicy(),
    "strong": lambda spec, scenario, interval: StaticStrongPolicy(),
    "quorum": lambda spec, scenario, interval: StaticQuorumPolicy(),
    "local_one": lambda spec, scenario, interval: StaticGeoPolicy(ConsistencyLevel.LOCAL_ONE),
    "local_quorum": lambda spec, scenario, interval: StaticGeoPolicy(
        ConsistencyLevel.LOCAL_QUORUM
    ),
    "each_quorum": lambda spec, scenario, interval: StaticGeoPolicy(
        ConsistencyLevel.EACH_QUORUM
    ),
    "geo-harmony": lambda spec, scenario, interval: GeoHarmonyPolicy(
        scenario.harmony_stale_rates_by_dc, HarmonyConfig(**interval)
    ),
    "geo-harmony-rw": lambda spec, scenario, interval: GeoHarmonyRWPolicy(
        scenario.harmony_stale_rates_by_dc, HarmonyConfig(**interval)
    ),
    "harmony-": lambda spec, scenario, interval: HarmonyPolicy(
        config=HarmonyConfig(tolerated_stale_rate=_stale_rate(spec), **interval)
    ),
    "threshold-": lambda spec, scenario, interval: ThresholdPolicy(float(spec), **interval),
}


def make_policy(name: str, scenario: Scenario, *,
                monitoring_interval: Optional[float] = None) -> LevelPolicy:
    """Build a level policy (the object the run's control plane ticks) from its name.

    Recognised names:

    * ``eventual`` -- static eventual consistency (level ONE);
    * ``strong`` -- static strong consistency (reads at ALL);
    * ``quorum`` -- static QUORUM reads and writes;
    * ``harmony-<asr>`` -- Harmony with the given tolerated stale rate: a
      trailing ``%`` always means percent (``harmony-20%``, ``harmony-0.5%``),
      a bare number is a rate up to 1 and a percentage above it
      (``harmony-0.2`` and ``harmony-20`` are the same policy);
    * ``threshold-<x>`` -- write/read-ratio threshold baseline;
    * ``local_one`` / ``local_quorum`` / ``each_quorum`` -- static DC-aware
      levels (geo scenarios; writes at LOCAL_ONE);
    * ``geo-harmony`` -- the per-datacenter adaptive loop, using the
      scenario's ``harmony_stale_rates_by_dc``;
    * ``geo-harmony-rw`` -- joint per-datacenter read *and* write
      adaptation (same ASR map); read-heavy sites escalate writes instead
      of reads.

    ``monitoring_interval`` overrides the tick period of the adaptive ones.
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


def run_experiment(
    scenario: Scenario,
    workload: WorkloadConfig,
    policy: LevelPolicy | str,
    threads: int,
    *,
    seed: int = 0,
    n_nodes: Optional[int] = None,
    monitoring_interval: Optional[float] = None,
    cluster_hook: Optional[Callable[[SimulatedCluster], None]] = None,
    datacenters: Optional[Sequence[str]] = None,
    think_time: float = 0.0,
    retry_policy: Optional[object] = None,
    tracer: Optional[object] = None,
    series_interval: Optional[float] = None,
    workers: int = 1,
    shards: Optional[int] = None,
) -> ExperimentResult:
    """Run one experiment and return its result.

    Parameters
    ----------
    scenario, workload, policy, threads, seed, n_nodes, monitoring_interval:
        See :class:`ExperimentConfig`.  ``policy`` may be a
        :class:`~repro.control.plane.LevelPolicy` or a policy name (see
        :func:`make_policy`).
    cluster_hook:
        Optional callable invoked with the freshly built cluster before the
        load phase -- used by the figure-4(b) latency sweep (to scale the
        fabric latency) and by failure-injection tests.
    datacenters:
        Pin client threads to these datacenters round-robin (geo runs);
        pass ``scenario.datacenter_names`` for one client fleet per site.
    think_time:
        Per-thread delay between operations; fault runs use it to stretch
        the measured run across the fault timeline (a tight closed loop
        would burn the operation budget before the partition even starts).
    retry_policy:
        Client-side :class:`~repro.control.retry.RetryPolicy` shared by all
        threads (e.g. ``DowngradeRetryPolicy()`` to ride out datacenter
        outages at a weaker level); ``None`` keeps the no-retry default.
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer`; when given, the runner
        attaches it to every layer of the run (coordinators, control plane,
        fault injector, anti-entropy service, client loop) so the trace
        covers the full op lifecycle.  Tracing schedules no engine events,
        so same-seed runs stay byte-identical with or without it.
    series_interval:
        When set, a :class:`~repro.obs.export.RunSeriesRecorder` samples
        stale rate, staleness-age p99, per-DC read latency, repair WAN
        bytes and control decisions every ``series_interval`` virtual
        seconds; returned as ``result.series``.  Unlike the tracer this
        *does* schedule one engine event per tick (it is off by default).
    workers / shards:
        Opt into the sharded conservative-PDES engine
        (:mod:`repro.sim.parallel`): the ring is partitioned into ``shards``
        rack-granular shards executed across ``workers`` forked processes
        (``workers=1`` runs the same sharded schedule in-process).  Setting
        either delegates to :func:`~repro.sim.parallel.run_parallel_experiment`
        and returns its :class:`~repro.sim.parallel.ParallelExperimentResult`;
        options the sharded engine does not support (``cluster_hook``,
        ``datacenters``, ``tracer``, ``series_interval``) are rejected.
    """
    if workers != 1 or shards is not None:
        from repro.sim.parallel import DEFAULT_SHARDS, run_parallel_experiment

        unsupported = {
            "cluster_hook": cluster_hook,
            "datacenters": datacenters,
            "tracer": tracer,
            "series_interval": series_interval,
        }
        offending = [name for name, value in unsupported.items() if value is not None]
        if offending:
            raise ValueError(
                f"option(s) {offending} are not supported with workers/shards "
                "(the sharded engine pins clients per shard and keeps no "
                "cluster-global observers)"
            )
        return run_parallel_experiment(
            scenario,
            workload,
            policy,
            threads,
            seed=seed,
            n_nodes=n_nodes,
            shards=shards if shards is not None else DEFAULT_SHARDS,
            workers=workers,
            monitoring_interval=monitoring_interval,
            think_time=think_time,
            retry_policy=retry_policy,
        )
    if isinstance(policy, str):
        policy = make_policy(policy, scenario, monitoring_interval=monitoring_interval)
    config = ExperimentConfig(
        scenario=scenario,
        workload=workload,
        policy_name=policy.label,
        threads=threads,
        seed=seed,
        n_nodes=n_nodes,
        monitoring_interval=monitoring_interval,
    )
    if scenario.adaptive_repair is not None and scenario.anti_entropy is None:
        raise ValueError(
            f"scenario {scenario.name!r} sets adaptive_repair but no anti_entropy "
            "config; the repair scheduler needs a repair service to steer"
        )
    cluster = SimulatedCluster(scenario.cluster_config(seed=seed, n_nodes=n_nodes))
    if cluster_hook is not None:
        cluster_hook(cluster)
    if tracer is not None:
        tracer.attach_cluster(cluster)
    faulted = scenario.fault_schedule is not None
    if faulted:
        from repro.faults.timeline import FaultTimeline

        auditor: StalenessAuditor = FaultTimeline()
        auditor.attach(cluster)
    else:
        auditor = StalenessAuditor()
    # Registers the policy on the run's one control plane: whatever it
    # validates against the cluster fails here, before the load phase.
    executor = WorkloadExecutor(
        cluster,
        workload,
        policy,
        threads=threads,
        auditor=auditor,
        think_time=think_time,
        retry_policy=retry_policy,
        datacenters=list(datacenters) if datacenters is not None else None,
        tracer=tracer,
    )
    if tracer is not None:
        tracer.attach_plane(executor.plane)
    injector = None
    service = None
    recorder = None
    if faulted or scenario.anti_entropy is not None or series_interval is not None:
        # Load first: fault times, repair ticks and series samples count
        # from the start of the measured run.
        executor.load()
        if faulted:
            from repro.faults.schedule import FaultInjector

            injector = FaultInjector(cluster, scenario.fault_schedule)
            if tracer is not None:
                tracer.attach_injector(injector)
            injector.arm()
        if scenario.anti_entropy is not None:
            service = cluster.start_anti_entropy(scenario.anti_entropy)
            if tracer is not None:
                tracer.attach_service(service)
            if scenario.adaptive_repair is not None:
                # After the level policy: an adaptive one sets the tick
                # period, a static one leaves it to the repair base cadence.
                executor.plane.add(RepairSchedulePolicy(service, scenario.adaptive_repair))
        if series_interval is not None:
            from repro.obs.export import RunSeriesRecorder

            recorder = RunSeriesRecorder(
                cluster,
                auditor=auditor,
                metrics=executor.metrics,
                interval=series_interval,
            )
            recorder.plane = executor.plane
            recorder.start()
    try:
        metrics = executor.run()
    finally:
        if recorder is not None:
            recorder.stop()
        if service is not None:
            service.stop()
    return ExperimentResult(
        config=config,
        metrics=metrics,
        auditor=auditor,
        injector=injector,
        anti_entropy=service,
        control_plane=executor.plane,
        tracer=tracer,
        series=recorder,
    )
