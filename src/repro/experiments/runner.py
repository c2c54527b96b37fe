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
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.cluster.cluster import SimulatedCluster
from repro.control.plane import LevelPolicy
from repro.control.policies import RepairSchedulePolicy, make_policy
from repro.experiments.scenarios import Scenario
from repro.staleness.auditor import StalenessAuditor
from repro.workload.executor import RunMetrics, WorkloadExecutor
from repro.workload.workloads import WorkloadConfig

__all__ = ["ExperimentConfig", "ExperimentResult", "RunRecord", "run_experiment"]


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


@dataclass(frozen=True)
class RunRecord:
    """What a figure, claim or ablation reads of one run: small and picklable.

    ``row`` is :meth:`ExperimentResult.summary`, the one row definition the
    figure tables project their columns from.  Beside it sit the raw values
    those tables and the claims compute with: counts and virtual duration,
    unrounded throughput (ops/s), read p99 (s) and stale rate, the read
    levels used, the cluster-scope estimate series as ``(time, value)``
    pairs with its mean and max, and ``by_dc``, the read columns of
    :meth:`~repro.workload.executor.RunMetrics.datacenter_summary` for each
    of the scenario's datacenters.  ``key`` is the pickled argument set the
    run was made with, or ``None`` for a run that has none (see
    :meth:`~repro.experiments.figures.FigureDefaults.run`).
    """

    key: Optional[bytes]
    row: Dict[str, object]
    reads: int
    writes: int
    duration: float
    throughput: float
    read_p99: float
    stale_rate: float
    level_usage: Dict[str, int]
    estimates: Tuple[Tuple[float, float], ...]
    estimate_mean: float
    estimate_max: float
    by_dc: Dict[str, Dict[str, object]]

    def columns(self, *names: str) -> Dict[str, object]:
        """A new row of ``row``'s ``names`` columns, in that order."""
        return {name: self.row[name] for name in names}


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
    #: caller passed one in).
    tracer: Optional[object] = None

    def summary(self) -> Dict[str, object]:
        """One flat row: the columns every figure table shares."""
        row = self.metrics.summary()
        row["scenario"] = self.config.scenario.name
        row["seed"] = self.config.seed
        return row

    def record(self, key: Optional[bytes]) -> RunRecord:
        """This run as a :class:`RunRecord` made under the argument set ``key``."""
        metrics = self.metrics
        series = metrics.estimate_series
        return RunRecord(
            key=key,
            row=self.summary(),
            reads=metrics.counters.reads,
            writes=metrics.counters.writes,
            duration=metrics.duration,
            throughput=metrics.ops_per_second(),
            read_p99=metrics.read_latency.p99(),
            stale_rate=metrics.staleness.stale_rate(),
            level_usage=dict(metrics.consistency_level_usage),
            estimates=tuple(series),
            estimate_mean=series.mean(),
            estimate_max=series.max(),
            by_dc={
                dc: metrics.datacenter_summary(dc)
                for dc in self.config.scenario.datacenter_names
            },
        )


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
    workers: int = 1,
    shards: Optional[int] = None,
) -> ExperimentResult:
    """Run one experiment and return its result.

    Parameters
    ----------
    scenario, workload, policy, threads, seed, n_nodes, monitoring_interval:
        See :class:`ExperimentConfig`.  ``policy`` may be a
        :class:`~repro.control.plane.LevelPolicy` or a policy name (see
        :func:`~repro.control.policies.make_policy`).
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
        attaches it to the cluster as soon as it is built, and every layer
        of the run built on it (coordinators, fabric, client loop, control
        plane, fault injector, anti-entropy service, membership manager)
        traces into it.  Tracing schedules no engine events, so same-seed
        runs stay byte-identical with or without it.
    workers / shards:
        Opt into the sharded conservative-PDES engine
        (:mod:`repro.sim.parallel`): the ring is partitioned into ``shards``
        rack-granular shards executed across ``workers`` forked processes
        (``workers=1`` runs the same sharded schedule in-process).  Setting
        either delegates to :func:`~repro.sim.parallel.run_parallel_experiment`
        and returns its :class:`~repro.sim.parallel.ParallelExperimentResult`;
        options the sharded engine does not support (``cluster_hook``,
        ``datacenters``, ``tracer``) are rejected.
    """
    if workers != 1 or shards is not None:
        from repro.sim.parallel import DEFAULT_SHARDS, run_parallel_experiment

        unsupported = {
            "cluster_hook": cluster_hook,
            "datacenters": datacenters,
            "tracer": tracer,
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
    if tracer is not None:
        # Before the hook: whatever it builds on the cluster copies the tracer.
        tracer.attach_cluster(cluster)
    if cluster_hook is not None:
        cluster_hook(cluster)
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
    )
    injector = None
    service = None
    if faulted or scenario.anti_entropy is not None:
        # Load first: fault times and repair ticks count from the start of
        # the measured run.
        executor.load()
        if faulted:
            from repro.faults.schedule import FaultInjector

            injector = FaultInjector(cluster, scenario.fault_schedule)
            injector.arm()
        if scenario.anti_entropy is not None:
            service = cluster.start_anti_entropy(scenario.anti_entropy)
            if scenario.adaptive_repair is not None:
                # After the level policy: an adaptive one sets the tick
                # period, a static one leaves it to the repair base cadence.
                executor.plane.add(RepairSchedulePolicy(service, scenario.adaptive_repair))
    try:
        metrics = executor.run()
    finally:
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
    )
