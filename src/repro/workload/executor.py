"""Workload executor: load phase, run phase, metric collection.

The executor is the simulation-side equivalent of running the YCSB client
against a Cassandra cluster: it loads the initial records, starts ``threads``
closed-loop client threads that draw operations from a shared budget, and
collects the metrics the paper's figures report (latency histograms split by
operation type, overall throughput, staleness counts via the auditor).

Consistency decisions are delegated to a
:class:`~repro.control.plane.LevelPolicy`; the executor itself is
policy-agnostic so the same code path produces the eventual-consistency,
strong-consistency and Harmony series of every figure.  The executor owns
the run's one :class:`~repro.control.plane.ControlPlane`: the level policy
is registered on it at construction, further control policies (repair
scheduling, scale-out) are ``executor.plane.add(...)``-ed beside it, and the
plane runs exactly as long as the run phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional

from repro.cluster.cluster import SimulatedCluster
from repro.cluster.consistency import ConsistencyLevel
from repro.cluster.coordinator import OperationResult
from repro.control.plane import ControlPlane, LevelPolicy
from repro.control.retry import RetryPolicy
from repro.metrics.counters import OperationCounters
from repro.metrics.histogram import LatencyHistogram
from repro.metrics.series import TimeSeries
from repro.staleness.stats import StalenessStats
from repro.workload.client import ClientThread, CompletionBatch
from repro.workload.workloads import CoreWorkload, Operation, OperationType, WorkloadConfig

__all__ = ["RunMetrics", "WorkloadExecutor"]

#: Each level's name, as the usage table counts reads by it (a dict lookup;
#: ``level.value`` is a Python-level descriptor call on every read).
_LEVEL_NAMES: Dict[ConsistencyLevel, str] = {level: level.value for level in ConsistencyLevel}


@dataclass
class RunMetrics:
    """Everything measured during one workload run.

    Attributes
    ----------
    policy_name / workload_name / threads:
        Identification of the run.
    read_latency / write_latency / overall_latency:
        Latency histograms in seconds.
    counters:
        Operation counts by type and outcome.
    staleness:
        The run's read verdicts: the auditor's cluster-wide
        :class:`~repro.staleness.stats.StalenessStats` (stale / judged /
        unknown counts, t-visibility, k-staleness, staleness-age
        percentiles); an empty one without an auditor.
    consistency_level_usage:
        How many reads were issued at each consistency level -- shows the
        adaptive controller actually switching levels.
    estimate_series:
        The cluster-scope stale-read estimates of the control plane's
        decision log, one point per decision carrying one (Harmony's).
    read_latency_by_dc / staleness_by_dc:
        Per-datacenter splits of the read latency and staleness metrics,
        keyed by the datacenter of the coordinator that served the read, in
        first-read order (``staleness_by_dc`` is the auditor's own map).
        Populated whenever the cluster reports coordinator datacenters
        (always, in practice); what the geo benchmark compares per site.
    downgrade_usage:
        ``"FROM->TO"`` -> count of consistency-level downgrades the client
        retry policy performed (empty without a downgrading policy) -- the
        metered consistency cost of riding out Unavailable rejections.
    control_decisions:
        ``"policy.kind"`` -> decision count: a recount of the control
        plane's decision log (empty when nothing on it decided anything) --
        shows the adaptive loops actually moving knobs.
    duration:
        Virtual duration of the run phase in seconds.
    """

    policy_name: str
    workload_name: str
    threads: int
    read_latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    write_latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    overall_latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    counters: OperationCounters = field(default_factory=OperationCounters)
    staleness: StalenessStats = field(default_factory=StalenessStats)
    consistency_level_usage: Dict[str, int] = field(default_factory=dict)
    estimate_series: TimeSeries = field(default_factory=lambda: TimeSeries("stale_estimate"))
    read_latency_by_dc: Dict[str, LatencyHistogram] = field(default_factory=dict)
    staleness_by_dc: Dict[str, StalenessStats] = field(default_factory=dict)
    downgrade_usage: Dict[str, int] = field(default_factory=dict)
    control_decisions: Dict[str, int] = field(default_factory=dict)
    duration: float = 0.0

    def ops_per_second(self) -> float:
        """Overall throughput of the run phase: completed reads and writes
        per second of ``duration`` (0.0 for an empty window)."""
        if self.duration <= 0:
            return 0.0
        return (self.counters.reads + self.counters.writes) / self.duration

    def summary(self) -> Dict[str, object]:
        """One flat row summarising the run (used by figure tables)."""
        return {
            "policy": self.policy_name,
            "workload": self.workload_name,
            "threads": self.threads,
            "ops": self.counters.total,
            "throughput_ops_s": round(self.ops_per_second(), 1),
            "read_p99_ms": _ms(self.read_latency.p99()),
            "read_mean_ms": _ms(self.read_latency.mean()),
            "write_p99_ms": _ms(self.write_latency.p99()),
            "stale_reads": self.staleness.stale_reads,
            "stale_rate": _rate(self.staleness.stale_rate()),
            "stale_age_p99_ms": _ms(self.staleness.age_percentile(99)),
            "k_max": self.staleness.max_k(),
            "unavailable": self.counters.unavailable,
            "retries": self.counters.retries,
            "downgrades": self.counters.downgrades,
            "duration_s": round(self.duration, 3),
        }

    def datacenter_summary(self, datacenter: str) -> Dict[str, object]:
        """The read columns of :meth:`summary` for the reads ``datacenter``
        served: read count (judged or not), p99 and mean latency, stale rate
        (zeros for a site that served none)."""
        staleness = self.staleness_by_dc.get(datacenter)
        latency = self.read_latency_by_dc.get(datacenter)
        return {
            "reads": staleness.judged_reads + staleness.unknown_reads if staleness else 0,
            "read_p99_ms": _ms(latency.p99()) if latency else 0.0,
            "read_mean_ms": _ms(latency.mean()) if latency else 0.0,
            "stale_rate": _rate(staleness.stale_rate()) if staleness else 0.0,
        }


def _ms(seconds: float) -> float:
    """A latency column: milliseconds to the microsecond."""
    return round(seconds * 1e3, 3)


def _rate(rate: float) -> float:
    """A stale-rate column: four decimals."""
    return round(rate, 4)


class WorkloadExecutor:
    """Loads data and runs a YCSB-style workload against a cluster.

    Parameters
    ----------
    cluster:
        The cluster under test (owns the simulation engine).
    workload_config:
        The workload definition (mix, record count, operation count).
    policy:
        The :class:`~repro.control.plane.LevelPolicy` consulted for every
        read/write level.  It is registered on the executor's control plane
        here, so whatever it validates against the cluster (unknown
        datacenter, missing per-DC replication factors, no auditor) fails
        before the load phase.
    threads:
        Number of closed-loop client threads.
    auditor:
        Optional staleness auditor; when given, it judges every read, and
        its per-scope aggregates are the metrics' ``staleness`` and
        ``staleness_by_dc``.
    think_time:
        Per-thread delay between operations (default 0, a tight closed loop).
    retry_policy:
        Client-side :class:`~repro.control.retry.RetryPolicy` consulted
        after Unavailable rejections, shared by every thread (policies are
        stateless across operations).  ``None`` keeps the historical
        behaviour: no retries, 50 ms backoff before the next operation.
    max_virtual_time:
        Safety bound on the virtual duration of the run phase.
    datacenters:
        Optional list of datacenter names to pin client threads to
        (round-robin): thread ``i`` contacts only coordinators of
        ``datacenters[i % len(datacenters)]``, modelling one client fleet
        per site.  Thread ``i`` asks ``policy.read_level(dc)`` /
        ``policy.write_level(dc)`` with its datacenter (``None`` when
        unpinned).
    """

    def __init__(
        self,
        cluster: SimulatedCluster,
        workload_config: WorkloadConfig,
        policy: LevelPolicy,
        threads: int = 1,
        *,
        auditor: Optional[object] = None,
        think_time: float = 0.0,
        retry_policy: Optional[RetryPolicy] = None,
        max_virtual_time: float = 3600.0,
        datacenters: Optional[List[str]] = None,
    ) -> None:
        if threads < 1:
            raise ValueError("threads must be >= 1")
        self.cluster = cluster
        self.workload_config = workload_config
        self.policy = policy
        self.threads = int(threads)
        self.auditor = auditor
        #: The cluster's op-lifecycle tracer (see :mod:`repro.obs.tracer`);
        #: the executor contributes the client-side ``op.issue`` /
        #: ``op.retry`` events (coordinators trace fan-outs and completions
        #: themselves).
        self.tracer = cluster.tracer
        self.think_time = float(think_time)
        self.retry_policy = retry_policy
        self.max_virtual_time = float(max_virtual_time)
        if datacenters is not None:
            known = set(cluster.datacenter_names)
            unknown = [dc for dc in datacenters if dc not in known]
            if unknown:
                raise ValueError(f"unknown datacenter(s) {unknown}; cluster has {sorted(known)}")
            if not datacenters:
                raise ValueError("datacenters must not be empty when given")
        self.datacenters = list(datacenters) if datacenters is not None else None
        #: The run's one control plane: started by :meth:`begin_run`, stopped
        #: by :meth:`finalize_run`; its monitor uses the policy's tunables.
        self.plane = ControlPlane(cluster, policy.config)
        self.plane.add(policy)
        self.workload = CoreWorkload(
            workload_config, cluster.streams.stream(f"workload.{workload_config.name}")
        )
        self._remaining = workload_config.operation_count
        self.metrics = RunMetrics(
            policy_name=policy.label,
            workload_name=workload_config.name,
            threads=self.threads,
        )
        if auditor is not None:
            self.metrics.staleness = auditor.stats
            self.metrics.staleness_by_dc = auditor.stats_by_dc
        self._loaded = False
        self._start_time = 0.0
        self._clients: List[ClientThread] = []

    # ------------------------------------------------------------------
    # Load phase
    # ------------------------------------------------------------------
    def load(self) -> List[OperationResult]:
        """Bulk-load the initial ``record_count`` records (unmeasured, as in the
        paper): every replica holds every record, acknowledged to the auditor
        before the run's first instant.  Returns one acknowledgement per
        record (see :meth:`SimulatedCluster.load`)."""
        results = self.cluster.load(
            [(key, f"initial:{key}") for key in self.workload.load_keys()],
            self.workload.value_size(),
        )
        if self.auditor is not None:
            for result in results:
                self.auditor.observe_write(result)
        self._loaded = True
        return results

    # ------------------------------------------------------------------
    # Run phase
    # ------------------------------------------------------------------
    def begin_run(
        self, on_all_finished: Optional[Callable[[], None]] = None
    ) -> List[ClientThread]:
        """Start the control plane and every client; do not drive the engine.

        ``on_all_finished`` fires when the last client finishes; the default
        stops the engine's run loop (what :meth:`run` wants).  The sharded
        engine passes its own callback because its shard must keep serving
        remote replica traffic after the local clients are done.
        """
        self.plane.start()
        engine = self.cluster.engine
        start_time = engine.now
        self._start_time = start_time

        # One completion batch shared by every client: a burst of completions
        # at one instant costs one flush event, not one wake-up event each.
        batch = CompletionBatch(engine)
        clients = [
            ClientThread(
                thread_id=i,
                cluster=self.cluster,
                workload=self.workload,
                read_level_provider=self._level_provider(self.policy.read_level, i),
                write_level_provider=self._level_provider(self.policy.write_level, i),
                take_budget=self._take_budget,
                on_result=self._on_result,
                on_issue=self._on_issue,
                on_retry=self._on_retry,
                think_time=self.think_time,
                retry_policy=self.retry_policy,
                datacenter=self._thread_datacenter(i),
                batch=batch,
            )
            for i in range(self.threads)
        ]
        self._clients = clients
        finished = [0]
        n_clients = len(clients)
        all_finished = on_all_finished if on_all_finished is not None else engine.stop

        def one_finished() -> None:
            # The last client to finish stops the engine's run loop; driving
            # the loop from inside the engine avoids the historical
            # one-Python-iteration-per-event outer loop.
            finished[0] += 1
            if finished[0] >= n_clients:
                all_finished()

        for client in clients:
            client.start(one_finished)
        return clients

    def stop_clients(self) -> None:
        """Stop every running client (each stop fires its finish callback)."""
        for client in self._clients:
            client.stop()

    def finalize_run(self) -> RunMetrics:
        """Close the measurement window and capture the plane's state."""
        self.metrics.duration = self.cluster.engine.now - self._start_time
        self.plane.stop()
        self.metrics.estimate_series = self.plane.estimate_series
        self.metrics.control_decisions = self.plane.decision_counts
        return self.metrics

    def run(self) -> RunMetrics:
        """Execute the run phase and return the collected metrics."""
        if not self._loaded:
            self.load()
        engine = self.cluster.engine
        clients = self.begin_run()
        start_time = self._start_time

        def deadline_stop() -> None:
            # Safety bound on the virtual run duration: stop every client
            # (each stop fires one_finished, so the engine stops once the
            # last in-flight completion is accounted for).
            for client in clients:
                client.stop()

        engine.reset_stop()
        deadline_guard = engine.at(start_time + self.max_virtual_time, deadline_stop)
        engine.run()
        engine.reset_stop()
        deadline_guard.cancel()
        return self.finalize_run()

    # ------------------------------------------------------------------
    # Client callbacks
    # ------------------------------------------------------------------
    def _take_budget(self) -> bool:
        if self._remaining <= 0:
            return False
        self._remaining -= 1
        return True

    def _thread_datacenter(self, thread_id: int) -> Optional[str]:
        if self.datacenters is None:
            return None
        return self.datacenters[thread_id % len(self.datacenters)]

    def _level_provider(
        self, level_of: Callable[..., ConsistencyLevel], thread_id: int
    ) -> Callable[[], ConsistencyLevel]:
        """The policy's bound method itself, closed over a pinned thread's site."""
        datacenter = self._thread_datacenter(thread_id)
        return level_of if datacenter is None else partial(level_of, datacenter)

    def _on_issue(self, operation: Operation) -> None:
        if self.tracer is not None:
            self.tracer.op_issue(
                "write" if operation.op_type.is_write else "read", operation.key
            )

    def _on_retry(self, operation: Operation, from_level, to_level, attempt: int) -> None:
        """Meter one Unavailable retry (and its downgrade, if any)."""
        if self.tracer is not None:
            self.tracer.op_retry(
                "write" if operation.op_type.is_write else "read",
                operation.key,
                from_level,
                to_level,
                attempt,
            )
        self.metrics.counters.retries += 1
        if to_level is not from_level and to_level is not None and from_level is not None:
            self.metrics.counters.downgrades += 1
            key = f"{getattr(from_level, 'value', from_level)}->{getattr(to_level, 'value', to_level)}"
            self.metrics.downgrade_usage[key] = self.metrics.downgrade_usage.get(key, 0) + 1

    def _on_result(self, operation: Operation, result: OperationResult) -> None:
        metrics = self.metrics
        counters = metrics.counters
        if result.unavailable:
            # Rejected operations never executed: keep them out of the
            # latency histograms and the staleness verdicts (an unavailable
            # read returned no data by design, not because it was stale),
            # but count them so fault runs can report error rates.
            if result.op_type == "read":
                counters.unavailable_reads += 1
            else:
                counters.unavailable_writes += 1
            return
        latency = result.completed_at - result.started_at
        metrics.overall_latency.record(latency)
        if result.op_type == "read":
            counters.reads += 1
            metrics.read_latency.record(latency)
            if result.timed_out:
                counters.read_timeouts += 1
            if result.cell is None:
                counters.read_misses += 1
            level_name = _LEVEL_NAMES[result.consistency_level]
            usage = metrics.consistency_level_usage
            usage[level_name] = usage.get(level_name, 0) + 1
            datacenter = result.datacenter
            if datacenter is not None:
                # Not setdefault(): that would build (and usually discard) a
                # fresh histogram on every read.
                by_dc = metrics.read_latency_by_dc.get(datacenter)
                if by_dc is None:
                    by_dc = metrics.read_latency_by_dc[datacenter] = LatencyHistogram()
                by_dc.record(latency)
            if self.auditor is not None:
                self.auditor.judge(operation.key, result)
        else:
            counters.writes += 1
            metrics.write_latency.record(latency)
            if result.timed_out:
                counters.write_timeouts += 1
            if self.auditor is not None:
                self.auditor.observe_write(result)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WorkloadExecutor({self.workload_config.name!r}, threads={self.threads}, "
            f"policy={self.metrics.policy_name!r})"
        )
