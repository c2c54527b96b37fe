"""The conservative window controller and the parallel experiment runner.

Protocol
--------
The controller holds every cross-shard message in flight and drives all
shards round by round:

1. ``g`` = the minimum over every shard's next local event time and every
   buffered cross-shard message's delivery time (the global simulation
   front);
2. the window is ``W = g + L`` where ``L`` is the plan's lookahead (the
   minimum latency floor over boundary-crossing link classes);
3. each shard receives its buffered inbound messages (sorted by the
   canonical ``(deliver_at, src_shard, seq)`` key), injects them at their
   absolute delivery times and runs ``run_until(W)``;
4. replies carry the new next event time plus the outbox of cross-shard
   messages generated during the round, which the controller routes into
   the destination inboxes for the *next* round.

Safety: every event executed inside a round has time ``>= g``, and every
cross-shard message drawn from a crossing link class has latency ``>= L``,
so its delivery time is ``>= g + L = W`` -- at or after every shard's clock
when the next round injects it.  ``Fabric.inject_remote`` schedules through
``engine.call_at``, which raises on any violation, making the window invariant a
hard guarantee rather than a convention.

Determinism: the shard count (not the worker count) fixes the partition and
therefore the event schedule; ``workers`` only maps shards onto OS
processes.  ``workers=1`` runs the identical window protocol in-process, so
a same-seed run merges to a byte-identical summary for any worker count.
"""

from __future__ import annotations

import gc
import multiprocessing
import pickle
import traceback
from dataclasses import dataclass, replace
from time import perf_counter, process_time
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.cluster import resolve_topology
from repro.control.policies import make_policy
from repro.sim.parallel.merge import merge_run_metrics
from repro.sim.parallel.plan import DEFAULT_SHARDS, ShardPlan, plan_shards
from repro.sim.parallel.shard import ShardRuntime, split_proportional, wire_encode
from repro.workload.executor import RunMetrics
from repro.workload.workloads import WorkloadConfig

__all__ = [
    "LocalShards",
    "ForkedShards",
    "ParallelExperimentResult",
    "run_parallel_experiment",
]

_INFINITY = float("inf")


class LocalShards:
    """In-process backend: every shard executes serially, in shard order.

    This is the ``workers=1`` reference implementation the forked backend
    must be indistinguishable from (in simulated time).
    """

    def __init__(self, runtimes: List[ShardRuntime]) -> None:
        self._runtimes = runtimes
        #: One "worker": total CPU time spent executing shard commands.
        self.busy_seconds = [0.0]

    def dispatch(self, commands: Dict[int, Tuple]) -> Dict[int, Any]:
        start = process_time()
        replies = {k: self._runtimes[k].handle(command) for k, command in sorted(commands.items())}
        self.busy_seconds[0] += process_time() - start
        return replies

    def close(self) -> None:
        pass


def _worker_main(conn, runtimes: Dict[int, ShardRuntime]) -> None:
    """Forked worker loop: receive a command batch, execute, reply.

    ``busy`` accumulates the *CPU* time this process spends executing shard
    commands and serialising traffic (``process_time``: clock ticks only
    while this worker is scheduled, so on an oversubscribed machine the
    figure is the work done, not the wall time spent preempted) and is
    piggybacked on every reply so the parent always has the latest figure.

    The cyclic GC is disabled for the worker's lifetime: collector pauses
    are measurement noise in ``busy``, and a worker is a short-lived child
    that exits after ``finalize`` anyway.
    """
    gc.disable()
    busy = 0.0
    while True:
        try:
            batch = conn.recv()
        except (EOFError, OSError):
            break
        if batch is None:
            break
        start = process_time()
        try:
            replies = {k: runtimes[k].handle(command) for k, command in batch}
            # Pre-pickle every cross-shard message here, in the worker: the
            # controller then routes opaque bytes (a cheap memcpy in its
            # reply/command pickles) instead of paying object
            # serialisation twice per crossing on the critical path.  The
            # wire codec flattens the message into builtins first so pickle
            # stays on its C fast path (~4x cheaper than pickling the
            # Message object graph directly).
            dumps = pickle.dumps
            encode = wire_encode
            for k, reply in replies.items():
                if type(reply) is tuple and reply[1]:
                    replies[k] = (
                        reply[0],
                        [(d, s, dst, dumps(encode(m), -1)) for d, s, dst, m in reply[1]],
                        reply[2],
                    )
        except Exception:
            conn.send(("error", traceback.format_exc(), busy))
            break
        busy += process_time() - start
        start = process_time()
        conn.send(("ok", replies, busy))
        busy += process_time() - start
    conn.close()


class ForkedShards:
    """Forked backend: shards mapped round-robin onto worker processes.

    Uses the ``fork`` start method so workers inherit the already-built
    shard runtimes by memory copy -- nothing about the cluster or the
    latency models ever needs to be picklable; only the window commands and
    cross-shard :class:`~repro.network.fabric.Message` objects cross pipes.
    """

    def __init__(self, runtimes: List[ShardRuntime], workers: int) -> None:
        context = multiprocessing.get_context("fork")
        self.n_workers = max(1, min(workers, len(runtimes)))
        self._worker_of = {k: k % self.n_workers for k in range(len(runtimes))}
        self._pipes = []
        self._processes = []
        self.busy_seconds = [0.0] * self.n_workers
        for w in range(self.n_workers):
            parent_end, child_end = context.Pipe()
            owned = {k: runtime for k, runtime in enumerate(runtimes) if k % self.n_workers == w}
            process = context.Process(target=_worker_main, args=(child_end, owned), daemon=True)
            process.start()
            child_end.close()
            self._pipes.append(parent_end)
            self._processes.append(process)

    def dispatch(self, commands: Dict[int, Tuple]) -> Dict[int, Any]:
        per_worker: Dict[int, List[Tuple[int, Tuple]]] = {}
        for k, command in sorted(commands.items()):
            per_worker.setdefault(self._worker_of[k], []).append((k, command))
        active = sorted(per_worker)
        for w in active:
            self._pipes[w].send(per_worker[w])
        replies: Dict[int, Any] = {}
        for w in active:
            status, payload, busy = self._pipes[w].recv()
            self.busy_seconds[w] = busy
            if status != "ok":
                raise RuntimeError(f"shard worker {w} failed:\n{payload}")
            replies.update(payload)
        return replies

    def close(self) -> None:
        for pipe in self._pipes:
            try:
                pipe.send(None)
            except (BrokenPipeError, OSError):
                pass
        for process in self._processes:
            process.join(timeout=30)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
                process.join(timeout=5)
        for pipe in self._pipes:
            pipe.close()


class _WindowController:
    """Drives the conservative window rounds against a shard backend."""

    def __init__(self, backend, plan: ShardPlan) -> None:
        self.backend = backend
        self.plan = plan
        self.n = plan.n_shards
        self.lookahead = plan.lookahead
        self.inboxes: List[List[Tuple[float, int, int, Any]]] = [[] for _ in range(self.n)]
        self.next_times: List[Optional[float]] = [None] * self.n
        self.done = [False] * self.n
        #: The last window bound; all participating shard clocks sit here.
        self.time = 0.0
        self.rounds = 0
        self.cross_messages = 0

    def broadcast(self, command: Tuple) -> Dict[int, Any]:
        replies = self.backend.dispatch({k: command for k in range(self.n)})
        self._absorb(replies)
        return replies

    def _absorb(self, replies: Dict[int, Any]) -> None:
        for k, reply in replies.items():
            next_time, outbox, done = reply
            self.next_times[k] = next_time
            self.done[k] = done
            for deliver_at, seq, dst_shard, message in outbox:
                self.inboxes[dst_shard].append((deliver_at, k, seq, message))
                self.cross_messages += 1

    def _global_min(self) -> float:
        g = _INFINITY
        for next_time in self.next_times:
            if next_time is not None and next_time < g:
                g = next_time
        for inbox in self.inboxes:
            for entry in inbox:
                if entry[0] < g:
                    g = entry[0]
        return g

    def run_windows(self) -> None:
        """Advance rounds until every shard's clients are done (shards keep
        serving remote traffic for other shards' clients until the last one
        finishes) or nothing is left to run."""
        while True:
            if all(self.done):
                # Remaining buffered messages are responses to clients that
                # already finished; dropping them mirrors the single-engine
                # run stopping with events still queued.
                return
            g = self._global_min()
            if g == _INFINITY:
                return
            window = g + self.lookahead
            commands: Dict[int, Tuple] = {}
            for k in range(self.n):
                inbound = self.inboxes[k]
                next_time = self.next_times[k]
                # Idle-skip: a shard with nothing to inject and no event
                # inside the window cannot act; leave its clock behind (its
                # cached next_time stays valid) and catch it up later.
                if inbound or (next_time is not None and next_time <= window):
                    inbound.sort(key=lambda entry: (entry[0], entry[1], entry[2]))
                    commands[k] = ("advance", window, inbound)
                    self.inboxes[k] = []
            replies = self.backend.dispatch(commands)
            self._absorb(replies)
            self.time = window
            self.rounds += 1

    def align(self) -> None:
        """Catch every shard's clock up to the last window bound.

        Run before ``finalize`` so every shard reports the same virtual end
        time regardless of idle-skipping.
        """
        if self.time > 0.0:
            self.broadcast(("align", self.time))


@dataclass
class ParallelExperimentResult:
    """Outcome of one sharded run: merged metrics plus per-shard evidence.

    :meth:`summary` deliberately excludes the worker count and every
    wall-clock quantity -- it is the byte-identical reproducibility unit
    shared by ``workers=1`` and ``workers=N``.
    """

    scenario_name: str
    workload_name: str
    policy_name: str
    seed: int
    shards: int
    workers: int
    lookahead: float
    lookahead_class: str
    metrics: RunMetrics
    shard_metrics: List[RunMetrics]
    shard_traces: List[Dict[str, Any]]
    trace_sha256: List[str]
    rounds: int
    cross_messages: int
    #: Per-worker CPU seconds over every command (begin, run, finalize).
    busy_seconds: List[float]
    #: Per-worker CPU seconds spent in the measured run phase only
    #: (after ``begin_run`` through the post-run align) -- the figure
    #: comparable to the single-engine
    #: ``ops_per_wall_s``, which also excludes the load phase.
    run_busy_seconds: List[float]
    #: CPU seconds the controller process spent in the run phase.  With
    #: forked workers this is pure routing/serialisation overhead (it must
    #: stay below the worker bottleneck for the aggregate figure to be
    #: honest); with ``workers=1`` the shards execute in the controller
    #: process, so this roughly equals ``run_busy_seconds[0]``.
    parent_run_cpu_s: float
    elapsed_s: float

    @property
    def aggregate_ops_per_busy_s(self) -> float:
        """Aggregate run-phase throughput: total ops over the busiest worker.

        With one core per worker this is the wall-clock throughput of the
        run phase; using per-process CPU time makes the figure honest on
        oversubscribed hosts where workers preempt each other.
        """
        bottleneck = max(self.run_busy_seconds) if self.run_busy_seconds else 0.0
        if bottleneck <= 0.0:
            return 0.0
        return self.metrics.counters.total / bottleneck

    def summary(self) -> Dict[str, object]:
        """One flat merged row, same columns as ``ExperimentResult.summary``."""
        row = self.metrics.summary()
        row["scenario"] = self.scenario_name
        row["seed"] = self.seed
        row["shards"] = self.shards
        return row


def run_parallel_experiment(
    scenario,
    workload: WorkloadConfig,
    policy: str,
    threads: int,
    *,
    seed: int = 0,
    n_nodes: Optional[int] = None,
    shards: int = DEFAULT_SHARDS,
    workers: int = 1,
    granularity: str = "auto",
    monitoring_interval: Optional[float] = None,
    think_time: float = 0.0,
    retry_policy: Optional[object] = None,
    max_virtual_time: float = 3600.0,
) -> ParallelExperimentResult:
    """Run one experiment sharded over a conservative-PDES window protocol.

    ``shards`` fixes the partition (and therefore every simulated-time
    result); ``workers`` only chooses how many forked processes execute
    them.  Restrictions versus :func:`repro.experiments.runner.run_experiment`:
    no fault schedules, anti-entropy or adaptive repair (their control loops
    are cluster-global), the policy must be given by name (each shard needs
    a private instance), and ``threads`` must be at least ``shards``.
    """
    # Lazy import: the experiments package imports this module for the
    # runner's ``workers=`` plumbing.
    from repro.experiments.scenarios import Scenario, ScenarioRegistry

    if isinstance(scenario, str):
        scenario = ScenarioRegistry.get(scenario)
    assert isinstance(scenario, Scenario)
    if scenario.fault_schedule is not None:
        raise ValueError("fault schedules are not supported by the sharded engine")
    if scenario.anti_entropy is not None or scenario.adaptive_repair is not None:
        raise ValueError("anti-entropy/adaptive repair are not supported by the sharded engine")
    if not isinstance(policy, str):
        raise ValueError(
            "the sharded engine needs the policy by name: every shard builds "
            "a private instance (policy objects hold per-cluster state)"
        )
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if threads < shards:
        raise ValueError(
            f"threads ({threads}) must be >= shards ({shards}): every shard "
            "pins at least one closed-loop client"
        )
    if workload.record_count < shards:
        raise ValueError(
            f"record_count ({workload.record_count}) must be >= shards ({shards})"
        )

    config = scenario.cluster_config(seed=seed, n_nodes=n_nodes)
    plan = plan_shards(resolve_topology(config), shards, granularity)
    thread_split = [threads // shards + (1 if k < threads % shards else 0) for k in range(shards)]
    record_split = split_proportional(workload.record_count, thread_split)
    op_split = split_proportional(workload.operation_count, thread_split)

    runtimes = []
    for k in range(shards):
        shard_workload = replace(
            workload,
            key_prefix=f"s{k}.{workload.key_prefix}",
            record_count=record_split[k],
            operation_count=op_split[k],
        )
        runtimes.append(
            ShardRuntime(
                k,
                plan.shards[k],
                config,
                shard_workload,
                make_policy(policy, scenario, monitoring_interval=monitoring_interval),
                thread_split[k],
                seed=seed,
                think_time=think_time,
                retry_policy=retry_policy,
                max_virtual_time=max_virtual_time,
                shard_of=plan.shard_of,
            )
        )

    # The bulk load, before any worker forks: each shard loads its own key
    # slice into its whole cluster copy (its coordinators, its auditor), and
    # every replica it does not own is also stored by the shard that owns it
    # -- ghost copies never serve traffic.
    for runtime in runtimes:
        for result in runtime.executor.load():
            for address in result.replicas:
                owner = runtimes[plan.shard_of(address)]
                if owner is not runtime:
                    owner.cluster.nodes[address].apply_write(result.cell)

    effective_workers = max(1, min(workers, shards))
    backend = (
        LocalShards(runtimes)
        if effective_workers == 1
        else ForkedShards(runtimes, effective_workers)
    )
    started = perf_counter()
    # Forked workers run with the cyclic collector off (gc.disable() in
    # _worker_main); do the same in the controller process so the in-process
    # backend's busy figures and the controller's routing cost aren't
    # charged for GC sweeps over 40+ ghost-cluster heaps.  The simulation
    # allocates acyclically on the hot path, so refcounting frees it all.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        controller = _WindowController(backend, plan)
        controller.broadcast(("begin_run",))
        begun = list(backend.busy_seconds)
        parent_cpu_start = process_time()
        controller.run_windows()
        controller.align()
        parent_run_cpu = process_time() - parent_cpu_start
        run_busy = [after - before for after, before in zip(backend.busy_seconds, begun)]
        finals = backend.dispatch({k: ("finalize",) for k in range(shards)})
        busy_seconds = list(backend.busy_seconds)
    finally:
        backend.close()
        if gc_was_enabled:
            gc.enable()
    elapsed = perf_counter() - started

    payloads = [finals[k] for k in range(shards)]
    shard_metrics = [p["metrics"] for p in payloads]
    return ParallelExperimentResult(
        scenario_name=scenario.name,
        workload_name=workload.name,
        policy_name=policy,
        seed=seed,
        shards=shards,
        workers=effective_workers,
        lookahead=plan.lookahead,
        lookahead_class=plan.lookahead_class,
        metrics=merge_run_metrics(shard_metrics),
        shard_metrics=shard_metrics,
        shard_traces=[p["trace"] for p in payloads],
        trace_sha256=[p["trace_sha256"] for p in payloads],
        rounds=controller.rounds,
        cross_messages=controller.cross_messages,
        busy_seconds=busy_seconds,
        run_busy_seconds=run_busy,
        parent_run_cpu_s=parent_run_cpu,
        elapsed_s=elapsed,
    )
