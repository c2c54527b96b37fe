"""One repetition: call ``run_experiment`` as a user would and report on it.

Run as ``python -m benchmarks.perf.probe --workload NAME --seed N`` (the
harness does, once per repetition, so every measurement starts from a fresh
interpreter) or call :func:`measure` in-process (the tests do).

The program is measured from outside.  Phase boundaries come from wrapping
public callables for the duration of one call and restoring them after;
counters are the public ones read off the live cluster (captured with
``cluster_hook=``) or off the sharded result.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse
import contextlib
import cProfile
import functools
import hashlib
import json
import resource
import sys
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.cluster.cluster import SimulatedCluster
from repro.experiments import scenarios
from repro.experiments.runner import run_experiment
from repro.sim.parallel.runner import ForkedShards, LocalShards
from repro.sim.parallel.shard import ShardRuntime
from repro.workload import workloads as mixes
from repro.workload.executor import WorkloadExecutor

#: ``import repro...`` as this process paid it (about zero when the caller
#: had the package loaded already, as the in-process tests do).
IMPORT_SECONDS = time.perf_counter() - _PROCESS_START

from benchmarks.perf import layers, spec

perf_counter = time.perf_counter

#: Per-node counters summed over the cluster (``cluster.stats.total``).
_NODE_COUNTERS = (
    "reads_served", "writes_applied", "coordinator_reads", "coordinator_writes",
    "read_repairs", "hints_stored", "hints_replayed", "dropped_mutations",
    "queue_rejections", "unavailable_rejections",
)


class PhaseSpans:
    """Wall spans of build, load and run, taken at public call boundaries."""

    def __init__(self) -> None:
        self.build_s = 0.0
        self.shard_build_s = 0.0
        self._loads: List[Tuple[float, float]] = []
        self._run: Tuple[float, float] = (0.0, 0.0)
        #: Sharded engine: when the first ``begin_run`` / ``finalize`` left.
        self.begin_run_at: Optional[float] = None
        self.finalize_at: Optional[float] = None
        #: Called with the executor's cluster each time ``load`` returns.
        self.on_loaded: Optional[Callable[[SimulatedCluster], None]] = None

    @property
    def load_s(self) -> float:
        return sum(end - start for start, end in self._loads)

    @property
    def load_in_run_s(self) -> float:
        """Load time spent inside the run span: ``run()`` loads when nobody did."""
        run_start, run_end = self._run
        return sum(end - start for start, end in self._loads if run_start <= start < run_end)

    @property
    def run_cum_s(self) -> float:
        return self._run[1] - self._run[0]

    @property
    def run_self_s(self) -> float:
        return self.run_cum_s - self.load_in_run_s

    @property
    def run_end(self) -> float:
        return self._run[1]

    def _on_build(self, start: float, end: float, args) -> None:
        self.build_s += end - start

    def _on_shard_build(self, start: float, end: float, args) -> None:
        self.shard_build_s += end - start

    def _on_load(self, start: float, end: float, args) -> None:
        self._loads.append((start, end))
        if self.on_loaded is not None:
            self.on_loaded(args[0].cluster)

    def _on_run(self, start: float, end: float, args) -> None:
        self._run = (start, end)

    def _on_dispatch(self, start: float, end: float, args) -> None:
        commands = args[1]
        if self.begin_run_at is None and ("begin_run",) in commands.values():
            self.begin_run_at = start
        if self.finalize_at is None and ("finalize",) in commands.values():
            self.finalize_at = start

    @contextlib.contextmanager
    def installed(self) -> Iterator["PhaseSpans"]:
        """Wrap the phase callables; put the originals back on the way out."""
        targets = [
            (SimulatedCluster, "__init__", self._on_build),
            (WorkloadExecutor, "load", self._on_load),
            (WorkloadExecutor, "run", self._on_run),
            (ShardRuntime, "__init__", self._on_shard_build),
            (LocalShards, "dispatch", self._on_dispatch),
            (ForkedShards, "dispatch", self._on_dispatch),
        ]
        originals = [(owner, name, owner.__dict__[name]) for owner, name, _ in targets]
        try:
            for (owner, name, record), (_, _, original) in zip(targets, originals):
                setattr(owner, name, _timed(original, record))
            yield self
        finally:
            for owner, name, original in originals:
                setattr(owner, name, original)


def _timed(original, record):
    """``original``, reporting each call's (start, end, args) to ``record``."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        start = perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            record(start, perf_counter(), args)

    return wrapper


def _cluster_counters(cluster: SimulatedCluster) -> Dict[str, float]:
    """The public counters of a live single-engine cluster, as one flat dict."""
    fabric = cluster.fabric.stats
    counters: Dict[str, float] = {
        "events": cluster.engine.events_processed,
        "compactions": cluster.engine.compactions,
        "msgs_sent": fabric.sent,
        "bytes_sent": fabric.bytes_sent,
        "msgs_dropped": fabric.dropped,
        "msgs_blocked": fabric.blocked,
        "transfers_started": fabric.transfers_started,
        "transfers_completed": fabric.transfers_completed,
        "transfer_bytes": fabric.transfer_bytes_completed,
    }
    for name in _NODE_COUNTERS:
        counters[name] = cluster.stats.total(name)
    storage = [node.storage.stats for node in cluster.nodes.values()]
    counters["storage_applies"] = sum(s.writes for s in storage)
    counters["storage_reads"] = sum(s.reads for s in storage)
    counters["storage_flushes"] = sum(s.memtable_flushes for s in storage)
    counters["storage_bytes_written"] = sum(s.bytes_written for s in storage)
    return counters


def call_arguments(workload: spec.Workload, seed: int) -> Tuple[tuple, Dict[str, object]]:
    """The ``run_experiment`` arguments a workload stands for."""
    scenario = getattr(scenarios, workload.scenario)
    mix = getattr(mixes, workload.mix).scaled(
        record_count=workload.record_count, operation_count=workload.operation_count
    )
    kwargs: Dict[str, object] = {"seed": seed, **workload.options}
    if workload.pin_datacenters:
        kwargs["datacenters"] = scenario.datacenter_names
    if workload.think_time:
        kwargs["think_time"] = workload.think_time
    return (scenario, mix, workload.policy, workload.threads), kwargs


def _digest(summary: Dict[str, object], *extra: object) -> str:
    canonical = json.dumps([summary, *extra], sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0  # Linux reports KiB


def _sharded_account(result, summary, spans: PhaseSpans, started: float, ended: float):
    """Phase times, layer counters and digest of a run on the sharded engine."""
    build_s = spans.shard_build_s
    phases = {
        "experiments.build_s": build_s,
        # Everything else before ``begin_run``: planning, forking, the load windows.
        "experiments.load_s": (spans.begin_run_at - started) - build_s,
        "experiments.run_s": spans.finalize_at - spans.begin_run_at,
        "experiments.report_s": ended - spans.finalize_at,  # finalize, merge, summary
    }
    busy = result.run_busy_seconds
    counts = {
        "parallel.window_rounds": result.rounds,
        "parallel.cross_messages": result.cross_messages,
        "parallel.worker_run_busy_max_s": max(busy),
        "parallel.worker_run_busy_skew": max(busy) * len(busy) / sum(busy),
        "parallel.parent_run_cpu_s": result.parent_run_cpu_s,
        "parallel.build_s": build_s,
    }
    digest = _digest(summary, result.rounds, result.cross_messages, result.trace_sha256)
    return phases, counts, digest


def _single_account(result, summary, spans: PhaseSpans, ended: float,
                    cluster: SimulatedCluster, at_load: Dict[str, float], requested: int):
    """Phase times, layer counters and digest of a run on the single engine."""
    phases = {
        "experiments.build_s": spans.build_s,
        "experiments.load_s": spans.load_s,
        "experiments.run_s": spans.run_self_s,
        "experiments.report_s": ended - spans.run_end,
    }
    total = _cluster_counters(cluster)
    in_run = {name: total[name] - at_load[name] for name in total}
    counts = {
        "sim.events": total["events"],
        "sim.events_per_op": in_run["events"] / requested,
        "sim.host_us_per_event": spans.run_self_s / in_run["events"] * 1e6,
        "sim.compactions": total["compactions"],
        "network.msgs_sent": total["msgs_sent"],
        "network.msgs_per_op": in_run["msgs_sent"] / requested,
        "network.bytes_sent": total["bytes_sent"],
        "network.msgs_dropped": total["msgs_dropped"],
        "network.msgs_blocked": total["msgs_blocked"],
        "network.transfers_started": total["transfers_started"],
        "network.transfers_completed": total["transfers_completed"],
        "network.transfer_bytes": total["transfer_bytes"],
        "coordinator.reads": total["coordinator_reads"],
        "coordinator.writes": total["coordinator_writes"],
        "coordinator.read_repairs": total["read_repairs"],
        "coordinator.unavailable": total["unavailable_rejections"],
        "coordinator.hints_stored": total["hints_stored"],
        "coordinator.hints_replayed": total["hints_replayed"],
        "node.reads_served": total["reads_served"],
        "node.writes_applied": total["writes_applied"],
        "node.replica_ops_per_op": (in_run["reads_served"] + in_run["writes_applied"]) / requested,
        "node.queue_rejections": total["queue_rejections"],
        "node.dropped_mutations": total["dropped_mutations"],
        "node.storage_applies": total["storage_applies"],
        "node.storage_reads": total["storage_reads"],
        "node.storage_flushes": total["storage_flushes"],
        "node.storage_bytes_written": total["storage_bytes_written"],
    }
    if result.anti_entropy is not None:
        for name in ("sessions_started", "sessions_completed", "cells_streamed",
                     "bytes_sent", "stream_deferrals"):
            counts[f"repair.{name}"] = sum(
                getattr(pair, name) for pair in result.anti_entropy.stats.values()
            )
    if result.injector is not None:
        counts["faults.events_applied"] = len(result.injector.log)
    return phases, counts, _digest(summary, total["events"], total["msgs_sent"])


def _traced_counts(table: layers.LayerTable, layer: Dict[str, float]) -> Dict[str, float]:
    """Call counts and cumulative times the profiler saw at named functions."""
    replicas_for = table.calls("cluster/cluster.py", "replicas_for")
    return {
        "sim.heap_pushes": sum(
            table.calls("sim/engine.py", name)
            for name in ("schedule", "schedule_after", "at", "call_soon")
        ),
        "network.send_calls": table.calls("network/fabric.py", "send"),
        "network.send_cum_s": table.cumulative_s("network/fabric.py", "send"),
        "network.latency_pool_refills": table.calls("network/latency.py", "sample_many"),
        "coordinator.read_cum_s": table.cumulative_s("cluster/coordinator.py", "read"),
        "coordinator.write_cum_s": table.cumulative_s("cluster/coordinator.py", "write"),
        "placement.ring_walks": table.calls("cluster/ring.py", "walk_from_token"),
        "placement.replicas_for_calls": replicas_for,
        # Coordinators ask the cluster for a replica set on a route-cache
        # miss only, so calls per coordinated op is the miss ratio.
        "placement.route_miss_ratio": (
            replicas_for / (layer["coordinator.reads"] + layer["coordinator.writes"])
        ),
        "workload.next_op_calls": table.calls("workload/workloads.py", "next_operation"),
    }


def measure(
    workload: spec.Workload,
    seed: int,
    *,
    trace_out: Optional[str] = None,
    import_s: float = 0.0,
) -> Dict[str, object]:
    """Run one repetition of ``workload`` on the inputs ``seed`` generates.

    With ``trace_out`` the call runs under the profiler and its spans are
    written there.  Returns the end-to-end metrics, every per-layer metric
    (those only a traced run can know read 0 otherwise), the simulated-result
    digest and the correctness checks that failed (none when the run is sound).
    """
    traced = trace_out is not None
    if traced and workload.sharded:
        raise ValueError("the profiler does not follow forked workers; sharded rows are untraced")
    args, kwargs = call_arguments(workload, seed)
    spans = PhaseSpans()
    clusters: List[SimulatedCluster] = []
    at_load: Dict[str, float] = {}
    if not workload.sharded:
        kwargs["cluster_hook"] = clusters.append
        spans.on_loaded = lambda cluster: at_load.update(_cluster_counters(cluster))

    profiler = cProfile.Profile() if traced else None
    with spans.installed():
        started = perf_counter()
        if profiler is not None:
            profiler.enable()
        try:
            result = run_experiment(*args, **kwargs)
            summary = result.summary()
        finally:
            if profiler is not None:
                profiler.disable()
        ended = perf_counter()

    metrics = result.metrics
    counters = metrics.counters
    requested = workload.operation_count
    timeouts = counters.read_timeouts + counters.write_timeouts
    failed = counters.unavailable + timeouts + (requested - counters.total)
    completed = counters.total - counters.unavailable - timeouts
    checks: List[str] = []
    if counters.total > requested:
        checks.append(f"{counters.total} ops finished, only {requested} were requested")

    if workload.sharded:
        phases, counts, digest = _sharded_account(result, summary, spans, started, ended)
    else:
        phases, counts, digest = _single_account(
            result, summary, spans, ended, clusters[0], at_load, requested
        )
    usage = metrics.consistency_level_usage
    reads = sum(usage.values())
    estimates = metrics.estimate_series
    layer: Dict[str, float] = {metric.name: 0.0 for metric in spec.PER_LAYER}
    layer.update(phases)
    layer.update(counts)
    layer.update({
        "experiments.import_s": import_s,
        "coordinator.timeouts": timeouts,
        "workload.ops_requested": requested,
        "workload.ops_completed": completed,
        "workload.ops_failed": failed,
        "workload.clients": workload.threads,
        "workload.retries": counters.retries,
        "control.ticks": len(estimates),
        "control.decisions": sum(metrics.control_decisions.values()),
        "control.levels_used": sum(1 for count in usage.values() if count),
        "control.strong_read_share": (reads - usage.get("ONE", 0)) / reads if reads else 0.0,
        "control.mean_estimate": estimates.mean() if len(estimates) else 0.0,
        "staleness.judged_reads": metrics.staleness.judged_reads,
        "staleness.stale_reads": metrics.staleness.stale_reads,
        "staleness.stale_rate": metrics.staleness.stale_rate(),
        "staleness.stale_age_p99_ms": summary["stale_age_p99_ms"],
        "staleness.k_max": summary["k_max"],
    })
    profiled: Dict[str, float] = {}  # what only the profiler can know
    if profiler is not None:
        table = layers.LayerTable(profiler, traced_wall_s=ended - started)
        profiled = {**table.metrics, **_traced_counts(table, layer)}
        layer.update(profiled)
        # Against what the profiler clocked, not the wall: time inside the
        # profiler's own hooks belongs to no span, and a preempted hook on a
        # busy host would fail a wall-based check at random.
        if table.attributed_s < 0.98 * table.profiled_s:
            checks.append(
                f"layers account for {table.attributed_s:.3f}s of {table.profiled_s:.3f}s profiled"
            )
        table.write(trace_out, workload=workload.name, seed=seed, digest=digest)

    injector = getattr(result, "injector", None)  # the sharded result has none
    return {
        "workload": workload.name,
        "seed": seed,
        "end_to_end": {
            "wall_s": import_s + (ended - started),
            "setup_s": import_s + phases["experiments.build_s"] + phases["experiments.load_s"],
            "run_ops_per_wall_s": completed / phases["experiments.run_s"],
            "peak_rss_mb": _peak_rss_mb(),
            "sim_throughput_ops_s": summary["throughput_ops_s"],
            "sim_read_p99_ms": summary["read_p99_ms"],
            "sim_write_p99_ms": summary["write_p99_ms"],
            "sim_fresh_read_share": 1.0 - metrics.staleness.stale_rate(),
        },
        "layers": layer,
        "profiled": profiled,
        "digest": digest,
        "injector_log": [description for _, description in injector.log] if injector is not None else [],
        "checks": checks,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="input seed of this repetition")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trace-out", help="profile the call and write the spans here")
    options = parser.parse_args(argv)
    workload = spec.workload(options.workload).sized(options.quick)
    report = measure(
        workload, options.seed, trace_out=options.trace_out, import_s=IMPORT_SECONDS
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
