"""What the ledger measures: the five workloads and every metric's declaration.

Nothing here imports ``repro``: the harness process stays light (import cost
is measured in the child that does the work) and ``BENCHMARK.json`` can be
regenerated from these tables alone (:func:`manifest`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

#: The repo's long-standing bench seed.
DEFAULT_SEED = 20260730

#: One measuring run spends this long on a workload (``run_seconds``).
RUN_SECONDS = 20

#: Generated inputs one ``--seed`` stands for.  The pipeline's contract runs the
#: benchmark "ten times on each workload, each time with another ``--seed``" and
#: takes the spread of every end-to-end metric over those runs, so a run's
#: simulated metrics must be steady from seed to seed.  One input's draw (which
#: keys are hot, where their replicas sit) moves the 1 000-node rows' p99 by up
#: to 10 %; the median over three inputs keeps every simulated spread below a
#: third of its bound (README, "Observed spread").  Parent and change run the same seeds, so the
#: inputs are the same on both sides of a comparison.
INPUTS_PER_SEED = 3


def input_seeds(seed: int) -> Tuple[int, ...]:
    """The ``run_experiment`` seeds of a run; repetitions cycle through them."""
    return tuple(seed * 16 + index for index in range(INPUTS_PER_SEED))


@dataclass(frozen=True)
class Workload:
    """One ``run_experiment(...)`` call, sizes included in the definition."""

    name: str
    why: str
    scenario: str  # attribute of ``repro.experiments.scenarios``
    mix: str  # attribute of ``repro.workload.workloads``
    record_count: int
    operation_count: int
    policy: str
    threads: int
    #: Extra keyword arguments of ``run_experiment``.
    options: Dict[str, object] = field(default_factory=dict)
    #: Pin one client fleet per site (``datacenters=scenario.datacenter_names``).
    pin_datacenters: bool = False
    #: Virtual seconds the run must span (fault timeline); sets ``think_time``.
    virtual_span_s: Optional[float] = None
    #: ``--quick`` sizes: (record_count, operation_count, threads).
    quick: Tuple[int, int, int] = (0, 0, 0)

    @property
    def sharded(self) -> bool:
        return "shards" in self.options

    @property
    def think_time(self) -> float:
        """Per-client pause that stretches the closed loop over the timeline."""
        if self.virtual_span_s is None:
            return 0.0
        return self.virtual_span_s * self.threads / self.operation_count

    def sized(self, quick: bool) -> "Workload":
        if not quick:
            return self
        records, operations, threads = self.quick
        return replace(
            self, record_count=records, operation_count=operations, threads=threads
        )

    def sizes(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "mix": self.mix,
            "record_count": self.record_count,
            "operation_count": self.operation_count,
            "policy": self.policy,
            "threads": self.threads,
            "think_time": self.think_time,
            **self.options,
        }


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="paper_harmony_lan",
        why=(
            "The paper's experiment: 20-node RF-5 LAN, adaptive read level, coalesced "
            "fabric; the only row where estimator, monitor and control plane do work."
        ),
        scenario="GRID5000",
        mix="WORKLOAD_A",
        record_count=5000,
        operation_count=20_000,
        policy="harmony-0.2",
        threads=40,
        # A monitor tick per ~46 ops (431 in all), so that the control plane's
        # self time stands clear of the per-op level look-ups charged to the
        # same layer on other rows.
        options={"monitoring_interval": 0.005},
        quick=(200, 1000, 20),
    ),
    Workload(
        name="scale100_quorum",
        why=(
            "Pure op path at 100 nodes: engine, fifo fabric, coordinator, node, storage "
            "at static QUORUM; control, repair, faults and transfers must read no change."
        ),
        scenario="SCALE_100",
        mix="WORKLOAD_A",
        record_count=2500,
        operation_count=20_000,
        policy="quorum",
        threads=50,
        quick=(200, 400, 10),
    ),
    Workload(
        name="scale1000_wide",
        why=(
            "Width, not depth: 1000 nodes, cold placement and route caches, 1280 clients "
            "of 5 ops each; set-up dominates, so build, bulk load and cache misses show."
        ),
        scenario="SCALE_1000",
        mix="WORKLOAD_A",
        record_count=2000,
        operation_count=6400,
        policy="quorum",
        threads=1280,
        quick=(40, 128, 32),
    ),
    Workload(
        name="scale1000_sharded",
        why=(
            "The same ring and inputs through repro.sim.parallel with workers = nproc; "
            "beside scale1000_wide it is the sharded engine's elapsed-wall comparison."
        ),
        scenario="SCALE_1000",
        mix="WORKLOAD_A",
        record_count=2000,
        operation_count=6400,
        policy="quorum",
        threads=1280,
        options={"workers": 2, "shards": 10},
        quick=(40, 128, 32),
    ),
    Workload(
        name="geo_faults_wan",
        why=(
            "Background paths: 95% LOCAL_ONE reads over three DCs, a 60 s WAN isolation "
            "and heal, hints, Merkle repair, fair-share transfers; idle on other rows."
        ),
        scenario="GRID5000_3SITES_WAN",
        mix="WORKLOAD_B",
        record_count=1000,
        operation_count=40_000,
        policy="local_one",
        threads=48,
        pin_datacenters=True,
        virtual_span_s=83.0,
        quick=(100, 800, 12),
    ),
)


def workload(name: str) -> Workload:
    for candidate in WORKLOADS:
        if candidate.name == name:
            return candidate
    raise KeyError(f"unknown workload {name!r}; have {[w.name for w in WORKLOADS]}")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: Share of the parent's median by which the metric may worsen
    #: (end-to-end metrics only).
    bound: Optional[float] = None
    #: ``host`` = wall clock of the simulator; ``sim`` = virtual time of the
    #: modelled store, exact for a seed.
    clock: str = "host"


#: What a user of ``run_experiment`` sees.  Every bound is about three times
#: the widest spread seen over ten seeds on any workload (README, "Observed
#: spread"; in brackets below), so that the parent passes against itself.  The
#: host-time ones are this sandbox's noise, not taste: the machine's speed
#: drifts by tens of percent from one minute to the next, and 25 % is the widest
#: bound the pipeline allows.  A change that does not mean to alter simulated
#: behaviour is held to more than the ``sim_*`` bounds: its ``sim_digest`` and
#: per-input values must stay identical (``compare``).
END_TO_END: Tuple[Metric, ...] = (
    # import repro + run_experiment(...) call to summary() returned, GC on  [9.0 %]
    Metric("wall_s", "s", "lower", 0.25),
    # import + cluster build + load phase: everything before the first measured op  [9.8 %]
    Metric("setup_s", "s", "lower", 0.25),
    # completed ops / run-phase wall (run span self time, nested load subtracted)  [11.0 %]
    Metric("run_ops_per_wall_s", "1/s", "higher", 0.25),
    # ru_maxrss of the run process plus the largest forked worker  [0.3 %; ISSUE 11's 10 %]
    Metric("peak_rss_mb", "MB", "lower", 0.1),
    # summary()["throughput_ops_s"]  [6.0 %]
    Metric("sim_throughput_ops_s", "1/s", "higher", 0.18, "sim"),
    # summary()["read_p99_ms"]  [3.7 %]
    Metric("sim_read_p99_ms", "ms", "lower", 0.12, "sim"),
    # summary()["write_p99_ms"]  [8.3 %]
    Metric("sim_write_p99_ms", "ms", "lower", 0.25, "sim"),
    # 1 - auditor-judged stale reads / judged reads (never 0, unlike the stale rate)  [0.6 %]
    Metric("sim_fresh_read_share", "ratio", "higher", 0.02, "sim"),
)

#: The ``src/repro`` packages, by the name the ledger gives them.
LAYERS: Tuple[str, ...] = (
    "experiments", "sim", "network", "coordinator", "node", "placement",
    "repair", "workload", "control", "staleness", "faults", "metrics",
)


def _layer_metrics() -> List[Metric]:
    per_layer: List[Metric] = []
    for layer in LAYERS:
        per_layer += [
            Metric(f"{layer}.self_s", "s", "lower"),
            Metric(f"{layer}.self_share", "ratio", "lower"),
            Metric(f"{layer}.calls", "count", "lower"),
        ]
    rows = [
        # untraced phase spans
        ("experiments.import_s", "s", "lower"),
        ("experiments.build_s", "s", "lower"),
        ("experiments.load_s", "s", "lower"),
        ("experiments.run_s", "s", "lower"),
        ("experiments.report_s", "s", "lower"),
        # engine
        ("sim.events", "count", "lower"),
        ("sim.events_per_op", "ratio", "lower"),
        ("sim.host_us_per_event", "us", "lower"),
        ("sim.heap_pushes", "count", "lower"),
        ("sim.compactions", "count", "lower"),
        # sharded engine (zero on single-engine rows)
        ("parallel.window_rounds", "count", "lower"),
        ("parallel.cross_messages", "count", "lower"),
        ("parallel.worker_run_busy_max_s", "s", "lower"),
        ("parallel.worker_run_busy_skew", "ratio", "lower"),
        ("parallel.parent_run_cpu_s", "s", "lower"),
        ("parallel.build_s", "s", "lower"),
        # fabric
        ("network.msgs_sent", "count", "lower"),
        ("network.msgs_per_op", "ratio", "lower"),
        ("network.bytes_sent", "bytes", "lower"),
        ("network.msgs_dropped", "count", "lower"),
        ("network.msgs_blocked", "count", "lower"),
        ("network.send_calls", "count", "lower"),
        ("network.send_cum_s", "s", "lower"),
        ("network.latency_pool_refills", "count", "lower"),
        ("network.transfers_started", "count", "lower"),
        ("network.transfers_completed", "count", "higher"),
        ("network.transfer_bytes", "bytes", "lower"),
        # coordinator
        ("coordinator.reads", "count", "higher"),
        ("coordinator.writes", "count", "higher"),
        ("coordinator.read_repairs", "count", "lower"),
        ("coordinator.timeouts", "count", "lower"),
        ("coordinator.unavailable", "count", "lower"),
        ("coordinator.hints_stored", "count", "lower"),
        ("coordinator.hints_replayed", "count", "higher"),
        ("coordinator.read_cum_s", "s", "lower"),
        ("coordinator.write_cum_s", "s", "lower"),
        # node and storage
        ("node.reads_served", "count", "lower"),
        ("node.writes_applied", "count", "lower"),
        ("node.replica_ops_per_op", "ratio", "lower"),
        ("node.queue_rejections", "count", "lower"),
        ("node.dropped_mutations", "count", "lower"),
        ("node.storage_applies", "count", "lower"),
        ("node.storage_reads", "count", "lower"),
        ("node.storage_flushes", "count", "lower"),
        ("node.storage_bytes_written", "bytes", "lower"),
        # placement
        ("placement.ring_walks", "count", "lower"),
        ("placement.replicas_for_calls", "count", "lower"),
        ("placement.route_miss_ratio", "ratio", "lower"),
        # repair
        ("repair.sessions_started", "count", "lower"),
        ("repair.sessions_completed", "count", "higher"),
        ("repair.cells_streamed", "count", "lower"),
        ("repair.bytes_sent", "bytes", "lower"),
        ("repair.stream_deferrals", "count", "lower"),
        # workload
        ("workload.ops_requested", "count", "higher"),
        ("workload.ops_completed", "count", "higher"),
        ("workload.ops_failed", "count", "lower"),
        ("workload.clients", "count", "lower"),
        ("workload.next_op_calls", "count", "lower"),
        ("workload.retries", "count", "lower"),
        # control
        ("control.ticks", "count", "lower"),
        ("control.decisions", "count", "lower"),
        ("control.levels_used", "count", "higher"),
        ("control.strong_read_share", "ratio", "lower"),
        ("control.mean_estimate", "ratio", "lower"),
        # staleness
        ("staleness.judged_reads", "count", "higher"),
        ("staleness.stale_reads", "count", "lower"),
        ("staleness.stale_rate", "ratio", "lower"),
        ("staleness.stale_age_p99_ms", "ms", "lower"),
        ("staleness.k_max", "count", "lower"),
        # faults
        ("faults.events_applied", "count", "lower"),
        # the tracer itself
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.unattributed_share", "ratio", "lower"),
    ]
    return per_layer + [Metric(*row) for row in rows]


PER_LAYER: Tuple[Metric, ...] = tuple(_layer_metrics())


def manifest() -> Dict[str, object]:
    """``BENCHMARK.json``: exactly the keys the pipeline's contract names."""
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
