"""Regression guards on the per-operation runtime budget.

The op-path overhaul (zero-Waiter completions, batched client scheduler,
shared timer queues) is held in place by pinning the *counts* that make it
fast: engine events per operation and fabric messages per operation on the
``SCALE_100`` reference workload.  These are deterministic for a given seed,
so the ceilings are machine-independent -- a change that quietly reintroduces
per-operation bookkeeping events fails here long before a wall-clock
benchmark would notice.

Recorded at the time of the overhaul (seed 11, 120 records, 600 ops,
20 threads): ~14.1 events/op and ~8.74 messages/op in the run phase.

The *width* budget does the same for ring width on the ``SCALE_1000`` smoke:
ring tokens stepped over per placement miss (recorded 5.02 at RF 5: the walk
stops when the strategy's rules are met), and what the run leaves behind once
it drains: no per-pair fabric state, no request deque on a node that never
queued, no timer queue left holding entries.

The *build* budget pins what a ring costs before it serves anything: no
per-node random stream (a node's service stream is born at its first
request, a coordinator's read-repair stream at its first roll), and a ceiling
on the bytes the ``SCALE_1000`` build allocates per node.  When every node
and coordinator created its stream at build, that was 5 789 B per node and
2 001 streams.

The *routing-state* budget pins what a coordinator keeps between operations
to what placement depends on: nothing per key, one requirement per level and
replica count, one read route (requirement and contacted replicas) per
(level, replica set) it read, and nothing more when the same operations run
again.  Every value a run keeps in
bulk -- latency samples and pre-drawn pools -- is a C double, and a write's
payload is one string per record.

The *retention* budget pins what a run keeps per operation to what some code
reads back: the fault timeline's per-operation log is typed columns, and an
acknowledged write leaves behind its latency samples and one row of its
key's audit history -- no commit-log entry, no version tuple.

The *call* budget pins how many Python calls into ``src/repro`` one
run-phase operation makes, counted with ``sys.setprofile``: a pass-through
frame (a shim, a property on the hot path, a placement lookup the address
already answers) shows here as a count, exactly, on any machine.  Before the
op path read placement off the address and delivered each message in one
frame, the two runs below made 161.3 and 130.4 calls per operation.
"""

from __future__ import annotations

import gc
import os
import sys
import tracemalloc
from array import array
from dataclasses import replace

import repro
from repro.cluster.cluster import ClusterConfig, SimulatedCluster
from repro.control.policies import make_policy
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import GRID5000_3SITES_WAN, SCALE_100, SCALE_1000
from repro.faults import timeline as timeline_module
from repro.metrics.histogram import LatencyHistogram
from repro.staleness.auditor import StalenessAuditor
from repro.workload.executor import WorkloadExecutor
from repro.workload.workloads import WORKLOAD_A, WORKLOAD_B

#: Ceilings with a small allowance over the recorded values; semantic
#: message counts (replica fan-out) dominate, the allowance covers only
#: bookkeeping drift.
MAX_EVENTS_PER_OP = 15.0
MAX_MESSAGES_PER_OP = 9.2

#: Width ceiling: a placement miss may step over this many ring tokens per
#: replica.
MAX_TOKENS_PER_MISS_PER_REPLICA = 8

#: Fault-timeline bytes kept per logged operation: two C doubles and four
#: bytes per op, plus a double and two bytes per judged read.  Measured 32.9
#: on the quick WAN run below; an object per op (a frozen dataclass, a
#: verdict tuple, boxed floats) kept about 240.
MAX_TIMELINE_BYTES_PER_OP = 40

#: Live-set growth per extra acknowledged write: two 8-byte latency samples
#: and a 24-byte audit-history row.  Measured 43 B on the five-node ring
#: below (N = 400); retaining commit-log cells and version tuples cost 320 B.
MAX_LIVE_BYTES_PER_WRITE = 64


#: Python calls into ``src/repro`` per run-phase operation.  Measured 100.73
#: on the ``SCALE_100`` seed-11 closed loop and 78.17 on the quick
#: ``GRID5000_3SITES_WAN`` run (CPython 3.11); 161.34 and 130.43 before the
#: op path lost its pass-through frames.
MAX_CALLS_PER_OP_SCALE_100 = 102
MAX_CALLS_PER_OP_GEO_WAN = 80

#: Bytes the ``SCALE_1000`` build allocates per node (tracemalloc, a second
#: build after a warm-up one).  Measured 3 344 B on CPython 3.11, against
#: 5 789 B with every per-node stream created at build; the ceiling is 35 %
#: under that.
MAX_BUILD_BYTES_PER_NODE = 3_750


def run_closed_loop(scenario, *, seed, records, ops, threads):
    """Load and run; the cluster, the run phase's events/op and messages/op,
    and each node's ``writes_applied`` after the load."""
    cluster = SimulatedCluster(scenario.cluster_config(seed=seed))
    workload = WORKLOAD_A.scaled(record_count=records, operation_count=ops)
    executor = WorkloadExecutor(cluster, workload, make_policy("quorum"), threads=threads)
    executor.load()
    # The bulk load is free: no engine event, no fabric message.
    assert cluster.engine.events_processed == 0 and cluster.fabric.stats.sent == 0
    loaded = {a: cluster.stats.counters(a).writes_applied for a in cluster.nodes}
    events_before = cluster.engine.events_processed
    messages_before = cluster.fabric.stats.sent
    metrics = executor.run()
    assert metrics.counters.total == ops
    events = cluster.engine.events_processed - events_before
    messages = cluster.fabric.stats.sent - messages_before
    return cluster, events / ops, messages / ops, loaded


def run_phase_counts(scenario, **sizes):
    return run_closed_loop(scenario, **sizes)[1:3]


REPRO_SOURCE = os.path.dirname(repro.__file__) + os.sep


class RunPhaseCalls:
    """Counts Python calls into ``src/repro`` made inside ``WorkloadExecutor.run``.

    Use as ``monkeypatch.setattr(WorkloadExecutor, "run", counter.wrap(...))``;
    the profile hook is on only while the run phase is (a ``run()`` that has
    to load first loads before the hook goes on).
    """

    def __init__(self) -> None:
        self.calls = 0

    def _profile(self, frame, event, arg) -> None:
        if event == "call" and frame.f_code.co_filename.startswith(REPRO_SOURCE):
            self.calls += 1

    def wrap(self, run):
        def counted(executor):
            if not executor._loaded:
                executor.load()
            sys.setprofile(self._profile)
            try:
                return run(executor)
            finally:
                sys.setprofile(None)

        return counted


def per_node_streams(cluster, kind):
    """Addresses whose ``<kind>.<address>.*`` stream exists."""
    by_name = {str(address): address for address in cluster.nodes}
    prefix = kind + "."
    return {
        by_name[name[len(prefix):].rpartition(".")[0]]
        for name in cluster.streams.names()
        if name.startswith(prefix)
    }


class TestOperationBudget:
    def test_scale_100_events_per_op_within_budget(self):
        events_per_op, messages_per_op = run_phase_counts(
            SCALE_100, seed=11, records=120, ops=600, threads=20
        )
        assert events_per_op <= MAX_EVENTS_PER_OP, (
            f"events/op regressed to {events_per_op:.2f} "
            f"(budget {MAX_EVENTS_PER_OP}); did a per-operation event sneak "
            "back into the completion or timeout path?"
        )
        assert messages_per_op <= MAX_MESSAGES_PER_OP, (
            f"messages/op regressed to {messages_per_op:.2f} "
            f"(budget {MAX_MESSAGES_PER_OP})"
        )

    def test_budget_is_stable_across_seeds(self):
        # The ceilings must not be a lucky seed: a second seed stays inside.
        events_per_op, messages_per_op = run_phase_counts(
            SCALE_100, seed=12, records=120, ops=600, threads=20
        )
        assert events_per_op <= MAX_EVENTS_PER_OP
        assert messages_per_op <= MAX_MESSAGES_PER_OP

    def test_scale_1000_serves_a_closed_loop(self):
        # Headroom proof: a 1000-node ring serves a small closed loop with
        # the same per-op budget (placement walks, link lookups and timers
        # must all stay O(1) in ring width).
        events_per_op, messages_per_op = run_phase_counts(
            SCALE_1000, seed=11, records=60, ops=300, threads=10
        )
        assert events_per_op <= MAX_EVENTS_PER_OP
        assert messages_per_op <= MAX_MESSAGES_PER_OP

    def test_scale_1000_width_budget(self):
        # What a run costs must follow what it touches, not the ring's width.
        # Every fact below is exact for a seed.
        cluster, _, _, loaded = run_closed_loop(
            SCALE_1000, seed=11, records=60, ops=300, threads=10
        )
        ring = cluster.ring
        assert ring.walks > 0
        tokens_per_miss = ring.tokens_visited / ring.walks
        budget = MAX_TOKENS_PER_MISS_PER_REPLICA * cluster.replication_factor
        assert tokens_per_miss <= budget, (
            f"a placement miss stepped over {tokens_per_miss:.1f} ring tokens "
            f"(budget {budget}); is a strategy walking past the point where its "
            "rules are satisfied?"
        )
        assert cluster.fabric.stats.delivered > 0
        cluster.settle()  # the closed loop drains: late acks, cleanup timers
        floors = cluster.fabric._floors
        assert not floors, (
            f"{sum(map(len, floors.values()))} fifo clamp entries outlived their "
            "messages; the fabric must hold per-pair state only while in flight"
        )
        # Ten threads never fill a node's 24 workers, so no node queued and
        # none may hold a request deque.
        queues = [a for a, node in cluster.nodes.items() if node._queue is not None]
        assert not queues, f"{len(queues)} nodes hold a request deque they never used"
        timers = [t for c in cluster.coordinators.values() for t in c._timers.values()]
        assert timers and not any(len(timer) or timer.armed for timer in timers)
        # A node's service stream exists iff it served a request (read, or a
        # write or repair beyond what the load applied), and a coordinator's
        # read-repair stream iff it rolled: every QUORUM read here contacts
        # 3 of 5 replicas, so every coordinator of a read rolled.
        served = {
            a for a, node in cluster.nodes.items()
            if node.counters.reads_served or node.counters.writes_applied > loaded[a]
        }
        rolled = {a for a in cluster.coordinators if cluster.stats.counters(a).coordinator_reads}
        assert per_node_streams(cluster, "node") == served
        assert per_node_streams(cluster, "coordinator") == rolled
        assert (len(served), len(rolled)) == (145, 154)


class TestCallBudget:
    def test_scale_100_calls_per_op(self, monkeypatch):
        counter = RunPhaseCalls()
        monkeypatch.setattr(WorkloadExecutor, "run", counter.wrap(WorkloadExecutor.run))
        run_phase_counts(SCALE_100, seed=11, records=120, ops=600, threads=20)
        per_op = counter.calls / 600
        assert per_op <= MAX_CALLS_PER_OP_SCALE_100, (
            f"a SCALE_100 operation makes {per_op:.2f} calls into src/repro "
            f"(budget {MAX_CALLS_PER_OP_SCALE_100}); did a pass-through frame come back?"
        )

    def test_geo_wan_calls_per_op(self, monkeypatch):
        counter = RunPhaseCalls()
        monkeypatch.setattr(WorkloadExecutor, "run", counter.wrap(WorkloadExecutor.run))
        result = run_experiment(
            GRID5000_3SITES_WAN,
            WORKLOAD_B.scaled(record_count=100, operation_count=800),
            "local_one",
            12,
            seed=20260730,
            datacenters=GRID5000_3SITES_WAN.datacenter_names,
            think_time=83.0 * 12 / 800,  # the ledger's quick geo_faults_wan row
        )
        assert result.metrics.counters.total == 800
        per_op = counter.calls / 800
        assert per_op <= MAX_CALLS_PER_OP_GEO_WAN, (
            f"a GRID5000_3SITES_WAN operation makes {per_op:.2f} calls into src/repro "
            f"(budget {MAX_CALLS_PER_OP_GEO_WAN}); did a pass-through frame come back?"
        )


class TestBuildBudget:
    def test_scale_1000_build_creates_no_per_node_stream(self):
        cluster = SimulatedCluster(SCALE_1000.cluster_config(seed=11))
        assert not per_node_streams(cluster, "node")
        assert not per_node_streams(cluster, "coordinator")
        assert cluster.streams.names() == []

    def test_scale_1000_build_bytes_per_node(self):
        config = SCALE_1000.cluster_config(seed=11)
        SimulatedCluster(config)  # one-time allocations (imports, caches) land here
        gc.collect()
        tracemalloc.start()
        try:
            cluster = SimulatedCluster(config)
            allocated = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        per_node = allocated / len(cluster.nodes)
        assert per_node <= MAX_BUILD_BYTES_PER_NODE, (
            f"building SCALE_1000 allocates {per_node:.0f} B per node "
            f"(budget {MAX_BUILD_BYTES_PER_NODE}); is per-node state that only "
            "serving or coordinating uses built up front again?"
        )


def routing_entries(cluster):
    """Per coordinator: (requirement cache keys, read-route cache keys)."""
    return {
        address: (set(c._requirement_cache), set(c._read_routes))
        for address, c in cluster.coordinators.items()
    }


class TestRoutingState:
    def test_scale_100_routing_state_follows_placement_not_ops(self):
        cluster = SimulatedCluster(SCALE_100.cluster_config(seed=11))
        workload = WORKLOAD_A.scaled(record_count=120, operation_count=600)
        executor = WorkloadExecutor(cluster, workload, make_policy("quorum"), threads=20)
        results = []
        cluster.add_operation_observer(results.append)
        executor.load()
        metrics = executor.run()
        cluster.settle()
        ops = list(results)
        assert len(ops) == 600
        records = set(executor.workload.load_keys())

        levels = {address: set() for address in cluster.coordinators}
        seen = {address: set() for address in cluster.coordinators}
        for result in ops:
            levels[result.coordinator].add(result.consistency_level)
            if result.op_type == "read":
                seen[result.coordinator].add((result.consistency_level, result.replicas))
        entries = routing_entries(cluster)
        for address, coordinator in cluster.coordinators.items():
            # Nothing the coordinator holds is keyed by a record key.
            for name, held in vars(coordinator).items():
                if isinstance(held, dict):
                    parts = [p for k in held for p in (k if isinstance(k, tuple) else (k,))]
                    assert not records.intersection(p for p in parts if isinstance(p, str)), name
            requirements, routes = entries[address]
            # Static QUORUM: classic levels only, one entry per (level, RF).
            assert all(type(count) is int for _, count in requirements)
            assert len(requirements) <= len(levels[address])
            # One read route per (level, replica set) the coordinator read.
            assert routes <= seen[address]

        # Doubling the op count over the same keys adds no entry: replay
        # every operation through the coordinator and at the level it had.
        for result in ops:
            if result.op_type == "read":
                cluster.read(result.key, result.consistency_level,
                             coordinator=result.coordinator)
            else:
                cluster.write(result.key, "again", result.consistency_level,
                              coordinator=result.coordinator)
        cluster.settle()
        assert len(results) == 2 * len(ops)
        assert routing_entries(cluster) == entries
        assert not any(c.in_flight for c in cluster.coordinators.values())

        # A write's payload is one string per record, not one per write.
        values = executor.workload._values
        assert 0 < len(values) <= len(records)

        # Samples and pre-drawn pools are C doubles: 8 bytes a value, no
        # Python float object behind each one.
        histograms = [metrics.read_latency, metrics.write_latency, metrics.overall_latency]
        assert all(isinstance(h, LatencyHistogram) for h in histograms)
        pools = [pool.values for pool in cluster.fabric._pools.values()]
        pools += [node._service_pool for node in cluster.nodes.values()]
        pools += [c._read_repair_pool for c in cluster.coordinators.values()]
        stores = [h._samples for h in histograms] + pools
        assert sum(map(len, stores)) > 0
        for store in stores:
            assert type(store) is array and store.typecode == "d" and store.itemsize == 8
        assert sum(len(h._samples) for h in histograms) == sum(h.count for h in histograms)


def live_bytes_after_writes(writes: int) -> int:
    """Bytes still allocated after ``writes`` QUORUM writes to four keys."""
    tracemalloc.start()
    try:
        cluster = SimulatedCluster(ClusterConfig(n_nodes=5, replication_factor=3, seed=3))
        workload = replace(WORKLOAD_A, read_proportion=0.0, update_proportion=1.0).scaled(
            record_count=4, operation_count=writes
        )
        auditor = StalenessAuditor()
        executor = WorkloadExecutor(
            cluster, workload, make_policy("quorum"), threads=4, auditor=auditor
        )
        executor.run()
        cluster.settle()
        assert auditor.writes_observed == writes + 4  # every write acknowledged, and the load
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


class TestRetention:
    def test_fault_timeline_keeps_typed_columns(self):
        tracemalloc.start()
        try:
            result = run_experiment(
                GRID5000_3SITES_WAN,
                WORKLOAD_B.scaled(record_count=100, operation_count=800),
                "local_one",
                12,
                seed=20260730,
                datacenters=GRID5000_3SITES_WAN.datacenter_names,
                think_time=83.0 * 12 / 800,  # the ledger's quick geo_faults_wan row
            )
            kept = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.Filter(True, timeline_module.__file__)]
            )
        finally:
            tracemalloc.stop()
        timeline = result.auditor
        assert len(timeline.op_events) == 800 and len(timeline.read_events) > 0
        per_op = sum(stat.size for stat in kept.statistics("filename")) / len(timeline.op_events)
        assert per_op <= MAX_TIMELINE_BYTES_PER_OP, (
            f"the fault timeline keeps {per_op:.1f} B per logged op "
            f"(budget {MAX_TIMELINE_BYTES_PER_OP}); is an object per op back?"
        )

    def test_an_acknowledged_write_leaves_little_behind(self):
        live_bytes_after_writes(10)  # one-time allocations (pools, caches) land here
        writes = 400
        small = live_bytes_after_writes(writes)
        large = live_bytes_after_writes(10 * writes)
        per_write = (large - small) / (9 * writes)
        assert per_write <= MAX_LIVE_BYTES_PER_WRITE, (
            f"each extra acknowledged write keeps {per_write:.0f} B alive "
            f"(budget {MAX_LIVE_BYTES_PER_WRITE}); is a log retaining cells?"
        )
