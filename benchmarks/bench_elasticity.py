"""Elasticity benchmark: demand-driven scaling vs every static ring size.

A diurnal load profile -- quiet, a sustained peak, quiet again -- is driven
against four arms of the same single-DC cluster:

* **static-4 / static-5 / static-6** -- fixed rings of every size the
  elastic arm can reach.  The small ring is cheap but saturates at the
  peak (queueing blows up tail latency); the large ring rides the peak
  comfortably but pays for idle nodes through both quiet phases.
* **adaptive** -- starts at four members with two provisioned spares and a
  :class:`~repro.control.policies.ScaleOutPolicy` on a control plane:
  sustained per-node operation pressure bootstraps a spare into the ring
  (pending-range writes, fabric range streaming, catch-up cutover -- the
  full membership machinery, not a teleport), and sustained relief
  decommissions it again.

Each arm reports **cost** (node-seconds: ring members integrated over the
run, with a bootstrapping node charged from the moment its transition
starts) and **p99 latency** over the whole run, and their product is the
headline *cost x p99* score.  The acceptance criterion, judged by the
scorecard (``python -m benchmarks.scorecard`` calls :func:`run_bench` and
records it as the ``elasticity`` section of ``SCORECARD.json``): the
adaptive arm's score beats every static arm's.

Every reported quantity is virtual-time or a deterministic count, so the
result is machine-independent; the report re-runs the adaptive arm with the
same seed and records equality as ``deterministic``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from benchmarks._shared import percentile
from repro.cluster.cluster import ClusterConfig, SimulatedCluster
from repro.cluster.consistency import ConsistencyLevel
from repro.cluster.membership import MembershipManager
from repro.cluster.node import NodeConfig
from repro.control.plane import ControlPlane
from repro.control.policies import ScaleOutConfig, ScaleOutPolicy

SEED = 20260808
KEYSPACE = 64
MIN_MEMBERS = 4
MAX_MEMBERS = 6
REPLICATION_FACTOR = 3

#: Phases of the diurnal profile: (duration s, seconds between operations).
#: Load rises through a *ramp* (above the scale-out watermark, still well
#: inside the 4-member ring's capacity) before the peak saturates rings
#: smaller than six members -- so the adaptive arm, like a real diurnal
#: operator, finishes both bootstraps before demand exceeds supply, while
#: the small static rings melt (queueing drives their ops into timeout)
#: and the large one pays for idle nodes through both quiet shoulders.
FULL_PHASES: List[Tuple[float, float]] = [
    (40.0, 0.08),
    (10.0, 0.012),
    (30.0, 0.0057),
    (10.0, 0.012),
    (40.0, 0.08),
]
QUICK_PHASES: List[Tuple[float, float]] = [
    (20.0, 0.08),
    (8.0, 0.012),
    (12.0, 0.0057),
    (8.0, 0.012),
    (20.0, 0.08),
]

#: A deliberately modest node envelope so the peak phase queues a small
#: ring at simulation scale (the paper-scale envelopes would need 100x the
#: operation count to saturate).
NODE = NodeConfig(
    concurrency=2,
    read_service_time=0.02,
    write_service_time=0.02,
    service_time_cv=0.3,
)

#: The high watermark sits between the quiet and ramp per-node rates at
#: every reachable ring size (ramp is ~21/16.7 ops/node at 4/5 members,
#: ~13.9 at 6), so the ramp walks the ring out to six members and the
#: quiet shoulder (~2-3 ops/node) walks it back in.
SCALE_CONFIG = ScaleOutConfig(
    high_ops_per_node=15.0,
    low_ops_per_node=5.0,
    sustain_ticks=2,
    cooldown=2.0,
    min_members_per_dc=MIN_MEMBERS,
)


def _cluster(members: int, spares: int) -> SimulatedCluster:
    return SimulatedCluster(
        ClusterConfig(
            n_nodes=members,
            replication_factor=REPLICATION_FACTOR,
            racks_per_dc=2,
            datacenters=1,
            node=NODE,
            seed=SEED,
            spares_per_dc=spares,
        )
    )


def _drive(cluster: SimulatedCluster, phases: List[Tuple[float, float]], on_loaded=None):
    """Run the diurnal profile; returns (latencies, run_start, run_end).

    Operations are issued on a deterministic timetable (no RNG beyond the
    cluster's own seeded streams): alternating QUORUM writes and reads over
    a fixed keyspace, paced by the current phase's inter-operation gap.
    ``on_loaded`` fires after the seed data has settled -- the adaptive arm
    starts its control plane there, because a ticking periodic process
    during the load settle would keep the event queue alive forever.
    """
    engine = cluster.engine
    for i in range(KEYSPACE):
        cluster.write_sync(f"key{i}", "seed-value", ConsistencyLevel.QUORUM)
    cluster.settle()
    if on_loaded is not None:
        on_loaded()

    latencies: List[float] = []

    def observe(result) -> None:
        # Timed-out operations count at their full (timeout-bounded) latency:
        # a saturated arm must not look fast by shedding its slowest ops.
        if not result.unavailable:
            latencies.append(result.latency)

    cluster.add_operation_observer(observe)

    times: List[float] = []
    run_start = engine.now
    clock = run_start
    for duration, gap in phases:
        phase_end = clock + duration
        while clock < phase_end:
            times.append(clock)
            clock += gap
    state = {"i": 0}

    def issue() -> None:
        i = state["i"]
        key = f"key{i % KEYSPACE}"
        if i % 2 == 0:
            cluster.write(key, f"v{i}", ConsistencyLevel.QUORUM)
        else:
            cluster.read(key, ConsistencyLevel.QUORUM)
        state["i"] += 1
        if state["i"] < len(times):
            engine.schedule(times[state["i"]] - engine.now, issue)

    engine.schedule(times[0] - engine.now, issue)
    run_end = run_start + sum(duration for duration, _ in phases)
    engine.run_until(run_end + 5.0)
    return latencies, run_start, engine.now


def _node_seconds(
    initial_members: int,
    run_start: float,
    run_end: float,
    manager: Optional[MembershipManager],
) -> float:
    """Ring members integrated over the run (piecewise-constant, exact).

    A bootstrapping node is charged from its transition *start* (it is
    provisioned and streaming from that moment); a decommissioned node is
    charged until its cutover completes.
    """
    deltas: List[Tuple[float, int]] = []
    transitions = []
    if manager is not None:
        transitions = list(manager.history) + manager.active_transitions()
    for transition in transitions:
        start = max(transition.started_at, run_start)
        end = transition.completed_at if transition.completed_at is not None else run_end
        if transition.kind == "bootstrap":
            deltas.append((start, +1))
            if transition.state == "aborted":
                deltas.append((min(end, run_end), -1))
        elif transition.state == "done":
            deltas.append((min(end, run_end), -1))
    deltas.sort()
    total = 0.0
    count = initial_members
    cursor = run_start
    for at, delta in deltas:
        at = min(max(at, run_start), run_end)
        total += count * (at - cursor)
        count += delta
        cursor = at
    total += count * (run_end - cursor)
    return total


def run_static_arm(members: int, phases: List[Tuple[float, float]]) -> Dict[str, object]:
    cluster = _cluster(members, 0)
    latencies, run_start, run_end = _drive(cluster, phases)
    cluster.settle()
    node_seconds = _node_seconds(members, run_start, run_end, None)
    p99 = percentile(latencies, 99.0)
    return {
        "arm": f"static-{members}",
        "members": members,
        "operations": len(latencies),
        "node_seconds": round(node_seconds, 3),
        "p99_latency_s": round(p99, 6) if p99 is not None else None,
        "score": round(node_seconds * p99, 4) if p99 is not None else None,
    }


def run_adaptive_arm(phases: List[Tuple[float, float]]) -> Dict[str, object]:
    cluster = _cluster(MIN_MEMBERS, MAX_MEMBERS - MIN_MEMBERS)
    manager = MembershipManager(cluster)
    plane = ControlPlane(cluster, interval=1.0)
    plane.add(ScaleOutPolicy(SCALE_CONFIG))

    def start_control() -> None:
        manager.start()
        plane.start()

    latencies, run_start, run_end = _drive(cluster, phases, on_loaded=start_control)
    plane.stop()
    manager.stop()
    cluster.settle()
    node_seconds = _node_seconds(MIN_MEMBERS, run_start, run_end, manager)
    p99 = percentile(latencies, 99.0)
    decisions = [
        [round(d.time - run_start, 3), d.scope, d.value] for d in plane.decisions
    ]
    transitions = [
        {
            "kind": t.kind,
            "node": str(t.node),
            "state": t.state,
            "started_at": round(t.started_at - run_start, 3),
            "completed_at": (
                round(t.completed_at - run_start, 3) if t.completed_at is not None else None
            ),
            "streamed_cells": t.streamed_cells,
            "streamed_bytes": t.streamed_bytes,
        }
        for t in list(manager.history) + manager.active_transitions()
    ]
    return {
        "arm": "adaptive",
        "members_start": MIN_MEMBERS,
        "members_end": len(cluster.members),
        "operations": len(latencies),
        "node_seconds": round(node_seconds, 3),
        "p99_latency_s": round(p99, 6) if p99 is not None else None,
        "score": round(node_seconds * p99, 4) if p99 is not None else None,
        "decisions": decisions,
        "transitions": transitions,
        "pending_read_violations": manager.pending_read_violations,
    }


def run_bench(quick: bool = False) -> Dict[str, object]:
    phases = QUICK_PHASES if quick else FULL_PHASES
    static_arms = [
        run_static_arm(members, phases)
        for members in range(MIN_MEMBERS, MAX_MEMBERS + 1)
    ]
    adaptive = run_adaptive_arm(phases)
    rerun = run_adaptive_arm(phases)
    best_static = min(arm["score"] for arm in static_arms)
    return {
        "benchmark": "bench_elasticity",
        "quick": quick,
        "seed": SEED,
        "config": {
            "phases": phases,
            "keyspace": KEYSPACE,
            "min_members": MIN_MEMBERS,
            "max_members": MAX_MEMBERS,
            "replication_factor": REPLICATION_FACTOR,
            "scale_out": {
                "high_ops_per_node": SCALE_CONFIG.high_ops_per_node,
                "low_ops_per_node": SCALE_CONFIG.low_ops_per_node,
                "sustain_ticks": SCALE_CONFIG.sustain_ticks,
                "cooldown": SCALE_CONFIG.cooldown,
            },
        },
        "static": static_arms,
        "adaptive": adaptive,
        "best_static_score": best_static,
        "adaptive_beats_all_static": (
            adaptive["score"] is not None and adaptive["score"] < best_static
        ),
        "deterministic": adaptive == rerun,
        "zero_pending_read_violations": adaptive["pending_read_violations"] == 0,
    }
