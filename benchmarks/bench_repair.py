"""Anti-entropy benchmark: stale rate with Merkle repair on vs off under a
60-second datacenter partition.

The ``GRID5000_3SITES_FAULTS`` scenario cuts Sophia off from the WAN for
60 s (its nodes keep serving their own LOCAL_ONE clients) while client
fleets in all three sites run YCSB workload-B.  Two arms differ in exactly
one knob:

* **repair on**  -- cross-DC Merkle repair every ``repair_interval`` seconds
  (the tentpole subsystem: coarse hash trees per DC pair, differing token
  ranges streamed over the WAN);
* **repair off** -- no anti-entropy at all.

Both arms disable hinted-handoff replay on heal and the global read-repair
round, so post-heal convergence in the "on" arm is attributable to the
repair process alone (the "off" arm converges only through fresh writes).

Reported per arm: the isolated site's stale rate before/during/after the
partition, the post-heal recovery stale rate (measured from one repair
interval after heal to the end of the run), and the per-DC-pair repair WAN
traffic -- the stale-rate-vs-traffic trade-off from the ROADMAP.  The
acceptance criterion: with repair on, the partitioned site's post-heal
stale rate drops back under the site's tolerated stale rate (ASR), and no
LOCAL_* operation anywhere surfaced Unavailable.

:func:`run_bench` is the ``repair`` section of the scorecard
(``python -m benchmarks.scorecard``), which judges the criteria above and
records the result in ``SCORECARD.json``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from benchmarks._shared import percentile
from repro.cluster.antientropy import AntiEntropyConfig
from repro.cluster.cluster import SimulatedCluster
from repro.cluster.consistency import ConsistencyLevel
from repro.control.plane import ControlPlane
from repro.control.policies import RepairControlConfig, RepairSchedulePolicy, make_policy
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import (
    GRID5000_3SITES,
    GRID5000_3SITES_WAN,
    grid5000_3sites_faults,
)
from repro.workload.executor import WorkloadExecutor
from repro.workload.workloads import WORKLOAD_B

ISOLATED = "sophia"
SEED = 20260730

#: Full-size run: the acceptance-criterion configuration (60 s partition).
FULL_CONFIG = {
    "lead_time": 10.0,
    "partition_duration": 60.0,
    "repair_interval": 10.0,
    "record_count": 400,
    "operation_count": 60_000,
    "threads": 12,
    "think_time": 0.02,
}

#: CI smoke sizes: same shape, ~10x shorter timeline.
QUICK_CONFIG = {
    "lead_time": 2.0,
    "partition_duration": 6.0,
    "repair_interval": 2.0,
    "record_count": 200,
    "operation_count": 8_000,
    "threads": 12,
    "think_time": 0.02,
}


def run_arm(cfg: Dict[str, float], *, repair: bool) -> Dict[str, object]:
    """One measured run; returns windowed per-DC staleness + repair traffic."""
    scenario = grid5000_3sites_faults(
        lead_time=cfg["lead_time"],
        partition_duration=cfg["partition_duration"],
        repair_interval=cfg["repair_interval"] if repair else None,
        isolated=ISOLATED,
    )
    workload = WORKLOAD_B.scaled(
        record_count=int(cfg["record_count"]), operation_count=int(cfg["operation_count"])
    )
    result = run_experiment(
        scenario,
        workload,
        "local_one",
        int(cfg["threads"]),
        seed=SEED,
        datacenters=scenario.datacenter_names,
        think_time=cfg["think_time"],
    )
    timeline = result.auditor  # FaultTimeline (fault scenario)
    log = dict((desc.split(" ")[0], t) for t, desc in result.injector.log)
    partition_at = log["isolate"]
    heal_at = log.get("deisolate")
    assert heal_at is not None, "the partition never healed inside the run"
    run_start = min(event.time for event in timeline.op_events)
    run_end = max(event.time for event in timeline.op_events)
    # Post-heal recovery window: give repair one interval to complete a
    # session, then measure to the end of the run.
    recovery_from = heal_at + cfg["repair_interval"]
    windows = {
        "before": (run_start, partition_at),
        "during": (partition_at, heal_at),
        "after_heal": (heal_at, run_end + 1e-9),
        "recovery": (recovery_from, run_end + 1e-9),
    }
    datacenters = scenario.datacenter_names
    staleness: Dict[str, Dict[str, Optional[float]]] = {}
    for name, (start, end) in windows.items():
        staleness[name] = {
            dc: timeline.stale_rate_in(start, end, datacenter=dc) for dc in datacenters
        }
    service = result.anti_entropy
    return {
        "repair": repair,
        "policy": result.config.policy_name,
        "summary": result.summary(),
        "fault_log": [[round(t, 3), desc] for t, desc in result.injector.log],
        "windows_virtual_s": {k: [round(a, 3), round(b, 3)] for k, (a, b) in windows.items()},
        "stale_rate_by_window": {
            name: {dc: (round(rate, 4) if rate is not None else None) for dc, rate in row.items()}
            for name, row in staleness.items()
        },
        "unavailable_total": result.metrics.counters.unavailable,
        "repair_traffic_bytes_by_pair": service.traffic_by_pair() if service else {},
        "repair_sessions": (
            {f"{a}|{b}": s.as_dict() for (a, b), s in service.stats.items()} if service else {}
        ),
    }


def run_steady_state_arm(
    *, incremental: bool, record_count: int, sessions: int, interval: float = 5.0
) -> Dict[str, object]:
    """Measure per-session repair bytes on a healthy, quiescent 3-site ring.

    The cluster is loaded and fully converged before repair starts, so the
    sessions being measured are pure *steady state*: nothing changed since
    the previous session.  Full-keyspace mode still re-hashes and ships the
    whole leaf vector every time; incremental mode pays the request plus an
    empty leaf set.  The first interval (the convergence / full-exchange
    session) is excluded from the per-session figure.  Every number here is
    a deterministic byte count -- machine-independent, which is what lets
    the committed scorecard pin it.
    """
    cluster = SimulatedCluster(GRID5000_3SITES.cluster_config(seed=SEED))
    workload = WORKLOAD_B.scaled(record_count=record_count, operation_count=0)
    executor = WorkloadExecutor(
        cluster, workload, make_policy("local_quorum"), threads=1,
        datacenters=cluster.datacenter_names,
    )
    executor.load()  # every replica holds every record before repair starts
    service = cluster.start_anti_entropy(
        AntiEntropyConfig(interval=interval, incremental=incremental)
    )
    engine = cluster.engine
    # Let the first (full / convergence) session complete, snapshot, then
    # measure the following ``sessions`` windows.
    engine.run_until(engine.now + 1.5 * interval)
    bytes_before = sum(s.bytes_sent for s in service.stats.values())
    sessions_before = sum(s.sessions_completed for s in service.stats.values())
    leaves_before = sum(s.leaves_exchanged for s in service.stats.values())
    streamed_before = sum(s.cells_streamed for s in service.stats.values())
    engine.run_until(engine.now + sessions * interval)
    service.stop()
    cluster.settle()
    # Every figure is a delta over the measured window, so the excluded
    # convergence sessions' work never pollutes the steady-state numbers.
    bytes_total = sum(s.bytes_sent for s in service.stats.values()) - bytes_before
    completed = sum(s.sessions_completed for s in service.stats.values()) - sessions_before
    leaves = sum(s.leaves_exchanged for s in service.stats.values()) - leaves_before
    streamed = sum(s.cells_streamed for s in service.stats.values()) - streamed_before
    report: Dict[str, object] = {
        "incremental": incremental,
        "sessions": completed,
        "bytes_total": bytes_total,
        "bytes_per_session": round(bytes_total / completed, 1) if completed else None,
        "leaves_exchanged": leaves,
        "cells_streamed": streamed,
    }
    if incremental:
        report["keys_rehashed_by_dc"] = {
            dc: stats["keys_rehashed"] for dc, stats in sorted(service.cache_stats.items())
        }
    return report


def run_steady_state(quick: bool) -> Dict[str, object]:
    record_count = 100 if quick else 400
    sessions = 4 if quick else 10
    incremental = run_steady_state_arm(
        incremental=True, record_count=record_count, sessions=sessions
    )
    full = run_steady_state_arm(
        incremental=False, record_count=record_count, sessions=sessions
    )
    ratio = None
    if incremental["bytes_per_session"] and full["bytes_per_session"]:
        ratio = round(full["bytes_per_session"] / incremental["bytes_per_session"], 2)
    return {
        "scenario": GRID5000_3SITES.name,
        "record_count": record_count,
        "sessions_measured": sessions,
        "incremental": incremental,
        "full_keyspace": full,
        "full_vs_incremental_bytes_ratio": ratio,
    }


#: Bandwidth-contention arm sizes: enough diverged bytes that repair keeps
#: the 4 MB/s WAN busy for several seconds after the heal.  ``fg_keys`` are
#: written everywhere before the partition, so the foreground QUORUM probes
#: never trigger read repair -- convergence of the diverged keys is
#: attributable to anti-entropy alone.
BANDWIDTH_FULL = {"keys": 400, "value_bytes": 16_000, "fg_keys": 24,
                  "fg_value_bytes": 8_000, "repair_interval": 2.0,
                  "read_gap": 0.05, "max_window": 120.0}
BANDWIDTH_QUICK = {"keys": 150, "value_bytes": 16_000, "fg_keys": 16,
                   "fg_value_bytes": 8_000, "repair_interval": 1.0,
                   "read_gap": 0.05, "max_window": 60.0}

#: The throttled arm's repair budget: a quarter of the link, leaving 3 MB/s
#: of residual bandwidth for foreground traffic.
WAN_BUDGET_BYTES_PER_S = 1_000_000.0


def run_bandwidth_arm(
    cfg: Dict[str, float], *, bandwidth: bool, wan_budget: Optional[float] = None
) -> Dict[str, object]:
    """Post-partition recovery under the bandwidth model (or without it).

    One DC pair diverges behind a drop partition, heals without hints, and
    anti-entropy streams the diverged cells back across the WAN.  While that
    recovery runs, a foreground client in the stale site issues QUORUM reads
    whose cross-DC responses share the same link -- the read p99 is the
    contention signal.  ``wan_budget`` additionally installs the repair
    policy's physical throttle (fair-share group cap + backlog pacing).
    """
    cluster_config = GRID5000_3SITES_WAN.cluster_config(seed=SEED)
    if not bandwidth:
        cluster_config = dataclasses.replace(cluster_config, bandwidth=None)
    cluster = SimulatedCluster(cluster_config)
    engine = cluster.engine
    dc_fresh, dc_stale = "nancy", "rennes"
    keys = [f"bw-key{i}" for i in range(int(cfg["keys"]))]
    fg_keys = [f"fg-key{i}" for i in range(int(cfg["fg_keys"]))]
    value = "x" * int(cfg["value_bytes"])
    fg_value = "f" * int(cfg["fg_value_bytes"])
    for key in keys:
        result = cluster.write_sync(
            key, "seed", ConsistencyLevel.EACH_QUORUM, datacenter=dc_fresh
        )
        assert not result.unavailable
    # The foreground working set replicates everywhere *before* the
    # partition: QUORUM probes of these keys stay read-repair-free, so the
    # diverged keys converge through anti-entropy alone.
    for key in fg_keys:
        result = cluster.write_sync(
            key,
            fg_value,
            ConsistencyLevel.EACH_QUORUM,
            datacenter=dc_stale,
            size_bytes=int(cfg["fg_value_bytes"]),
        )
        assert not result.unavailable
    cluster.settle()

    cluster.partition_datacenters(dc_fresh, dc_stale, mode="drop")
    for key in keys:
        result = cluster.write_sync(
            key,
            value,
            ConsistencyLevel.LOCAL_QUORUM,
            datacenter=dc_fresh,
            size_bytes=int(cfg["value_bytes"]),
        )
        assert not result.unavailable
    engine.run_until(engine.now + 2.0)
    cluster.heal_datacenters(dc_fresh, dc_stale, replay_hints=False)
    heal_at = engine.now

    service = cluster.start_anti_entropy(
        AntiEntropyConfig(interval=cfg["repair_interval"])
    )
    plane = None
    if wan_budget is not None:
        plane = ControlPlane(cluster, interval=1.0)
        plane.add(
            RepairSchedulePolicy(
                service,
                RepairControlConfig(
                    min_interval=cfg["repair_interval"],
                    max_interval=8.0,
                    wan_budget_bytes_per_s=wan_budget,
                    backlog_pace_s=0.5,
                ),
            )
        )
        plane.start()

    latencies: List[float] = []
    timeouts = 0
    recovery_s: Optional[float] = None
    index = 0
    while engine.now - heal_at < cfg["max_window"]:
        key = fg_keys[index % len(fg_keys)]
        index += 1
        result = cluster.read_sync(key, ConsistencyLevel.QUORUM, datacenter=dc_stale)
        latencies.append(result.completed_at - result.started_at)
        if result.timed_out:
            timeouts += 1
        engine.run_until(engine.now + cfg["read_gap"])
        if index % 5 == 0 and all(cluster.is_consistent(k) for k in keys):
            recovery_s = engine.now - heal_at
            break
    if plane is not None:
        plane.stop()
    service.stop()

    stats = service.stats.get((dc_fresh, dc_stale)) or service.stats.get(
        (dc_stale, dc_fresh)
    )
    fabric = cluster.fabric
    return {
        "bandwidth_model": bandwidth,
        "wan_budget_bytes_per_s": wan_budget,
        "diverged_bytes": int(cfg["keys"]) * int(cfg["value_bytes"]),
        "recovery_s": round(recovery_s, 3) if recovery_s is not None else None,
        "foreground_reads": len(latencies),
        "read_p50_ms": round(percentile(latencies, 50) * 1e3, 3) if latencies else None,
        "read_p99_ms": round(percentile(latencies, 99) * 1e3, 3) if latencies else None,
        "read_timeouts": timeouts,
        "stream_deferrals": stats.stream_deferrals if stats else 0,
        "transfers_started": fabric.stats.transfers_started,
        "transfers_completed": fabric.stats.transfers_completed,
        "transfer_bytes_completed": fabric.stats.transfer_bytes_completed,
    }


def run_bandwidth_contention(quick: bool) -> Dict[str, object]:
    cfg = BANDWIDTH_QUICK if quick else BANDWIDTH_FULL
    off = run_bandwidth_arm(cfg, bandwidth=False)
    on = run_bandwidth_arm(cfg, bandwidth=True)
    throttled = run_bandwidth_arm(cfg, bandwidth=True, wan_budget=WAN_BUDGET_BYTES_PER_S)
    p99_off, p99_on, p99_throttled = (
        arm["read_p99_ms"] for arm in (off, on, throttled)
    )
    claims = {
        # The bandwidth model makes repair traffic visible to foreground
        # reads: contention inflates p99 relative to the constant-delay arm.
        "bandwidth_inflates_foreground_p99": (
            p99_off is not None and p99_on is not None and p99_on > p99_off
        ),
        # The physical throttle bounds that inflation...
        "throttle_bounds_p99_inflation": (
            p99_on is not None and p99_throttled is not None and p99_throttled < p99_on
        ),
        # ...while recovery still completes inside the measurement window.
        "recovery_completes_in_every_arm": all(
            arm["recovery_s"] is not None for arm in (off, on, throttled)
        ),
        "throttle_engages_backpressure": throttled["stream_deferrals"] > 0,
    }
    return {
        "scenario": GRID5000_3SITES_WAN.name,
        "link_capacity_bytes_per_s": GRID5000_3SITES_WAN.bandwidth.capacity_bytes_per_s,
        "config": dict(cfg),
        "bandwidth_off": off,
        "bandwidth_on": on,
        "bandwidth_throttled": throttled,
        "claims": claims,
    }


def run_bench(quick: bool = False) -> Dict[str, object]:
    cfg = QUICK_CONFIG if quick else FULL_CONFIG
    arm_on = run_arm(cfg, repair=True)
    arm_off = run_arm(cfg, repair=False)
    steady_state = run_steady_state(quick)
    bandwidth = run_bandwidth_contention(quick)
    asr = grid5000_3sites_faults().harmony_stale_rates_by_dc[ISOLATED]
    recovery_on = arm_on["stale_rate_by_window"]["recovery"][ISOLATED]
    recovery_off = arm_off["stale_rate_by_window"]["recovery"][ISOLATED]
    during_on = arm_on["stale_rate_by_window"]["during"][ISOLATED]
    report = {
        "benchmark": "bench_repair",
        "scenario": "grid5000_3sites_faults",
        "isolated_datacenter": ISOLATED,
        "quick": quick,
        "seed": SEED,
        "config": dict(cfg),
        "tolerated_stale_rate": asr,
        "repair_on": arm_on,
        "repair_off": arm_off,
        "steady_state": steady_state,
        "bandwidth_contention": bandwidth,
        "comparison": {
            "stale_rate_during_partition": during_on,
            "post_heal_recovery_stale_rate_repair_on": recovery_on,
            "post_heal_recovery_stale_rate_repair_off": recovery_off,
            "recovery_under_asr_with_repair": (
                recovery_on is not None and recovery_on <= asr
            ),
            "repair_beats_no_repair": (
                recovery_on is not None
                and recovery_off is not None
                and recovery_on < recovery_off
            ),
        },
    }
    return report
