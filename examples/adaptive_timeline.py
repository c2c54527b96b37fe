#!/usr/bin/env python
"""Watch Harmony adapt in real time as the load changes.

The paper's Fig. 4(a) shows the stale-read estimate reacting to the workload
(thread count steps 90 -> 70 -> 40 -> 15 -> 1).  This example reproduces the
experience at small scale: it runs the same workload in phases with different
client thread counts against one long-lived cluster and prints, per
monitoring tick, the measured rates, the estimate and the consistency level
Harmony selects -- the controller's decision log.

Run with::

    python examples/adaptive_timeline.py
"""

from __future__ import annotations

from repro import (
    ClusterConfig,
    HarmonyConfig,
    SimulatedCluster,
    StalenessAuditor,
    WORKLOAD_A,
    WorkloadExecutor,
    format_table,
)
from repro.control import HarmonyReadPolicy

PHASES = (60, 24, 4)  # client threads per phase, mimicking the paper's step-down
OPS_PER_PHASE = 3000


def main() -> None:
    seed = 5
    decision_rows = []
    phase_rows = []
    for phase_index, threads in enumerate(PHASES):
        cluster = SimulatedCluster(
            ClusterConfig(
                n_nodes=10,
                replication_factor=5,
                datacenters=2,
                racks_per_dc=2,
                seed=seed + phase_index,
            )
        )
        policy = HarmonyReadPolicy(
            HarmonyConfig(tolerated_stale_rate=0.3, monitoring_interval=0.05)
        )
        auditor = StalenessAuditor()
        executor = WorkloadExecutor(
            cluster,
            WORKLOAD_A.scaled(record_count=600, operation_count=OPS_PER_PHASE),
            policy,
            threads=threads,
            auditor=auditor,
        )
        metrics = executor.run()
        for decision in executor.plane.decisions:
            decision_rows.append(
                {
                    "phase_threads": threads,
                    "t_s": round(decision.time, 3),
                    "read_rate": round(decision.sample.read_rate, 1),
                    "write_rate": round(decision.sample.write_rate, 1),
                    "latency_ms": round(decision.sample.network_latency * 1e3, 3),
                    "estimate": round(decision.estimate.probability, 3),
                    "replicas": decision.replicas,
                    "level": decision.value.value,
                }
            )
        phase_rows.append(
            {
                "threads": threads,
                "throughput_ops_s": round(metrics.ops_per_second(), 1),
                "mean_estimate": round(metrics.estimate_series.mean(), 3),
                "stale_rate": round(metrics.staleness.stale_rate(), 4),
                "levels_used": ", ".join(
                    f"{lvl}:{cnt}" for lvl, cnt in sorted(metrics.consistency_level_usage.items())
                ),
            }
        )

    print(format_table(decision_rows[:40], title="Controller decision log (first 40 ticks)"))
    print()
    print(format_table(phase_rows, title="Per-phase summary (ASR = 30%)"))
    print()
    print(
        "As the thread count drops between phases, the measured read/write rates\n"
        "fall, the estimated stale-read probability falls with them, and Harmony\n"
        "steps the read consistency level back down towards ONE -- the behaviour\n"
        "shown in the paper's Fig. 4(a)."
    )


if __name__ == "__main__":
    main()
