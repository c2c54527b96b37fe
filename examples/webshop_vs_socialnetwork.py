#!/usr/bin/env python
"""Web-shop vs. social-network: the motivating scenario of the paper.

Section III of the paper motivates defining consistency requirements through
the *tolerated stale-read rate*: a web shop and a social network can present
exactly the same access pattern (heavy reads and writes during busy periods),
yet a stale read costs the web shop real money (overselling, wrong prices)
while the social network barely notices one.

This example runs the *same* workload against the *same* cluster twice, once
with the web shop's strict tolerance (5% stale reads) and once with the social
network's relaxed tolerance (60%), and shows how Harmony turns the same
traffic into different consistency levels -- and different cost/benefit
points -- purely from the application's declared tolerance.

Run with::

    python examples/webshop_vs_socialnetwork.py
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

APPLICATIONS = {
    # A stale read can make the shop oversell a product: keep it rare.
    "web-shop (ASR=5%)": 0.05,
    # A slightly outdated timeline is invisible to users: relax consistency.
    "social-network (ASR=60%)": 0.60,
}


def run_application(name: str, tolerated_stale_rate: float, *, threads: int = 24, seed: int = 3):
    cluster = SimulatedCluster(
        ClusterConfig(
            n_nodes=10,
            replication_factor=5,
            datacenters=2,
            racks_per_dc=2,
            seed=seed,
        )
    )
    auditor = StalenessAuditor()
    policy = HarmonyReadPolicy(
        HarmonyConfig(tolerated_stale_rate=tolerated_stale_rate, monitoring_interval=0.05)
    )
    executor = WorkloadExecutor(
        cluster,
        WORKLOAD_A.scaled(record_count=800, operation_count=6000),
        policy,
        threads=threads,
        auditor=auditor,
    )
    metrics = executor.run()
    return {
        "application": name,
        "tolerated_stale_rate": tolerated_stale_rate,
        "measured_stale_rate": round(metrics.staleness.stale_rate(), 4),
        "stale_reads": metrics.staleness.stale_reads,
        "read_p99_ms": round(metrics.read_latency.p99() * 1e3, 2),
        "throughput_ops_s": round(metrics.ops_per_second(), 1),
        "levels_used": ", ".join(
            f"{level}:{count}" for level, count in sorted(metrics.consistency_level_usage.items())
        ),
        "mean_estimate": round(metrics.estimate_series.mean(), 3),
    }


def main() -> None:
    rows = [
        run_application(name, asr) for name, asr in APPLICATIONS.items()
    ]
    print(
        format_table(
            rows,
            columns=[
                "application",
                "tolerated_stale_rate",
                "measured_stale_rate",
                "stale_reads",
                "read_p99_ms",
                "throughput_ops_s",
                "levels_used",
            ],
            title="Same traffic, different applications: Harmony adapts to the declared tolerance",
        )
    )
    print()
    for row in rows:
        ok = row["measured_stale_rate"] <= row["tolerated_stale_rate"] + 0.05
        print(
            f"- {row['application']}: measured stale rate {row['measured_stale_rate']:.3f} "
            f"vs tolerance {row['tolerated_stale_rate']:.2f} -> "
            f"{'requirement met' if ok else 'requirement MISSED'}"
        )
    print(
        "\nThe web shop pays for its stricter requirement with higher read latency\n"
        "and lower throughput (more replicas involved per read); the social network\n"
        "keeps eventual-consistency performance because its tolerance covers the\n"
        "estimated stale-read rate most of the time."
    )


if __name__ == "__main__":
    main()
