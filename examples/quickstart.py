#!/usr/bin/env python
"""Quickstart: run Harmony against a simulated Cassandra-like cluster.

This example builds a small quorum-replicated cluster, runs the YCSB-style
workload A (heavy read/update) under three consistency policies -- static
eventual consistency, static strong consistency and Harmony with a 20%
tolerated stale-read rate -- and prints the latency / throughput / staleness
comparison that motivates the paper.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    ClusterConfig,
    SimulatedCluster,
    StalenessAuditor,
    WORKLOAD_A,
    WorkloadExecutor,
    format_table,
    make_policy,
)


def run_policy(policy, *, threads: int = 16, seed: int = 7):
    """Run one policy on a fresh cluster and return its metrics."""
    cluster = SimulatedCluster(
        ClusterConfig(
            n_nodes=8,
            replication_factor=5,
            datacenters=2,
            racks_per_dc=2,
            seed=seed,
        )
    )
    auditor = StalenessAuditor()
    executor = WorkloadExecutor(
        cluster,
        WORKLOAD_A.scaled(record_count=500, operation_count=4000),
        policy,
        threads=threads,
        auditor=auditor,
    )
    return executor.run()


def main() -> None:
    policies = [make_policy("eventual"), make_policy("strong"), make_policy("harmony-20%")]
    rows = []
    for policy in policies:
        metrics = run_policy(policy)
        rows.append(
            {
                "policy": metrics.policy_name,
                "throughput_ops_s": round(metrics.ops_per_second(), 1),
                "read_p99_ms": round(metrics.read_latency.p99() * 1e3, 2),
                "read_mean_ms": round(metrics.read_latency.mean() * 1e3, 2),
                "stale_reads": metrics.staleness.stale_reads,
                "stale_rate": round(metrics.staleness.stale_rate(), 4),
                "levels_used": "/".join(sorted(metrics.consistency_level_usage)),
            }
        )
    print(format_table(rows, title="Workload A, 16 client threads, RF=5"))
    print()
    print(
        "Expected shape: eventual consistency is fastest but reads stale data;\n"
        "strong consistency never reads stale data but is slowest; Harmony-20%\n"
        "stays close to eventual performance while keeping the stale-read rate\n"
        "under its 20% target."
    )


if __name__ == "__main__":
    main()
