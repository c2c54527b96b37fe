#!/usr/bin/env python
"""Geo-replication walkthrough: three Grid'5000 sites, DC-aware consistency.

This example builds the ``GRID5000_3SITES`` cluster (Rennes, Sophia and
Nancy with per-site replica counts {3, 2, 2} under
``NetworkTopologyStrategy`` and measured-scale WAN latency), then walks
through the geo-replication subsystem layer by layer:

1. **placement** -- where one key's replicas actually live;
2. **DC-aware levels** -- a ``LOCAL_QUORUM`` write acknowledged at LAN
   latency vs an ``EACH_QUORUM`` write that must cross the WAN, and the
   asynchronous convergence of the remote sites;
3. **per-DC adaptive control** -- one workload run with the ``geo-harmony``
   policy (:class:`~repro.control.GeoReadPolicy`), where every site
   independently picks its consistency level against its own tolerated
   stale rate.

Run with::

    python examples/geo_replication.py
"""

from __future__ import annotations

from collections import Counter

from repro import (
    ConsistencyLevel,
    SimulatedCluster,
    StalenessAuditor,
    WORKLOAD_A,
    WorkloadExecutor,
    format_table,
    make_policy,
)
from repro.experiments.scenarios import GRID5000_3SITES


def show_placement(cluster: SimulatedCluster) -> None:
    print("== replica placement (NetworkTopologyStrategy) ==")
    print(f"configured per-site factors: {cluster.replication_factors}")
    for key in ("user1001", "user2002"):
        replicas = cluster.replicas_for(key)
        per_site = Counter(cluster.topology.datacenter_of(r) for r in replicas)
        print(f"  {key}: {dict(per_site)}  ({', '.join(str(r) for r in replicas)})")
    print()


def show_levels(cluster: SimulatedCluster) -> None:
    print("== DC-aware consistency levels ==")
    local = cluster.write_sync(
        "order42", "v1", ConsistencyLevel.LOCAL_QUORUM, datacenter="rennes"
    )
    acked = {cluster.topology.datacenter_of(r) for r in local.responded}
    print(
        f"  LOCAL_QUORUM write from rennes: {local.latency * 1e3:.2f} ms, "
        f"acknowledged by {sorted(acked)} only"
    )
    each = cluster.write_sync(
        "order42", "v2", ConsistencyLevel.EACH_QUORUM, datacenter="rennes"
    )
    acked = {cluster.topology.datacenter_of(r) for r in each.responded}
    print(
        f"  EACH_QUORUM  write from rennes: {each.latency * 1e3:.2f} ms, "
        f"acknowledged by {sorted(acked)} (pays the WAN)"
    )
    # The LOCAL_QUORUM write above left the remote sites behind; background
    # propagation converges them without any client waiting.
    cluster.settle()
    print(f"  after settle(): every replica consistent -> {cluster.is_consistent('order42')}")
    read = cluster.read_sync("order42", ConsistencyLevel.LOCAL_ONE, datacenter="sophia")
    print(
        f"  LOCAL_ONE read from sophia: {read.latency * 1e3:.2f} ms "
        f"(never leaves the site)"
    )
    print()


def run_geo_harmony() -> None:
    print("== per-DC adaptive Harmony (one controller instance per site) ==")
    cluster = SimulatedCluster(GRID5000_3SITES.cluster_config(seed=11))
    auditor = StalenessAuditor()
    policy = make_policy("geo-harmony", GRID5000_3SITES, monitoring_interval=0.05)
    executor = WorkloadExecutor(
        cluster,
        WORKLOAD_A.scaled(record_count=300, operation_count=4000),
        policy,
        threads=12,
        auditor=auditor,
        datacenters=cluster.datacenter_names,
    )
    metrics = executor.run()
    print(f"levels used across sites: {metrics.consistency_level_usage}")
    rows = []
    for dc in cluster.datacenter_names:
        staleness = metrics.staleness_by_dc.get(dc)
        latency = metrics.read_latency_by_dc.get(dc)
        rows.append(
            {
                "site": dc,
                "tolerated": GRID5000_3SITES.harmony_stale_rates_by_dc[dc],
                "measured_stale": round(staleness.stale_rate(), 4) if staleness else 0.0,
                "read_mean_ms": round(latency.mean() * 1e3, 3) if latency else 0.0,
                "read_p99_ms": round(latency.p99() * 1e3, 3) if latency else 0.0,
            }
        )
    print(format_table(rows))
    print()


def main() -> None:
    cluster = SimulatedCluster(GRID5000_3SITES.cluster_config(seed=7))
    show_placement(cluster)
    show_levels(cluster)
    run_geo_harmony()


if __name__ == "__main__":
    main()
