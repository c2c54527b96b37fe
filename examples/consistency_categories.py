#!/usr/bin/env python
"""Future-work extension: automatic consistency categories by clustering keys.

Section VII of the paper proposes letting the system split the data into
consistency categories automatically, "by applying clustering techniques",
with each category handled at the most appropriate level.  The
:mod:`repro.extensions` package implements that idea, and this example shows
it end to end:

1. a profiling run observes per-key access patterns (hot update-heavy order
   rows, read-mostly catalogue rows, cold archive rows);
2. :class:`ConsistencyCategorizer` clusters the keys and assigns each
   category a tolerated stale-read rate between a strict and a relaxed bound;
3. a :class:`CategorizedHarmonyPolicy` then answers per-key consistency-level
   queries: under the *same* measured cluster conditions, order rows read at
   higher levels than archive rows.

It also demonstrates the second future-work item -- deriving the tolerance
from an application cost model (:func:`recommend_tolerance`).

Run with::

    python examples/consistency_categories.py
"""

from __future__ import annotations

from repro import ClusterConfig, ConsistencyLevel, SimulatedCluster, format_table
from repro.control import ControlPlane, HarmonyConfig
from repro.extensions import (
    ApplicationProfile,
    CategorizedHarmonyPolicy,
    ConsistencyCategorizer,
    KeyAccessTracker,
    naive_tolerance_for,
    recommend_tolerance,
)


def profile_workload(tracker: KeyAccessTracker) -> None:
    """Synthesize the access log of a small e-commerce backend."""
    # Order rows: few keys, constantly read *and* updated (status changes).
    for i in range(20):
        for _ in range(150):
            tracker.observe_raw(f"order:{i}", is_write=True)
        for _ in range(200):
            tracker.observe_raw(f"order:{i}", is_write=False)
    # Catalogue rows: many keys, read-heavy with occasional price updates.
    for i in range(100):
        for _ in range(60):
            tracker.observe_raw(f"catalogue:{i}", is_write=False)
        for _ in range(2):
            tracker.observe_raw(f"catalogue:{i}", is_write=True)
    # Archive rows: written once long ago, rarely read, never updated.
    for i in range(200):
        tracker.observe_raw(f"archive:{i}", is_write=False)


def main() -> None:
    # 1. Profile and cluster the keyspace.
    tracker = KeyAccessTracker()
    profile_workload(tracker)
    categorizer = ConsistencyCategorizer(
        n_categories=3, strict_asr=0.05, relaxed_asr=0.9, seed=4
    )
    categorizer.fit(tracker)
    print(format_table(categorizer.summary(), title="Discovered consistency categories"))
    print()

    # 2. Put a categorized Harmony policy on a control plane, under load.
    cluster = SimulatedCluster(
        ClusterConfig(n_nodes=10, replication_factor=5, datacenters=2, seed=4)
    )
    policy = CategorizedHarmonyPolicy(
        categorizer,
        default_asr=0.4,
        config=HarmonyConfig(tolerated_stale_rate=0.4, monitoring_interval=0.05),
    )
    plane = ControlPlane(cluster)
    plane.add(policy)
    plane.start()
    # Generate traffic so the shared monitor measures realistic rates.
    for i in range(1500):
        cluster.write(f"order:{i % 20}", "v", ConsistencyLevel.ONE)
        cluster.read(f"order:{i % 20}", ConsistencyLevel.ONE)
        cluster.read(f"catalogue:{i % 100}", ConsistencyLevel.ONE)
    cluster.engine.run_until(cluster.engine.now + 0.3)

    rows = []
    for key in ("order:0", "catalogue:5", "archive:17", "brand-new-key"):
        category = categorizer.category_of(key)
        rows.append(
            {
                "key": key,
                "category": category.index if category else "(default)",
                "tolerated_stale_rate": categorizer.tolerated_stale_rate_for(
                    key, default=policy.default_asr
                ),
                "read_level_now": policy.level_for_key(key).value,
            }
        )
    plane.stop()
    print(format_table(rows, title="Per-key consistency decisions under the same cluster state"))
    print()

    # 3. Recommend tolerances from application cost models.
    webshop = ApplicationProfile(
        stale_read_cost=50.0,          # an oversold item is expensive
        latency_value_per_ms=0.02,
        expected_read_rate=3000.0,
        expected_write_rate=3000.0,
        network_latency=0.0001,
    )
    social = ApplicationProfile(
        stale_read_cost=0.001,         # a slightly old timeline is harmless
        latency_value_per_ms=0.5,
        expected_read_rate=3000.0,
        expected_write_rate=3000.0,
        network_latency=0.0001,
    )
    print("Recommended tolerated stale-read rates (cost model):")
    print(f"  web shop       -> {recommend_tolerance(webshop):.2f}")
    print(f"  social network -> {recommend_tolerance(social):.2f}")
    print(f"  paper's naive mapping for an 'average' application -> "
          f"{naive_tolerance_for('average'):.2f}")


if __name__ == "__main__":
    main()
