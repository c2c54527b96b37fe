"""Unit tests for cluster/node counters and windowed rates."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.cluster.stats import ClusterStats
from repro.network.topology import NodeAddress


def addr(i: int) -> NodeAddress:
    return NodeAddress("dc1", "r1", i)


def test_register_node_is_idempotent():
    stats = ClusterStats()
    first = stats.register_node(addr(0))
    second = stats.register_node(addr(0))
    assert first is second
    assert stats.nodes() == [addr(0)]


def test_total_sums_across_nodes():
    stats = ClusterStats()
    stats.register_node(addr(0)).coordinator_reads = 10
    stats.register_node(addr(1)).coordinator_reads = 5
    assert stats.total("coordinator_reads") == 15


def test_snapshot_and_window_rates():
    stats = ClusterStats()
    counters = stats.register_node(addr(0))
    first = stats.snapshot(time=0.0)
    counters.coordinator_reads += 100
    counters.coordinator_writes += 50
    second = stats.snapshot(time=2.0)
    rates = stats.window_rates(first, second)
    assert rates["read_rate"] == pytest.approx(50.0)
    assert rates["write_rate"] == pytest.approx(25.0)
    assert rates["elapsed"] == pytest.approx(2.0)


def test_no_snapshot_is_retained():
    # Snapshots belong to whoever takes them (the monitor keeps the previous
    # one of each window); the stats keep none.
    stats = ClusterStats()
    counters = stats.register_node(addr(0))
    alive = []
    for tick in range(100):
        counters.coordinator_reads += 1
        alive.append(weakref.ref(stats.snapshot(time=float(tick))))
        alive.append(weakref.ref(stats.snapshot_for(float(tick), [addr(0)])))
    gc.collect()
    assert [ref() for ref in alive if ref() is not None] == []
    assert set(vars(stats)) == {"_counters"}


def test_window_rates_with_zero_elapsed_are_zero():
    stats = ClusterStats()
    stats.register_node(addr(0))
    snap = stats.snapshot(time=1.0)
    rates = stats.window_rates(snap, snap)
    assert rates["read_rate"] == 0.0
    assert rates["write_rate"] == 0.0


def test_rates_use_coordinator_counters_not_replica_counters():
    stats = ClusterStats()
    counters = stats.register_node(addr(0))
    first = stats.snapshot(time=0.0)
    # Replica-level counters grow much faster (RF-fold); they must not leak
    # into the client-operation rates.
    counters.reads_served += 500
    counters.writes_applied += 500
    counters.coordinator_reads += 10
    second = stats.snapshot(time=1.0)
    rates = stats.window_rates(first, second)
    assert rates["read_rate"] == pytest.approx(10.0)
    assert rates["write_rate"] == pytest.approx(0.0)


def test_total_for_sums_a_subset_and_skips_unregistered_nodes():
    stats = ClusterStats()
    stats.register_node(addr(0)).reads_served = 7
    stats.register_node(addr(1)).reads_served = 3
    stats.register_node(addr(2)).reads_served = 100
    assert stats.total_for("reads_served", [addr(0), addr(1), addr(9)]) == 10
    assert stats.total("reads_served") == 110


def test_snapshot_for_counts_only_the_subset():
    stats = ClusterStats()
    stats.register_node(addr(0)).coordinator_reads = 4
    stats.register_node(addr(1)).coordinator_writes = 6
    snap = stats.snapshot_for(2.5, [addr(1)])
    assert (snap.time, snap.coordinator_reads, snap.coordinator_writes) == (2.5, 0, 6)
    whole = stats.snapshot(2.5)
    assert (whole.coordinator_reads, whole.coordinator_writes) == (4, 6)
