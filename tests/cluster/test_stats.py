"""Unit tests for cluster/node counters and windowed rates."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.cluster.stats import ClusterStats, NodeCounters
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
    assert stats.last_snapshot() is second


def test_only_the_last_snapshot_is_retained():
    stats = ClusterStats()
    counters = stats.register_node(addr(0))
    alive = []
    for tick in range(100):
        counters.coordinator_reads += 1
        alive.append(weakref.ref(stats.snapshot(time=float(tick))))
    gc.collect()
    retained = [ref() for ref in alive if ref() is not None]
    assert retained == [stats.last_snapshot()]
    assert retained[0].time == 99.0 and retained[0].coordinator_reads == 100


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


def test_as_table_has_one_row_per_node():
    stats = ClusterStats()
    stats.register_node(addr(1)).reads_served = 7
    stats.register_node(addr(0)).writes_applied = 3
    rows = stats.as_table()
    assert len(rows) == 2
    assert rows[0]["node"] == str(addr(0))
    assert rows[1]["reads_served"] == 7


def test_node_counters_as_dict_round_trip():
    counters = NodeCounters(reads_served=1, hints_stored=2)
    data = counters.as_dict()
    assert data["reads_served"] == 1
    assert data["hints_stored"] == 2
    assert set(data) >= {"coordinator_reads", "coordinator_writes", "read_repairs"}
