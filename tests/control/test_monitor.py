"""Unit tests for the cluster monitoring module."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.cluster.cluster import ClusterConfig, SimulatedCluster
from repro.cluster.consistency import ConsistencyLevel
from repro.control import monitor as monitor_module
from repro.control.monitor import ClusterMonitor
from repro.network.latency import ConstantLatency


def make_cluster(intra=0.0005, inter=0.001, n_nodes=6) -> SimulatedCluster:
    return SimulatedCluster(
        ClusterConfig(
            n_nodes=n_nodes,
            replication_factor=3,
            seed=13,
            intra_rack_latency=ConstantLatency(intra),
            inter_rack_latency=ConstantLatency(inter),
        )
    )


def test_prime_then_sample_measures_window_rates(monkeypatch):
    monkeypatch.setattr(monitor_module, "RATE_SMOOTHING", 1.0)
    cluster = make_cluster()
    monitor = ClusterMonitor(cluster)
    monitor.prime()
    for i in range(20):
        cluster.write_sync(f"k{i}", "v", ConsistencyLevel.ONE)
    for i in range(10):
        cluster.read_sync(f"k{i}", ConsistencyLevel.ONE)
    sample = monitor.sample()
    elapsed = sample.window
    assert elapsed > 0
    assert sample.raw_write_rate == pytest.approx(20 / elapsed)
    assert sample.raw_read_rate == pytest.approx(10 / elapsed)
    assert sample.read_rate == sample.raw_read_rate  # smoothing factor of 1.0


def test_sample_without_prime_self_primes():
    cluster = make_cluster()
    monitor = ClusterMonitor(cluster)
    sample = monitor.sample()
    assert sample.read_rate == 0.0
    assert sample.write_rate == 0.0


def test_network_latency_reflects_topology():
    low = ClusterMonitor(make_cluster(intra=0.0002, inter=0.0002))
    high = ClusterMonitor(make_cluster(intra=0.002, inter=0.002))
    assert high.measure_network_latency() > low.measure_network_latency()
    # With constant models the one-way estimate equals the configured value.
    assert low.measure_network_latency() == pytest.approx(0.0002, rel=1e-6)


def test_latency_scale_is_visible_to_the_monitor():
    cluster = make_cluster(intra=0.0005, inter=0.0005)
    monitor = ClusterMonitor(cluster)
    baseline = monitor.measure_network_latency()
    cluster.fabric.latency_scale = 4.0
    assert monitor.measure_network_latency() == pytest.approx(4 * baseline, rel=1e-6)


def test_propagation_time_includes_write_size_and_overhead(monkeypatch):
    monkeypatch.setattr(monitor_module, "AVG_WRITE_SIZE", 125_000)  # 1 ms at 1 Gbit/s
    monkeypatch.setattr(monitor_module, "PROPAGATION_OVERHEAD", 0.0005)
    cluster = make_cluster(intra=0.001, inter=0.001)
    monitor = ClusterMonitor(cluster)
    monitor.prime()
    sample = monitor.sample()
    assert sample.propagation_time == pytest.approx(
        sample.network_latency + 0.001 + 0.0005, rel=1e-6
    )


def test_smoothing_damps_rate_changes(monkeypatch):
    monkeypatch.setattr(monitor_module, "RATE_SMOOTHING", 0.5)
    cluster = make_cluster()
    monitor = ClusterMonitor(cluster)
    monitor.prime()
    for i in range(40):
        cluster.write_sync(f"k{i}", "v", ConsistencyLevel.ONE)
    busy = monitor.sample()
    # Quiet window: no operations, only time passing.
    cluster.engine.run_until(cluster.engine.now + 1.0)
    quiet = monitor.sample()
    assert quiet.raw_write_rate == pytest.approx(0.0)
    assert quiet.write_rate == pytest.approx(0.5 * busy.write_rate, rel=1e-6)


def test_single_node_cluster_has_zero_latency():
    cluster = SimulatedCluster(ClusterConfig(n_nodes=1, replication_factor=1, seed=1))
    monitor = ClusterMonitor(cluster)
    assert monitor.measure_network_latency() == 0.0


def test_the_monitor_keeps_no_sample_history():
    # What a sample led to lives in the plane's decision log; the monitor
    # keeps only the window and smoothing state its next sample needs.
    cluster = make_cluster()
    monitor = ClusterMonitor(cluster)
    taken = [weakref.ref(monitor.sample()) for _ in range(3)]
    taken += [weakref.ref(s) for s in monitor.sample_per_datacenter().values()]
    gc.collect()
    assert [ref() for ref in taken if ref() is not None] == []
    assert set(vars(monitor)) == {
        "cluster",
        "_previous",
        "_previous_by_dc",
        "_previous_global_by_dc",
        "_smoothed",
        "_ping_rng",
    }


def test_monitoring_does_not_touch_the_data_path():
    cluster = make_cluster()
    monitor = ClusterMonitor(cluster)
    before = cluster.stats.total("coordinator_reads")
    sent_before = cluster.fabric.stats.sent
    monitor.sample()
    monitor.measure_network_latency()
    assert cluster.stats.total("coordinator_reads") == before
    assert cluster.fabric.stats.sent == sent_before
