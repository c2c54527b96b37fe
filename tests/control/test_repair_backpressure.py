"""Physical repair backpressure: the WAN budget as a bandwidth-model throttle.

``RepairControlConfig.wan_budget_bytes_per_s`` used to be purely advisory
(a rate estimate the policy compares against before tightening).  With the
fabric's bandwidth model enabled it becomes physical: the policy installs a
fair-share group cap on the ``repair`` transfer group and arms the
anti-entropy service's backlog pacing, so repair streams genuinely cannot
exceed the budget and defer themselves while the link is backed up.
"""

from __future__ import annotations

import pytest

from repro.cluster import antientropy as antientropy_module
from repro.cluster.antientropy import AntiEntropyConfig
from repro.cluster.cluster import ClusterConfig, SimulatedCluster
from repro.cluster.consistency import ConsistencyLevel
from repro.control.plane import ControlPlane
from repro.control.policies import RepairControlConfig, RepairSchedulePolicy
from repro.network import fabric as fabric_module
from repro.network.transfers import BandwidthConfig

PAIR = ("dc1", "dc2")


@pytest.fixture(autouse=True)
def small_transfers_shallow_trees(monkeypatch):
    """Payloads from 64 B up become transfers; 32-leaf Merkle trees."""
    monkeypatch.setattr(fabric_module, "TRANSFER_THRESHOLD_BYTES", 64)
    monkeypatch.setattr(antientropy_module, "TREE_DEPTH", 5)


def wan_cluster(seed: int = 3, *, capacity: float = 20_000.0) -> SimulatedCluster:
    return SimulatedCluster(
        ClusterConfig(
            n_nodes=8,
            datacenters=2,
            racks_per_dc=2,
            seed=seed,
            replication_factors={"dc1": 2, "dc2": 2},
            bandwidth=BandwidthConfig(capacity_bytes_per_s=capacity),
        )
    )


def throttled_policy(cluster, *, budget: float, pace: float = 0.5, interval: float = 1.0):
    service = cluster.start_anti_entropy(AntiEntropyConfig(interval=interval))
    plane = ControlPlane(cluster, interval=interval)
    policy = plane.add(
        RepairSchedulePolicy(
            service,
            RepairControlConfig(
                min_interval=interval,
                max_interval=8.0,
                wan_budget_bytes_per_s=budget,
                backlog_pace_s=pace,
            ),
        )
    )
    plane.start()
    return service, plane, policy


def diverge_pair(cluster, keys, value):
    cluster.partition_datacenters("dc1", "dc2", mode="drop")
    for key in keys:
        result = cluster.write_sync(
            key, value, ConsistencyLevel.LOCAL_QUORUM, datacenter="dc1"
        )
        assert not result.unavailable
    cluster.engine.run_until(cluster.engine.now + 2.0)
    cluster.heal_datacenters("dc1", "dc2", replay_hints=False)


class TestBind:
    def test_budget_installs_group_cap_and_backlog_limit(self):
        cluster = wan_cluster()
        service, plane, _ = throttled_policy(cluster, budget=4000.0, pace=0.5)
        assert cluster.fabric.transfer_group_cap("repair") == 4000.0
        assert service.stream_backlog_limit == pytest.approx(2000.0)
        plane.stop()

    def test_without_bandwidth_model_the_budget_stays_advisory(self):
        cluster = SimulatedCluster(
            ClusterConfig(
                n_nodes=8,
                datacenters=2,
                racks_per_dc=2,
                seed=3,
                replication_factors={"dc1": 2, "dc2": 2},
            )
        )
        service, plane, _ = throttled_policy(cluster, budget=4000.0)
        assert not cluster.fabric.bandwidth_enabled
        assert service.stream_backlog_limit is None
        with pytest.raises(ValueError, match="bandwidth"):
            cluster.fabric.set_transfer_group_cap("repair", 1.0)
        plane.stop()

    def test_no_budget_means_no_throttle(self):
        cluster = wan_cluster()
        service = cluster.start_anti_entropy(AntiEntropyConfig(interval=1.0))
        plane = ControlPlane(cluster, interval=1.0)
        plane.add(
            RepairSchedulePolicy(
                service, RepairControlConfig(min_interval=1.0, max_interval=8.0)
            )
        )
        plane.start()
        assert cluster.fabric.transfer_group_cap("repair") is None
        assert service.stream_backlog_limit is None
        plane.stop()


class TestBackpressure:
    def test_streams_defer_under_a_tight_budget_and_still_converge(self):
        cluster = wan_cluster(capacity=8_000.0)
        keys = [f"k{i}" for i in range(24)]
        for key in keys:
            cluster.write_sync(key, "v0" * 100, ConsistencyLevel.EACH_QUORUM, datacenter="dc1")
        cluster.settle()
        diverge_pair(cluster, keys, "x" * 300)
        assert any(not cluster.is_consistent(key) for key in keys)

        service, plane, _ = throttled_policy(cluster, budget=2_000.0, pace=0.5)
        start = cluster.engine.now
        cluster.engine.run_until(start + 40.0)
        plane.stop()
        service.stop()
        cluster.settle()

        stats = service.stats[PAIR]
        assert stats.stream_deferrals > 0
        assert cluster.fabric.stats.transfers_started > 0
        assert all(cluster.is_consistent(key) for key in keys)

    def test_group_cap_bounds_the_aggregate_repair_rate(self):
        budget = 2_000.0
        cluster = wan_cluster(capacity=8_000.0)
        keys = [f"k{i}" for i in range(24)]
        for key in keys:
            cluster.write_sync(key, "v0" * 100, ConsistencyLevel.EACH_QUORUM, datacenter="dc1")
        cluster.settle()
        diverge_pair(cluster, keys, "x" * 300)

        service, plane, _ = throttled_policy(cluster, budget=budget, pace=0.5)
        start = cluster.engine.now
        bytes_before = cluster.fabric.stats.transfer_bytes_completed
        cluster.engine.run_until(start + 40.0)
        elapsed = cluster.engine.now - start
        moved = cluster.fabric.stats.transfer_bytes_completed - bytes_before
        plane.stop()
        service.stop()
        # Everything on the repair group (tree exchanges + streams) shares
        # the cap, so the aggregate transfer rate cannot exceed the budget.
        assert moved > 0
        assert moved <= budget * elapsed * 1.01

    def test_same_seed_runs_are_identical_under_throttle(self):
        def run():
            cluster = wan_cluster(seed=9, capacity=8_000.0)
            keys = [f"k{i}" for i in range(12)]
            for key in keys:
                cluster.write_sync(key, "v0" * 60, ConsistencyLevel.EACH_QUORUM, datacenter="dc1")
            cluster.settle()
            diverge_pair(cluster, keys, "y" * 200)
            service, plane, _ = throttled_policy(cluster, budget=1_500.0, pace=0.5)
            start = cluster.engine.now
            cluster.engine.run_until(start + 25.0)
            plane.stop()
            service.stop()
            stats = service.stats[PAIR]
            return (
                stats.stream_deferrals,
                stats.cells_streamed,
                cluster.fabric.stats.transfers_started,
                cluster.fabric.stats.transfer_bytes_completed,
                cluster.engine.now,
            )

        assert run() == run()
