"""Unit and wiring tests for fault schedules and the injector."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import ClusterConfig, SimulatedCluster
from repro.cluster.consistency import ConsistencyLevel
from repro.faults.schedule import (
    DatacenterIsolation,
    DatacenterOutage,
    DatacenterPartition,
    FaultInjector,
    FaultSchedule,
    NodeCrash,
)


def two_dc_cluster(seed: int = 3) -> SimulatedCluster:
    return SimulatedCluster(
        ClusterConfig(
            n_nodes=8,
            datacenters=2,
            racks_per_dc=2,
            seed=seed,
            replication_factors={"dc1": 2, "dc2": 2},
        )
    )


class TestFaultScheduleValidation:
    def test_events_are_sorted_by_time(self):
        a = DatacenterOutage(at=5.0, datacenter="dc1", duration=1.0)
        b = DatacenterOutage(at=1.0, datacenter="dc2", duration=1.0)
        schedule = FaultSchedule([a, b])
        assert [event.at for event in schedule] == [1.0, 5.0]

    def test_horizon_covers_durations(self):
        from repro.network.topology import NodeAddress

        schedule = FaultSchedule(
            [
                DatacenterPartition(at=2.0, datacenters=("dc1", "dc2"), duration=10.0),
                NodeCrash(at=11.5, node=NodeAddress("dc1", "r1", 0)),
            ]
        )
        assert schedule.horizon == pytest.approx(12.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            DatacenterOutage(at=-1.0, datacenter="dc1")

    def test_partition_needs_two_distinct_sites(self):
        with pytest.raises(ValueError):
            DatacenterPartition(at=0.0, datacenters=("dc1", "dc1"), duration=1.0)
        with pytest.raises(ValueError):
            DatacenterPartition(at=0.0, datacenters=("dc1",), duration=1.0)  # type: ignore[arg-type]

    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError):
            DatacenterOutage(at=0.0, datacenter="dc1", duration=0.0)
        with pytest.raises(ValueError):
            DatacenterIsolation(at=0.0, datacenter="dc1", duration=-2.0)
        from repro.network.topology import NodeAddress

        with pytest.raises(ValueError, match="crash duration"):
            NodeCrash(at=0.0, node=NodeAddress("dc1", "r1", 0), duration=0.0)

    def test_non_events_rejected(self):
        with pytest.raises(TypeError):
            FaultSchedule(["not-an-event"])  # type: ignore[list-item]


class TestFaultInjector:
    def test_node_crash_and_restart_fire_at_schedule_times(self):
        cluster = two_dc_cluster()
        victim = cluster.addresses[0]
        schedule = FaultSchedule([NodeCrash(at=1.0, node=victim, duration=1.0)])
        injector = FaultInjector(cluster, schedule)
        injector.arm()
        assert cluster.nodes[victim].is_up
        cluster.engine.run_until(1.5)
        assert not cluster.nodes[victim].is_up
        assert not cluster.failure_detector.is_up(victim)
        cluster.engine.run_until(2.5)
        assert cluster.nodes[victim].is_up
        assert cluster.failure_detector.is_up(victim)
        assert [entry[0] for entry in injector.log] == [1.0, 2.0]

    def test_a_crash_without_duration_keeps_the_node_down(self):
        cluster = two_dc_cluster()
        victim = cluster.addresses[0]
        injector = FaultInjector(cluster, FaultSchedule([NodeCrash(at=1.0, node=victim)]))
        injector.arm()
        cluster.engine.run_until(10.0)
        assert not cluster.nodes[victim].is_up
        assert injector.log == [(1.0, f"node {victim} down")]

    def test_a_restart_without_replay_leaves_its_hints_pending(self):
        cluster = two_dc_cluster()
        victim = cluster.addresses_in("dc1")[0]
        schedule = FaultSchedule(
            [NodeCrash(at=0.0, node=victim, duration=3.0, replay_hints=False)]
        )
        injector = FaultInjector(cluster, schedule)
        injector.arm()
        cluster.engine.run_until(0.5)
        keys = [f"k{i}" for i in range(12) if victim in cluster.replicas_for(f"k{i}")]
        assert keys
        for key in keys:
            cluster.write_sync(key, "v1", ConsistencyLevel.ONE, datacenter="dc1")
        cluster.engine.run_until(2.5)
        pending = sum(c.hints.total_pending() for c in cluster.coordinators.values())
        assert pending > 0
        cluster.engine.run_until(3.5)
        assert cluster.nodes[victim].is_up
        assert injector.log[-1] == (3.0, f"node {victim} up (0 hints replayed)")
        assert sum(c.hints.total_pending() for c in cluster.coordinators.values()) == pending

    def test_injector_is_one_shot(self):
        cluster = two_dc_cluster()
        injector = FaultInjector(cluster, FaultSchedule([]))
        injector.arm()
        with pytest.raises(RuntimeError):
            injector.arm()

    def test_datacenter_outage_takes_whole_site_down_and_recovers(self):
        cluster = two_dc_cluster()
        schedule = FaultSchedule([DatacenterOutage(at=1.0, datacenter="dc2", duration=2.0)])
        FaultInjector(cluster, schedule).arm()
        cluster.engine.run_until(1.5)
        assert all(not cluster.nodes[a].is_up for a in cluster.addresses_in("dc2"))
        assert all(cluster.nodes[a].is_up for a in cluster.addresses_in("dc1"))
        cluster.engine.run_until(3.5)
        assert all(cluster.nodes[a].is_up for a in cluster.addresses_in("dc2"))

    def test_partition_and_heal_apply_fabric_state(self):
        cluster = two_dc_cluster()
        schedule = FaultSchedule(
            [DatacenterPartition(at=1.0, datacenters=("dc1", "dc2"), duration=2.0, mode="park")]
        )
        FaultInjector(cluster, schedule).arm()
        cluster.engine.run_until(1.5)
        assert cluster.fabric.is_partitioned("dc1", "dc2")
        cluster.engine.run_until(3.5)
        assert not cluster.fabric.is_partitioned("dc1", "dc2")

    def test_isolation_partitions_every_other_site(self):
        cluster = SimulatedCluster(
            ClusterConfig(
                n_nodes=9,
                datacenters=3,
                racks_per_dc=1,
                seed=5,
                replication_factors={"dc1": 1, "dc2": 1, "dc3": 1},
            )
        )
        schedule = FaultSchedule(
            [DatacenterIsolation(at=1.0, datacenter="dc2", duration=1.0)]
        )
        FaultInjector(cluster, schedule).arm()
        cluster.engine.run_until(1.5)
        assert cluster.fabric.is_partitioned("dc1", "dc2")
        assert cluster.fabric.is_partitioned("dc2", "dc3")
        assert not cluster.fabric.is_partitioned("dc1", "dc3")
        cluster.engine.run_until(2.5)
        assert not cluster.fabric.has_partitions

    def test_heal_replays_hints_across_the_wan(self):
        cluster = two_dc_cluster()
        keys = [f"k{i}" for i in range(12)]
        schedule = FaultSchedule(
            [
                DatacenterPartition(
                    at=0.0, datacenters=("dc1", "dc2"), duration=4.0, replay_hints=True
                )
            ]
        )
        injector = FaultInjector(cluster, schedule)
        injector.arm()
        cluster.engine.run_until(0.5)
        for key in keys:
            result = cluster.write_sync(key, "v1", ConsistencyLevel.LOCAL_QUORUM, datacenter="dc1")
            assert not result.unavailable
        # Let the write timeouts elapse: the dc2 copies become hints.
        cluster.engine.run_until(3.5)
        assert sum(c.hints.total_pending() for c in cluster.coordinators.values()) > 0
        # Heal fires at t=4; hint replay crosses the WAN and converges dc2.
        cluster.engine.run_until(4.5)
        cluster.settle()
        assert all(cluster.is_consistent(key) for key in keys)
        heal_entries = [desc for _t, desc in injector.log if desc.startswith("heal")]
        assert heal_entries and "hints replayed" in heal_entries[0]
