"""Integration tests: node failures, slowdowns, message drops.

These exercise the recovery machinery (hinted handoff, read repair,
coordinator timeouts) and check that Harmony keeps functioning when the
cluster degrades.
"""

from __future__ import annotations

import pytest

from repro.cluster import coordinator as coordinator_module
from repro.cluster.cluster import ClusterConfig, SimulatedCluster
from repro.cluster.consistency import ConsistencyLevel
from repro.cluster.node import NodeConfig
from repro.control.policies import HarmonyConfig, HarmonyReadPolicy, make_policy
from repro.staleness.auditor import StalenessAuditor
from repro.workload.executor import WorkloadExecutor
from repro.workload.workloads import WORKLOAD_A


@pytest.fixture
def short_timeouts(monkeypatch):
    """0.2 s coordinator timeouts, so give-ups and hints happen quickly."""
    monkeypatch.setattr(coordinator_module, "WRITE_TIMEOUT", 0.2)
    monkeypatch.setattr(coordinator_module, "READ_TIMEOUT", 0.2)


def build_cluster(seed: int = 0, datacenters: int = 1) -> SimulatedCluster:
    return SimulatedCluster(
        ClusterConfig(
            n_nodes=6,
            replication_factor=3,
            datacenters=datacenters,
            seed=seed,
            node=NodeConfig(
                concurrency=6,
                read_service_time=0.0015,
                write_service_time=0.001,
                service_time_cv=0.4,
            ),
        )
    )


@pytest.mark.usefixtures("short_timeouts")
class TestNodeFailure:
    def test_writes_succeed_with_one_replica_down(self):
        cluster = build_cluster(seed=1)
        key = "failover"
        replicas = cluster.replicas_for(key)
        cluster.take_down(replicas[0])
        result = cluster.write_sync(key, "v1", ConsistencyLevel.ONE)
        assert not result.timed_out
        read = cluster.read_sync(key, ConsistencyLevel.QUORUM)
        assert read.cell is not None

    def test_recovered_node_catches_up_through_hints(self):
        cluster = build_cluster(seed=2)
        keys = [f"hinted{i}" for i in range(40)]
        # Take one node down; every key whose replica set includes it will miss
        # its copy until the hints recorded by the coordinators are replayed.
        victim = cluster.addresses[0]
        affected = [key for key in keys if victim in cluster.replicas_for(key)]
        assert affected, "seed choice should give the victim at least one key"
        cluster.take_down(victim)
        for key in keys:
            cluster.write_sync(key, "v1", ConsistencyLevel.ONE)
        # Allow the write timeouts to expire so hints are recorded.
        cluster.engine.run_until(cluster.engine.now + 1.0)
        assert all(cluster.node(victim).peek(key) is None for key in affected)
        cluster.bring_up(victim, replay_hints=True)
        cluster.settle()
        for key in affected:
            assert cluster.node(victim).peek(key) is not None, (
                f"{victim} missing {key} after hint replay"
            )

    def test_quorum_writes_unavailable_when_too_many_replicas_are_down(self):
        # ALL needs every replica; with two of three down the failure
        # detector proves the requirement unmeetable, so the coordinator
        # rejects up front instead of waiting out the timeout.
        cluster = build_cluster(seed=3)
        key = "doomed"
        replicas = cluster.replicas_for(key)
        for node in replicas[:2]:
            cluster.take_down(node)
        result = cluster.write_sync(key, "v1", ConsistencyLevel.ALL)
        assert result.unavailable
        assert not result.timed_out
        # QUORUM (2 of 3) is also unmeetable with one live replica...
        assert cluster.write_sync(key, "v1", ConsistencyLevel.QUORUM).unavailable
        # ...but ONE still succeeds through the surviving replica.
        one = cluster.write_sync(key, "v1", ConsistencyLevel.ONE)
        assert not one.unavailable and not one.timed_out

    def test_workload_completes_with_a_node_down(self):
        cluster = build_cluster(seed=4)
        cluster.take_down(cluster.addresses[0])
        auditor = StalenessAuditor()
        executor = WorkloadExecutor(
            cluster,
            WORKLOAD_A.scaled(record_count=60, operation_count=300),
            make_policy("eventual"),
            threads=4,
            auditor=auditor,
        )
        metrics = executor.run()
        assert metrics.counters.total == 300


@pytest.mark.usefixtures("short_timeouts")
class TestHintReplayAfterRestart:
    """Hinted handoff around a node restart in a single-DC ring.

    The happy path (take node down, write, bring it up, hints converge) was
    covered from the start; these exercise the restart under a live
    workload, last-write-wins across multiple hinted versions, replay
    idempotence, and the no-replay control case.
    """

    def test_restart_mid_workload_converges_through_hints(self):
        from repro.faults.schedule import FaultInjector, FaultSchedule, NodeCrash

        cluster = build_cluster(seed=11)
        victim = cluster.addresses[0]
        schedule = FaultSchedule([NodeCrash(at=0.3, node=victim, duration=1.3)])
        injector = FaultInjector(cluster, schedule)
        executor = WorkloadExecutor(
            cluster,
            WORKLOAD_A.scaled(record_count=60, operation_count=1200),
            make_policy("eventual"),
            threads=4,
            think_time=0.005,
        )
        executor.load()
        injector.arm()
        metrics = executor.run()
        assert metrics.counters.total == 1200
        assert [desc for _t, desc in injector.log][0].startswith(f"node {victim} down")
        cluster.settle()
        # Every key the victim replicates must be present again -- writes it
        # missed while down arrived through hint replay (plus read repair).
        missing = [
            key
            for key in (f"user{i}" for i in range(60))
            if victim in cluster.replicas_for(key) and cluster.node(victim).peek(key) is None
        ]
        assert not missing, f"{victim} still missing {missing} after restart + hints"
        replayed = sum(c.hints.replayed for c in cluster.coordinators.values())
        assert replayed > 0

    def test_replay_preserves_last_write_wins(self):
        cluster = build_cluster(seed=12)
        key = "lww"
        victim = cluster.replicas_for(key)[0]
        cluster.take_down(victim)
        for value in ("v1", "v2", "v3"):
            cluster.write_sync(key, value, ConsistencyLevel.ONE)
        cluster.engine.run_until(cluster.engine.now + 1.0)  # hints recorded
        cluster.bring_up(victim, replay_hints=True)
        cluster.settle()
        assert cluster.node(victim).peek(key).value == "v3"
        assert cluster.is_consistent(key)

    def test_hints_replay_only_once(self):
        cluster = build_cluster(seed=13)
        key = "once"
        victim = cluster.replicas_for(key)[0]
        cluster.take_down(victim)
        cluster.write_sync(key, "v1", ConsistencyLevel.ONE)
        cluster.engine.run_until(cluster.engine.now + 1.0)
        first = cluster.bring_up(victim, replay_hints=True)
        assert first >= 1
        cluster.settle()
        # A second bounce finds nothing left to replay.
        cluster.take_down(victim)
        second = cluster.bring_up(victim, replay_hints=True)
        assert second == 0

    def test_heal_does_not_destroy_hints_for_a_still_down_target(self):
        # A node that crashes during a partition must get its hints after
        # ITS recovery, not have them burned by the partition's heal while
        # it is still down.
        cluster = SimulatedCluster(
            ClusterConfig(
                n_nodes=8,
                datacenters=2,
                racks_per_dc=2,
                seed=15,
                replication_factors={"dc1": 2, "dc2": 2},
            )
        )
        key = "survivor"
        remote = next(
            r for r in cluster.replicas_for(key)
            if cluster.topology.datacenter_of(r) == "dc2"
        )
        cluster.partition_datacenters("dc1", "dc2")
        cluster.take_down(remote)
        cluster.write_sync(key, "v1", ConsistencyLevel.LOCAL_QUORUM, datacenter="dc1")
        cluster.engine.run_until(cluster.engine.now + 2.0)  # hints recorded
        pending_before = sum(
            c.hints.pending_for(remote) for c in cluster.coordinators.values()
        )
        assert pending_before >= 1
        # Heal while the node is still down: its hints must be retained.
        cluster.heal_datacenters("dc1", "dc2", replay_hints=True)
        cluster.settle()
        assert cluster.node(remote).peek(key) is None
        pending_after = sum(
            c.hints.pending_for(remote) for c in cluster.coordinators.values()
        )
        assert pending_after == pending_before
        cluster.bring_up(remote, replay_hints=True)
        cluster.settle()
        assert cluster.node(remote).peek(key) is not None

    def test_recovered_coordinator_drains_its_own_hint_buffer(self):
        # Coordinator Y buffers hints for X, then Y crashes; X restarts
        # first.  Y's recovery must deliver its buffered hints to the
        # already-up X.
        cluster = build_cluster(seed=16)
        key = "crossed"
        replicas = cluster.replicas_for(key)
        x = replicas[0]
        y = next(a for a in cluster.addresses if a not in replicas)
        cluster.take_down(x)
        cluster.write_sync(key, "v1", ConsistencyLevel.ONE, coordinator=y)
        cluster.engine.run_until(cluster.engine.now + 1.0)  # hint recorded at y
        assert cluster.coordinators[y].hints.pending_for(x) >= 1
        cluster.take_down(y)
        # X restarts while Y is down: Y's hints cannot be replayed yet.
        cluster.bring_up(x, replay_hints=True)
        cluster.settle()
        assert cluster.node(x).peek(key) is None
        # Y's own recovery drains its buffer toward the now-up X.
        replayed = cluster.bring_up(y, replay_hints=True)
        assert replayed >= 1
        cluster.settle()
        assert cluster.node(x).peek(key) is not None

    def test_without_replay_the_restarted_node_stays_stale(self):
        cluster = build_cluster(seed=14)
        key = "stale"
        victim = cluster.replicas_for(key)[0]
        cluster.take_down(victim)
        cluster.write_sync(key, "v1", ConsistencyLevel.ONE)
        cluster.engine.run_until(cluster.engine.now + 1.0)
        cluster.bring_up(victim, replay_hints=False)
        cluster.settle()
        assert cluster.node(victim).peek(key) is None
        # The hints are still buffered for a later replay.
        pending = sum(c.hints.pending_for(victim) for c in cluster.coordinators.values())
        assert pending >= 1


@pytest.mark.usefixtures("short_timeouts")
class TestSlowNode:
    def test_slow_replica_increases_strong_read_latency_only(self):
        fast = build_cluster(seed=5)
        slow = build_cluster(seed=5)
        slow_node = slow.replicas_for("victim")[-1]
        slow.node(slow_node).slowdown = 20.0

        fast.write_sync("victim", "v", ConsistencyLevel.ALL)
        slow.write_sync("victim", "v", ConsistencyLevel.ALL)
        fast.settle()
        slow.settle()

        fast_one = fast.read_sync("victim", ConsistencyLevel.ONE)
        slow_one = slow.read_sync("victim", ConsistencyLevel.ONE)
        fast_all = fast.read_sync("victim", ConsistencyLevel.ALL)
        slow_all = slow.read_sync("victim", ConsistencyLevel.ALL)

        # ALL reads must wait for the slow replica; ONE reads usually dodge it.
        assert slow_all.latency > fast_all.latency * 2
        assert slow_one.latency < slow_all.latency


@pytest.mark.usefixtures("short_timeouts")
class TestMessageLoss:
    def test_lossy_network_still_completes_the_workload(self):
        cluster = build_cluster(seed=6, datacenters=2)
        cluster.fabric.set_pair_loss("dc1", "dc2", 0.02)
        executor = WorkloadExecutor(
            cluster,
            WORKLOAD_A.scaled(record_count=50, operation_count=300),
            make_policy("eventual"),
            threads=4,
        )
        metrics = executor.run()
        assert metrics.counters.total == 300
        assert cluster.fabric.stats.dropped > 0

    def test_harmony_still_meets_its_target_under_message_loss(self):
        cluster = build_cluster(seed=7, datacenters=2)
        cluster.fabric.set_pair_loss("dc1", "dc2", 0.01)
        auditor = StalenessAuditor()
        policy = HarmonyReadPolicy(
            HarmonyConfig(tolerated_stale_rate=0.3, monitoring_interval=0.05)
        )
        executor = WorkloadExecutor(
            cluster,
            WORKLOAD_A.scaled(record_count=80, operation_count=600),
            policy,
            threads=8,
            auditor=auditor,
        )
        metrics = executor.run()
        assert metrics.counters.total == 600
        # Allow a modest noise margin on top of the tolerated rate.
        assert metrics.staleness.stale_rate() <= 0.3 + 0.1


class TestGreyFailureInjection:
    """Injector-level coverage for the grey-failure event types
    (:class:`AsymmetricPartition`, :class:`PacketLoss`, :class:`SlowWan`)
    that the chaos generator draws from (see ``docs/chaos.md``)."""

    @staticmethod
    def build_geo_cluster(seed: int = 0) -> SimulatedCluster:
        from repro.experiments.scenarios import ScenarioRegistry

        scenario = ScenarioRegistry.get("grid5000_3sites")
        return SimulatedCluster(scenario.cluster_config(seed=seed))

    def test_asymmetric_partition_applies_and_heals_on_schedule(self):
        from repro.faults.schedule import AsymmetricPartition, FaultInjector, FaultSchedule

        cluster = self.build_geo_cluster(seed=21)
        schedule = FaultSchedule(
            [AsymmetricPartition(at=0.5, datacenters=("rennes", "sophia"), duration=1.0)]
        )
        FaultInjector(cluster, schedule).arm()
        engine = cluster.engine
        engine.run_until(0.75)
        assert cluster.fabric.is_severed("rennes", "sophia")
        assert not cluster.fabric.is_severed("sophia", "rennes")
        engine.run_until(2.0)
        assert not cluster.fabric.is_severed("rennes", "sophia")
        assert not cluster.fabric.has_partitions

    def test_asymmetric_partition_drops_only_the_severed_direction(self):
        from repro.faults.schedule import AsymmetricPartition, FaultInjector, FaultSchedule

        cluster = self.build_geo_cluster(seed=22)
        schedule = FaultSchedule(
            [AsymmetricPartition(at=0.0, datacenters=("rennes", "sophia"), duration=5.0)]
        )
        FaultInjector(cluster, schedule).arm()
        engine = cluster.engine
        engine.run_until(0.1)
        # Writes coordinated on either side replicate cross-DC in the
        # background; only the rennes->sophia direction is severed.
        for i in range(10):
            cluster.write_sync(f"grey{i}", "v", ConsistencyLevel.LOCAL_QUORUM, datacenter="rennes")
            cluster.write_sync(f"yerg{i}", "v", ConsistencyLevel.LOCAL_QUORUM, datacenter="sophia")
        engine.run_until(engine.now + 1.0)
        assert cluster.fabric.stats.blocked_by_pair["rennes->sophia"] > 0
        assert cluster.fabric.stats.blocked_by_pair["sophia->rennes"] == 0

    def test_packet_loss_window_arms_and_disarms(self):
        from repro.faults.schedule import FaultInjector, FaultSchedule, PacketLoss

        cluster = self.build_geo_cluster(seed=23)
        schedule = FaultSchedule(
            [
                PacketLoss(
                    at=0.5,
                    datacenters=("rennes", "nancy"),
                    probability=0.4,
                    duration=1.0,
                )
            ]
        )
        injector = FaultInjector(cluster, schedule)
        injector.arm()
        engine = cluster.engine
        engine.run_until(0.75)
        assert cluster.fabric.pair_loss("rennes", "nancy") == 0.4
        assert cluster.fabric.pair_loss("rennes", "sophia") == 0.0
        engine.run_until(2.0)
        assert cluster.fabric.pair_loss("rennes", "nancy") == 0.0
        assert any("packet loss" in note for _t, note in injector.log)

    def test_packet_loss_drops_cross_dc_traffic(self):
        from repro.faults.schedule import FaultInjector, FaultSchedule, PacketLoss

        cluster = self.build_geo_cluster(seed=24)
        schedule = FaultSchedule(
            [
                PacketLoss(
                    at=0.0,
                    datacenters=("rennes", "sophia"),
                    probability=0.5,
                    duration=30.0,
                )
            ]
        )
        FaultInjector(cluster, schedule).arm()
        engine = cluster.engine
        engine.run_until(0.1)
        # Background replication of rennes-coordinated writes crosses the
        # lossy pair; with p=0.5 over dozens of messages some must drop.
        for i in range(30):
            cluster.write_sync(f"grey{i}", "v", ConsistencyLevel.LOCAL_QUORUM, datacenter="rennes")
        engine.run_until(engine.now + 1.0)
        lost = cluster.fabric.stats.lost_by_pair["rennes|sophia"]
        sent = cluster.fabric.stats.sent
        assert 0 < lost < sent
        assert cluster.fabric.stats.dropped >= lost

    def test_slow_wan_window_scales_and_restores(self):
        from repro.faults.schedule import FaultInjector, FaultSchedule, SlowWan

        cluster = self.build_geo_cluster(seed=25)
        schedule = FaultSchedule(
            [SlowWan(at=0.5, datacenters=("nancy", "sophia"), scale=6.0, duration=1.0)]
        )
        injector = FaultInjector(cluster, schedule)
        injector.arm()
        engine = cluster.engine
        nancy = cluster.addresses_in("nancy")[0]
        sophia = cluster.addresses_in("sophia")[0]
        base = cluster.fabric.expected_one_way_delay(nancy, sophia)
        engine.run_until(0.75)
        assert cluster.fabric.pair_latency_scale("nancy", "sophia") == 6.0
        assert cluster.fabric.expected_one_way_delay(nancy, sophia) == pytest.approx(6.0 * base)
        engine.run_until(2.0)
        assert cluster.fabric.pair_latency_scale("nancy", "sophia") == 1.0
        assert cluster.fabric.expected_one_way_delay(nancy, sophia) == pytest.approx(base)
        assert any("slow wan" in note for _t, note in injector.log)

    def test_oneway_heal_replays_hints_across_the_reopened_direction(self):
        from repro.faults.schedule import AsymmetricPartition, FaultInjector, FaultSchedule

        cluster = self.build_geo_cluster(seed=26)
        key = "grey-hinted"
        schedule = FaultSchedule(
            [AsymmetricPartition(at=0.0, datacenters=("rennes", "sophia"), duration=2.0)]
        )
        FaultInjector(cluster, schedule).arm()
        engine = cluster.engine
        engine.run_until(0.1)
        # A rennes-coordinated EACH_QUORUM write cannot reach sophia: the
        # coordinator times out on those replicas and stores hints.
        result = cluster.write_sync(
            key, "v1", ConsistencyLevel.LOCAL_QUORUM, datacenter="rennes"
        )
        assert not result.unavailable
        engine.run_until(1.5)  # write timeout fires, hints stored
        stored = sum(c.hints.stored for c in cluster.coordinators.values())
        assert stored > 0
        engine.run_until(3.0)  # heal fires, hints replay
        cluster.settle()
        replayed = sum(c.hints.replayed for c in cluster.coordinators.values())
        assert replayed == stored
        assert cluster.is_consistent(key)
