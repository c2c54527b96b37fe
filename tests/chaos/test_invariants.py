"""Invariant-suite tests: each invariant must fire on a fabricated breach
and stay silent on healthy runs.

A vacuously-green checker is worse than none -- every test here either
breaks one specific invariant and asserts exactly it fires, or runs the
full healthy pipeline and asserts silence.
"""

from __future__ import annotations

from repro.chaos import ChaosConfig, InvariantChecker, ScheduleGenerator, run_chaos
from repro.chaos import replay as replay_module
from repro.cluster.cluster import SimulatedCluster
from repro.cluster.consistency import ConsistencyLevel
from repro.experiments.scenarios import ScenarioRegistry
from repro.faults.schedule import DatacenterPartition, FaultSchedule
from repro.faults.timeline import FaultTimeline
from repro.network.fabric import MessageKind


def build_checked_cluster(seed: int = 0):
    """Small geo cluster with an attached timeline and a few audited writes."""
    scenario = ScenarioRegistry.get("grid5000_3sites")
    cluster = SimulatedCluster(scenario.cluster_config(seed=seed))
    timeline = FaultTimeline()
    timeline.attach(cluster)
    for i in range(5):
        result = cluster.write_sync(f"user{i}", f"v{i}", ConsistencyLevel.QUORUM)
        assert not result.unavailable
        timeline.observe_write(result)  # the executor's auditor hook
    cluster.settle()
    return cluster, timeline


class TestHealthyRuns:
    def test_generated_run_passes_all_invariants(self):
        generator = ScheduleGenerator(ScenarioRegistry.get("grid5000_3sites"))
        report = run_chaos(generator.generate(3, budget=6), ChaosConfig(seed=3))
        assert not report.failed(), [str(v) for v in report.violations]
        assert report.hints["stored"] == (
            report.hints["replayed"] + report.hints["discarded"]
        )
        assert report.hints["pending"] == 0

    def test_direct_check_on_a_healthy_cluster_is_silent(self):
        cluster, timeline = build_checked_cluster()
        checker = InvariantChecker()
        violations = checker.check(
            cluster=cluster, timeline=timeline, heal_time=0.0, end_time=cluster.engine.now
        )
        assert violations == []


class TestUnhealedState:
    def test_never_healing_partition_is_reported(self):
        schedule = FaultSchedule(
            [DatacenterPartition(at=1.0, datacenters=("rennes", "sophia"), duration=None)]
        )
        report = run_chaos(schedule, ChaosConfig(seed=0))
        assert report.violated_invariants() == ("unhealed_state",)
        # The force-heal lets the rest of the suite still verify recovery:
        # hints conserved and fully drained even for the pathological case.
        assert report.hints["pending"] == 0


class TestLostAckedWrites:
    def test_vanished_acked_version_is_reported(self):
        cluster, timeline = build_checked_cluster()
        # Fabricate an acknowledged write newer than anything replicated:
        # exactly what a durability bug would leave behind.
        timeline._history["user0"].record(cluster.engine.now, (10_000.0, 999))
        checker = InvariantChecker()
        violations = checker.check(
            cluster=cluster, timeline=timeline, heal_time=0.0, end_time=cluster.engine.now
        )
        assert {v.invariant for v in violations} == {"no_lost_acked_writes"}
        assert any("user0" in v.detail for v in violations)


class TestHintAccounting:
    def test_conservation_breach_is_reported(self):
        cluster, timeline = build_checked_cluster()
        store = cluster.coordinator(cluster.addresses[0]).hints
        store.replayed += 1  # double-replay accounting bug
        checker = InvariantChecker()
        violations = checker.check(
            cluster=cluster, timeline=timeline, heal_time=0.0, end_time=cluster.engine.now
        )
        assert {v.invariant for v in violations} == {"hint_conservation"}

    def test_stranded_pending_hints_are_reported(self):
        cluster, timeline = build_checked_cluster()
        # Hints for a downed replica with no later replay: stranded forever.
        victim = cluster.replicas_for("user0")[0]
        cluster.take_down(victim)
        cluster.write_sync("user0", "vX", ConsistencyLevel.QUORUM)
        cluster.engine.run_until(cluster.engine.now + 1.0)  # write timeout -> hints
        cluster.bring_up(victim, replay_hints=False)
        checker = InvariantChecker()
        violations = checker.check(
            cluster=cluster, timeline=timeline, heal_time=0.0, end_time=cluster.engine.now
        )
        assert "hints_drained" in {v.invariant for v in violations}


class TestFabricConservation:
    def check(self, cluster, timeline):
        return InvariantChecker().check(
            cluster=cluster, timeline=timeline, heal_time=0.0, end_time=cluster.engine.now
        )

    def test_double_counted_delivery_is_reported(self):
        cluster, timeline = build_checked_cluster()
        cluster.fabric.stats.delivered += 1
        violations = self.check(cluster, timeline)
        assert {v.invariant for v in violations} == {"fabric_conservation"}
        assert "delivered=" in violations[0].detail

    def test_parked_count_without_a_parked_message_is_reported(self):
        cluster, timeline = build_checked_cluster()
        cluster.fabric.stats.parked += 1
        violations = self.check(cluster, timeline)
        assert {v.invariant for v in violations} == {"fabric_conservation"}
        # Both halves fire: the count disagrees with the partitions' lists,
        # and the books no longer balance.
        assert len(violations) == 2

    def test_parked_scheduled_and_streaming_messages_balance(self):
        cluster, timeline = build_checked_cluster()
        fabric = cluster.fabric
        fabric.enable_bandwidth()
        here, severed, open_dc = cluster.datacenter_names
        fabric.partition_datacenters(here, severed, mode="park")
        src = cluster.addresses_in(here)[0]
        kind = MessageKind.TREE_REQUEST  # a kind the node accepts and ignores
        fabric.send(src, cluster.addresses_in(severed)[0], kind, None, size_bytes=64)
        fabric.send(src, cluster.addresses_in(open_dc)[0], kind, None, size_bytes=1 << 20)
        fabric.send(src, cluster.addresses_in(here)[1], kind, None, size_bytes=64)
        # One parked; one bandwidth transfer streaming, one delivery queued.
        assert fabric.messages_held() == (1, 2)
        violations = self.check(cluster, timeline)
        assert "fabric_conservation" not in {v.invariant for v in violations}


class TestStuckUnavailable:
    def test_down_nodes_and_failed_probes_are_reported(self):
        cluster, timeline = build_checked_cluster()
        cluster.take_down_datacenter("sophia")
        checker = InvariantChecker()
        violations = checker.check(
            cluster=cluster, timeline=timeline, heal_time=0.0, end_time=cluster.engine.now
        )
        kinds = {v.invariant for v in violations}
        assert "no_stuck_unavailable" in kinds
        details = " | ".join(v.detail for v in violations)
        assert "still down" in details
        assert "sophia" in details


class TestWindowedStaleRate:
    def test_tight_bound_fires_on_a_lossy_run(self, monkeypatch):
        monkeypatch.setattr(replay_module, "STALE_BOUND", 0.0)
        monkeypatch.setattr(replay_module, "PER_DC_STALE_BOUND", 0.0)
        monkeypatch.setattr(replay_module, "MIN_JUDGED_READS", 5)
        generator = ScheduleGenerator(ScenarioRegistry.get("grid5000_3sites"))
        # Ten hot keys at ~5x the default op rate keep cross-site races going
        # after the heal: 3-11 stale reads in the post-heal window over seeds
        # 0-5, where the default sizes leave 0 or 1 there.
        config = ChaosConfig(seed=0, record_count=10, operation_count=2000)
        report = run_chaos(generator.generate(0, budget=6), config)
        assert report.violated_invariants() == ("windowed_stale_rate",)

    def test_empty_window_is_vacuously_fine(self):
        cluster, timeline = build_checked_cluster()
        checker = InvariantChecker(stale_bound=0.0, per_dc_stale_bound=0.0, min_judged_reads=1)
        violations = checker.check(
            cluster=cluster,
            timeline=timeline,
            heal_time=cluster.engine.now + 100.0,  # window starts after the run
            end_time=cluster.engine.now,
        )
        assert violations == []
