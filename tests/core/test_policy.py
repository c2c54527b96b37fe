"""Unit tests for the named level policies (constructors of control policies)."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import ClusterConfig, SimulatedCluster
from repro.cluster.consistency import ConsistencyLevel
from repro.control.plane import ControlPlane, LevelPolicy
from repro.core.config import HarmonyConfig
from repro.core.policy import (
    HarmonyPolicy,
    StaticEventualPolicy,
    StaticQuorumPolicy,
    StaticStrongPolicy,
    ThresholdPolicy,
)


@pytest.fixture
def cluster() -> SimulatedCluster:
    return SimulatedCluster(ClusterConfig(n_nodes=6, replication_factor=3, seed=23))


class TestStaticPolicies:
    def test_eventual_uses_level_one_for_everything(self):
        policy = StaticEventualPolicy()
        assert policy.read_level() is ConsistencyLevel.ONE
        assert policy.write_level() is ConsistencyLevel.ONE
        assert policy.label == "eventual"

    def test_strong_reads_all_writes_one(self):
        policy = StaticStrongPolicy()
        assert policy.read_level() is ConsistencyLevel.ALL
        assert policy.write_level() is ConsistencyLevel.ONE
        assert policy.label == "strong"

    def test_quorum_policy(self):
        policy = StaticQuorumPolicy()
        assert policy.read_level() is ConsistencyLevel.QUORUM
        assert policy.write_level() is ConsistencyLevel.QUORUM

    def test_a_plane_of_static_levels_schedules_no_engine_event(self, cluster):
        plane = ControlPlane(cluster)
        plane.add(StaticEventualPolicy())
        assert plane.interval is None
        queued = cluster.engine.pending_events
        plane.start()
        assert not plane.running and cluster.engine.pending_events == queued
        plane.stop()

    def test_describe_mentions_levels(self):
        text = repr(LevelPolicy(ConsistencyLevel.TWO, ConsistencyLevel.ONE))
        assert "TWO" in text and "ONE" in text


class TestHarmonyPolicy:
    def test_requires_an_asr_or_config(self):
        with pytest.raises(ValueError):
            HarmonyPolicy()

    def test_conflicting_asr_and_config_rejected(self):
        with pytest.raises(ValueError):
            HarmonyPolicy(tolerated_stale_rate=0.3, config=HarmonyConfig(tolerated_stale_rate=0.5))

    def test_name_reflects_the_asr(self):
        # The report name carries the ASR; decision records stay keyed "harmony".
        assert HarmonyPolicy(tolerated_stale_rate=0.2).label == "harmony-20%"
        assert HarmonyPolicy(tolerated_stale_rate=0.6).label == "harmony-60%"
        assert HarmonyPolicy(tolerated_stale_rate=0.6).name == "harmony"

    def test_read_level_before_attach_is_one(self):
        policy = HarmonyPolicy(tolerated_stale_rate=0.4)
        assert policy.read_level() is ConsistencyLevel.ONE
        assert policy.plane is None and policy.last_sample is None

    def test_attach_starts_a_plane_and_detach_stops_it(self, cluster):
        """The policy *is* what the plane ticks, at the policy's own interval."""
        policy = HarmonyPolicy(
            config=HarmonyConfig(tolerated_stale_rate=0.4, monitoring_interval=0.05)
        )
        plane = ControlPlane(cluster)
        assert plane.add(policy) is policy and policy.plane is plane
        assert plane.interval == 0.05
        plane.start()
        cluster.engine.run_until(cluster.engine.now + 0.3)
        decisions = len(plane.decisions)
        assert decisions >= 5
        plane.stop()
        cluster.engine.run_until(cluster.engine.now + 0.3)
        assert len(plane.decisions) == decisions

    def test_estimate_series_is_derived_from_the_decision_log(self, cluster):
        policy = HarmonyPolicy(
            config=HarmonyConfig(tolerated_stale_rate=0.4, monitoring_interval=0.05)
        )
        plane = ControlPlane(cluster)
        plane.add(policy)
        plane.start()
        cluster.engine.run_until(cluster.engine.now + 0.2)
        plane.stop()
        assert len(plane.decisions) >= 1
        # The policy keeps no series of its own; the plane's is the log's.
        assert list(plane.estimate_series) == [
            (d.time, d.estimate.probability) for d in plane.decisions
        ]

    def test_describe_includes_asr_and_interval(self):
        policy = HarmonyPolicy(tolerated_stale_rate=0.25)
        assert "harmony-25%" in repr(policy)
        assert policy.config.tolerated_stale_rate == 0.25
        assert policy.interval == policy.config.monitoring_interval


class TestThresholdPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            ThresholdPolicy(threshold=-1)
        with pytest.raises(ValueError):
            ThresholdPolicy(monitoring_interval=0)

    def test_heavy_write_ratio_switches_to_all(self, cluster):
        policy = ThresholdPolicy(threshold=0.3, monitoring_interval=0.05)
        plane = ControlPlane(cluster)
        plane.add(policy)
        plane.start()
        # Generate a write-heavy window.
        for i in range(200):
            cluster.write(f"k{i}", "v", ConsistencyLevel.ONE)
        for i in range(20):
            cluster.read(f"k{i}", ConsistencyLevel.ONE)
        cluster.engine.run_until(cluster.engine.now + 0.2)
        assert policy.read_level() is ConsistencyLevel.ALL
        plane.stop()

    def test_read_heavy_ratio_switches_back_to_one(self, cluster):
        policy = ThresholdPolicy(threshold=0.3, monitoring_interval=0.05)
        plane = ControlPlane(cluster)
        plane.add(policy)
        plane.start()
        for i in range(300):
            cluster.read(f"k{i % 10}", ConsistencyLevel.ONE)
        for i in range(5):
            cluster.write(f"k{i}", "v", ConsistencyLevel.ONE)
        cluster.engine.run_until(cluster.engine.now + 0.2)
        assert policy.read_level() is ConsistencyLevel.ONE
        plane.stop()

    def test_every_tick_logs_a_decision(self, cluster):
        policy = ThresholdPolicy(threshold=0.3, monitoring_interval=0.05)
        plane = ControlPlane(cluster)
        plane.add(policy)
        plane.start()
        cluster.engine.run_until(cluster.engine.now + 0.25)
        plane.stop()
        assert plane.ticks >= 4
        assert len(plane.decisions) == plane.ticks
        assert plane.decision_counts == {"threshold.read_level": plane.ticks}
        # A threshold decision carries no model estimate.
        assert len(plane.estimate_series) == 0
