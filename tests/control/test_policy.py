"""Unit tests for the level policies the paper's comparison names."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro
from repro.cluster.cluster import ClusterConfig, SimulatedCluster
from repro.cluster.consistency import ConsistencyLevel
from repro.control.plane import ControlPlane, LevelPolicy
from repro.control.policies import (
    HarmonyConfig,
    HarmonyReadPolicy,
    ThresholdReadPolicy,
    make_policy,
)
from repro.experiments.scenarios import GRID5000_3SITES


#: One name per family ``make_policy`` knows.
POLICY_NAMES = [
    "eventual",
    "strong",
    "quorum",
    "local_one",
    "local_quorum",
    "each_quorum",
    "geo-harmony",
    "geo-harmony-rw",
    "harmony-0.2",
    "threshold-0.3",
]


@pytest.fixture
def cluster() -> SimulatedCluster:
    return SimulatedCluster(ClusterConfig(n_nodes=6, replication_factor=3, seed=23))


def write_heavy_load(cluster: SimulatedCluster, writes: int = 200, reads: int = 20) -> None:
    for i in range(writes):
        cluster.write(f"k{i}", "v", ConsistencyLevel.ONE)
    for i in range(reads):
        cluster.read(f"k{i}", ConsistencyLevel.ONE)


class TestMakePolicy:
    def test_builds_static_policies(self):
        assert make_policy("eventual").label == "eventual"
        assert make_policy("strong").label == "strong"
        assert make_policy("quorum").label == "quorum"
        assert make_policy("local_one").label == "static-geo(LOCAL_ONE/LOCAL_ONE)"
        assert make_policy("local_quorum").label == "static-geo(LOCAL_QUORUM/LOCAL_ONE)"
        assert make_policy("each_quorum").label == "static-geo(EACH_QUORUM/LOCAL_ONE)"

    def test_builds_harmony_with_fraction_or_percent(self):
        a = make_policy("harmony-0.2")
        b = make_policy("harmony-20%")
        c = make_policy("harmony-20")
        assert isinstance(a, HarmonyReadPolicy)
        assert a.config.tolerated_stale_rate == pytest.approx(0.2)
        assert b.config.tolerated_stale_rate == pytest.approx(0.2)
        assert c.config.tolerated_stale_rate == pytest.approx(0.2)

    @pytest.mark.parametrize(
        "name,rate",
        [
            ("harmony-1%", 0.01),  # was 100 %: the % was stripped before the > 1 rule ran
            ("harmony-0.5%", 0.005),  # was 50 %
            ("harmony-20%", 0.2),
            ("harmony-0.2", 0.2),
            ("harmony-20", 0.2),
        ],
    )
    def test_percent_sign_divides_by_100(self, name, rate):
        policy = make_policy(name)
        assert policy.config.tolerated_stale_rate == pytest.approx(rate)
        assert policy.label == f"harmony-{int(round(rate * 100))}%"

    def test_a_rate_above_100_percent_is_rejected(self):
        with pytest.raises(ValueError, match="tolerated_stale_rate"):
            make_policy("harmony-150")

    def test_harmony_monitoring_interval_override(self):
        policy = make_policy("harmony-0.3", monitoring_interval=0.123)
        assert policy.config.monitoring_interval == pytest.approx(0.123)

    def test_builds_threshold_policy(self):
        policy = make_policy("threshold-0.5")
        assert isinstance(policy, ThresholdReadPolicy)
        assert policy.threshold == pytest.approx(0.5)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_policy("chaos")

    def test_every_level_policy_class_is_one_make_policy_can_name(self):
        """No level policy in ``src/`` is reachable only by its constructor."""
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            importlib.import_module(info.name)
        classes, todo = set(), [LevelPolicy]
        while todo:
            cls = todo.pop()
            if cls.__module__.startswith("repro."):
                classes.add(cls)
                todo.extend(cls.__subclasses__())
        named = {type(make_policy(name, GRID5000_3SITES)) for name in POLICY_NAMES}
        assert classes == named

    def test_only_the_geo_loops_need_a_scenario(self):
        for name in ("eventual", "local_quorum", "harmony-20%", "threshold-0.3"):
            assert make_policy(name).label
        for name in ("geo-harmony", "geo-harmony-rw"):
            with pytest.raises(ValueError, match="scenario"):
                make_policy(name)
            policy = make_policy(name, GRID5000_3SITES)
            assert policy.tolerated_stale_rates == GRID5000_3SITES.harmony_stale_rates_by_dc


class TestStaticPolicies:
    def test_eventual_uses_level_one_for_everything(self):
        policy = make_policy("eventual")
        assert policy.read_level() is ConsistencyLevel.ONE
        assert policy.write_level() is ConsistencyLevel.ONE
        assert policy.label == "eventual"

    def test_strong_reads_all_writes_one(self):
        policy = make_policy("strong")
        assert policy.read_level() is ConsistencyLevel.ALL
        assert policy.write_level() is ConsistencyLevel.ONE
        assert policy.label == "strong"

    def test_quorum_policy(self):
        policy = make_policy("quorum")
        assert policy.read_level() is ConsistencyLevel.QUORUM
        assert policy.write_level() is ConsistencyLevel.QUORUM

    def test_a_plane_of_static_levels_schedules_no_engine_event(self, cluster):
        plane = ControlPlane(cluster)
        plane.add(make_policy("eventual"))
        assert plane.interval is None
        queued = cluster.engine.pending_events
        plane.start()
        assert not plane.running and cluster.engine.pending_events == queued
        plane.stop()

    def test_describe_mentions_levels(self):
        text = repr(LevelPolicy(ConsistencyLevel.TWO, ConsistencyLevel.ONE))
        assert "TWO" in text and "ONE" in text


class TestHarmonyPolicy:
    def test_name_reflects_the_asr(self):
        # The report name carries the ASR; decision records stay keyed "harmony".
        assert make_policy("harmony-20%").label == "harmony-20%"
        assert make_policy("harmony-0.6").label == "harmony-60%"
        assert make_policy("harmony-60").name == "harmony"

    def test_read_level_before_attach_is_one(self):
        policy = make_policy("harmony-40%")
        assert policy.read_level() is ConsistencyLevel.ONE
        assert policy.plane is None

    @pytest.mark.parametrize("asr", [0.0, 1.0])
    def test_live_load_escalates_reads_only_past_the_tolerance(self, asr):
        cluster = SimulatedCluster(ClusterConfig(n_nodes=6, replication_factor=5, seed=3))
        policy = HarmonyReadPolicy(
            HarmonyConfig(tolerated_stale_rate=asr, monitoring_interval=0.05)
        )
        plane = ControlPlane(cluster)
        plane.add(policy)
        plane.start()
        for i in range(400):
            cluster.write(f"hot{i % 5}", "v", ConsistencyLevel.ONE)
            cluster.read(f"hot{i % 5}", ConsistencyLevel.ONE)
        cluster.engine.run_until(cluster.engine.now + 0.2)
        plane.stop()
        # The model sees the load either way; only the tolerance differs.
        assert plane.decisions[-1].estimate.probability > 0.0
        if asr == 0.0:
            assert policy.read_level().blocked_for(5) > 1
        else:
            assert policy.read_level() is ConsistencyLevel.ONE
        assert policy.write_level() is ConsistencyLevel.ONE  # the paper adapts reads only

    def test_attach_starts_a_plane_and_detach_stops_it(self, cluster):
        """The policy *is* what the plane ticks, at the policy's own interval."""
        policy = HarmonyReadPolicy(
            HarmonyConfig(tolerated_stale_rate=0.4, monitoring_interval=0.05)
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
        policy = make_policy("harmony-40%", monitoring_interval=0.05)
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
        policy = make_policy("harmony-25%")
        assert "harmony-25%" in repr(policy)
        assert policy.config.tolerated_stale_rate == 0.25
        assert policy.interval == policy.config.monitoring_interval


class TestPinnedClients:
    @pytest.mark.parametrize(
        "name", ["eventual", "strong", "quorum", "harmony-0.2", "threshold-0.3"]
    )
    def test_a_cluster_wide_policy_hands_every_site_the_shared_level(self, name):
        """``read_level`` takes a client's datacenter; a cluster-wide level ignores it."""
        cluster = SimulatedCluster(
            ClusterConfig(n_nodes=6, datacenters=2, replication_factor=3, seed=23)
        )
        policy = make_policy(name, monitoring_interval=0.05)
        plane = ControlPlane(cluster)
        plane.add(policy)
        levels = []
        plane.start()
        for _ in range(3):
            write_heavy_load(cluster)
            cluster.engine.run_until(cluster.engine.now + 0.1)
            shared = policy.read_level()
            assert [policy.read_level(dc) for dc in cluster.datacenter_names] == [shared] * 2
            levels.append(shared)
        plane.stop()
        if policy.interval is not None:
            assert len(plane.decisions) >= 3 and levels[-1] is not ConsistencyLevel.ONE


class TestThresholdPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            ThresholdReadPolicy(threshold=-1)
        with pytest.raises(ValueError):
            ThresholdReadPolicy(monitoring_interval=0)

    def test_heavy_write_ratio_switches_to_all(self, cluster):
        policy = ThresholdReadPolicy(threshold=0.3, monitoring_interval=0.05)
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
        policy = ThresholdReadPolicy(threshold=0.3, monitoring_interval=0.05)
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
        policy = ThresholdReadPolicy(threshold=0.3, monitoring_interval=0.05)
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
