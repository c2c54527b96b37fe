"""Unit tests of the paper's decision scheme (Section III).

``HarmonyReadPolicy.decide`` is the adaptive consistency module -- estimate
the stale-read rate, compare it with the tolerated rate, pick ``Xn`` -- and a
``ControlPlane`` is the periodic monitor that drives it.
"""

from __future__ import annotations

import pytest

from repro.cluster.cluster import ClusterConfig, SimulatedCluster
from repro.cluster.consistency import ConsistencyLevel
from repro.control.plane import ControlPlane
from repro.control.policies import HarmonyConfig, HarmonyReadPolicy
from repro.control.monitor import MonitoringSample
from repro.network.latency import ConstantLatency


def make_cluster(rf=3, n_nodes=6) -> SimulatedCluster:
    return SimulatedCluster(
        ClusterConfig(
            n_nodes=n_nodes,
            replication_factor=rf,
            seed=17,
            intra_rack_latency=ConstantLatency(0.0003),
            inter_rack_latency=ConstantLatency(0.0005),
        )
    )


def make_policy(cluster: SimulatedCluster, config=None):
    """The read policy bound to a plane on ``cluster``: ``(plane, policy)``."""
    plane = ControlPlane(cluster, config)
    return plane, plane.add(HarmonyReadPolicy(plane.config))


def sample(read_rate: float, write_rate: float, tp: float, time: float = 1.0) -> MonitoringSample:
    return MonitoringSample(
        time=time,
        read_rate=read_rate,
        write_rate=write_rate,
        raw_read_rate=read_rate,
        raw_write_rate=write_rate,
        network_latency=tp,
        propagation_time=tp,
        window=1.0,
    )


class TestDecisionScheme:
    def test_idle_cluster_chooses_eventual_consistency(self):
        _, policy = make_policy(make_cluster(), HarmonyConfig(tolerated_stale_rate=0.2))
        decision = policy.decide(sample(0.0, 0.0, 0.001))
        assert decision.value is ConsistencyLevel.ONE
        assert decision.replicas == 1

    def test_tolerant_application_keeps_level_one(self):
        _, policy = make_policy(make_cluster(), HarmonyConfig(tolerated_stale_rate=1.0))
        decision = policy.decide(sample(5000.0, 5000.0, 0.01))
        assert decision.value is ConsistencyLevel.ONE

    def test_zero_tolerance_under_load_reads_all_replicas(self):
        cluster = make_cluster(rf=3)
        _, policy = make_policy(cluster, HarmonyConfig(tolerated_stale_rate=0.0))
        decision = policy.decide(sample(2000.0, 2000.0, 0.01))
        assert decision.replicas == 3
        assert decision.value is ConsistencyLevel.ALL

    def test_moderate_tolerance_picks_intermediate_level(self):
        cluster = make_cluster(rf=5, n_nodes=6)
        _, policy = make_policy(cluster, HarmonyConfig(tolerated_stale_rate=0.3))
        decision = policy.decide(sample(2000.0, 1500.0, 0.0003))
        assert 1 < decision.replicas < 5

    def test_estimate_above_tolerance_raises_the_level(self):
        cluster = make_cluster(rf=5, n_nodes=6)
        _, policy = make_policy(cluster, HarmonyConfig(tolerated_stale_rate=0.2))
        light = policy.decide(sample(50.0, 10.0, 0.0002))
        heavy = policy.decide(sample(8000.0, 8000.0, 0.002))
        assert light.replicas <= heavy.replicas
        assert heavy.replicas > 1

    def test_decision_matches_model_xn(self):
        cluster = make_cluster(rf=5, n_nodes=6)
        config = HarmonyConfig(tolerated_stale_rate=0.25)
        _, policy = make_policy(cluster, config)
        s = sample(3000.0, 2000.0, 0.0004)
        decision = policy.decide(s)
        expected = policy.estimator.estimate(
            read_rate=s.read_rate,
            write_rate=s.write_rate,
            propagation_time=s.propagation_time,
            tolerated_stale_rate=0.25,
        )
        if 0.25 >= expected.probability:
            assert decision.replicas == 1
        else:
            assert decision.replicas == expected.required_replicas

    def test_the_last_decision_is_held_for_upcoming_reads(self):
        plane, policy = make_policy(make_cluster(), HarmonyConfig(tolerated_stale_rate=0.5))
        policy.decide(sample(100.0, 50.0, 0.001, time=1.0))
        heavy = sample(8000.0, 8000.0, 0.002, time=2.0)
        last = policy.decide(heavy)
        assert last.replicas > 1
        assert policy.current_level is last.value is policy.read_level()
        assert policy.last_sample is heavy is last.sample
        assert plane.decisions == []  # the plane logs its own ticks only

    def test_level_defaults_to_one_before_the_first_decision(self):
        plane, policy = make_policy(make_cluster())
        assert policy.current_level is ConsistencyLevel.ONE
        assert policy.last_sample is None
        assert len(plane.estimate_series) == 0
        assert plane.decisions == []


class TestPeriodicLoop:
    def test_start_schedules_periodic_ticks(self):
        cluster = make_cluster()
        config = HarmonyConfig(tolerated_stale_rate=0.2, monitoring_interval=0.1)
        plane, policy = make_policy(cluster, config)
        plane.start()
        cluster.engine.run_until(cluster.engine.now + 0.55)
        assert len(plane.decisions) == 5
        assert plane.decision_counts == {"harmony.read_level": 5}
        series = plane.estimate_series
        assert list(series.times) == [d.time for d in plane.decisions]
        assert list(series.values) == [d.estimate.probability for d in plane.decisions]
        assert policy.last_sample is plane.decisions[-1].sample
        plane.stop()
        cluster.engine.run_until(cluster.engine.now + 0.5)
        assert len(plane.decisions) == 5

    def test_start_twice_does_not_double_schedule(self):
        cluster = make_cluster()
        config = HarmonyConfig(tolerated_stale_rate=0.2, monitoring_interval=0.1)
        plane, _ = make_policy(cluster, config)
        plane.start()
        plane.start()
        cluster.engine.run_until(cluster.engine.now + 0.35)
        assert len(plane.decisions) == 3
        plane.stop()

    def test_ticks_react_to_live_traffic(self):
        cluster = make_cluster(rf=3)
        config = HarmonyConfig(tolerated_stale_rate=0.05, monitoring_interval=0.05)
        plane, _ = make_policy(cluster, config)
        plane.start()
        # Generate heavy traffic so the measured rates are non-trivial.
        for i in range(300):
            cluster.write(f"k{i % 20}", "v", ConsistencyLevel.ONE)
            cluster.read(f"k{i % 20}", ConsistencyLevel.ONE)
        cluster.engine.run_until(cluster.engine.now + 0.2)
        plane.stop()
        assert len(plane.decisions) >= 2
        assert plane.decisions[-1].estimate.read_rate > 0
