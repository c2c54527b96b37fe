"""Unit tests for the demand-driven ScaleOutPolicy.

The policy is driven manually with hand-built ticks (the same path the
plane's scheduled execution takes), so every decision rule -- sustain,
cooldown, busy-site suppression, the replication-factor floor and spare
exhaustion -- is pinned without running a workload.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.cluster.cluster import ClusterConfig, SimulatedCluster
from repro.cluster.membership import MembershipManager
from repro.control.policies import ScaleOutConfig, ScaleOutPolicy


def make_policy(**config):
    cluster = SimulatedCluster(
        ClusterConfig(n_nodes=5, replication_factor=3, seed=7, spares_per_dc=1)
    )
    manager = MembershipManager(cluster)
    defaults = dict(
        high_ops_per_node=10.0, low_ops_per_node=2.0, sustain_ticks=2, cooldown=5.0
    )
    defaults.update(config)
    policy = ScaleOutPolicy(ScaleOutConfig(**defaults))
    policy.bind(SimpleNamespace(cluster=cluster))
    return cluster, manager, policy


def tick_at(cluster, now, ops_per_node):
    dc = cluster.datacenter_names[0]
    rate = ops_per_node * len(cluster.members_in(dc))
    sample = SimpleNamespace(read_rate=rate / 2.0, write_rate=rate / 2.0)
    return SimpleNamespace(now=now, sample=sample, samples_by_dc={dc: sample})


def drain(cluster, manager):
    engine = cluster.engine
    deadline = engine.now + 30.0
    while manager.has_active and engine.now < deadline:
        engine.run_until(engine.now + 0.5)
    assert not manager.has_active
    manager.stop()


class TestScaleOut:
    def test_sustained_pressure_bootstraps_a_spare(self):
        cluster, manager, policy = make_policy()
        spare = cluster.spares[0]
        assert policy.tick(tick_at(cluster, 1.0, ops_per_node=50.0)) == []
        decisions = policy.tick(tick_at(cluster, 2.0, ops_per_node=50.0))
        assert [d.value for d in decisions] == [f"bootstrap:{spare}"]
        assert manager.transition(spare) is not None
        manager.stop()

    def test_transient_spike_never_triggers(self):
        cluster, manager, policy = make_policy()
        assert policy.tick(tick_at(cluster, 1.0, ops_per_node=50.0)) == []
        assert policy.tick(tick_at(cluster, 2.0, ops_per_node=5.0)) == []
        assert policy.tick(tick_at(cluster, 3.0, ops_per_node=50.0)) == []
        assert not manager.has_active

    def test_busy_site_and_cooldown_suppress_actions(self):
        cluster, manager, policy = make_policy()
        policy.tick(tick_at(cluster, 1.0, ops_per_node=50.0))
        decisions = policy.tick(tick_at(cluster, 2.0, ops_per_node=50.0))
        assert len(decisions) == 1
        # A transition is in flight: nothing more, no matter the pressure.
        assert policy.tick(tick_at(cluster, 3.0, ops_per_node=99.0)) == []
        drain(cluster, manager)
        # Transition done, but the cooldown window (5s from t=2) still holds.
        assert policy.tick(tick_at(cluster, 5.0, ops_per_node=99.0)) == []
        assert policy.tick(tick_at(cluster, 6.0, ops_per_node=99.0)) == []

    def test_spare_exhaustion_is_a_noop(self):
        cluster, manager, policy = make_policy()
        policy.tick(tick_at(cluster, 1.0, ops_per_node=50.0))
        policy.tick(tick_at(cluster, 2.0, ops_per_node=50.0))
        drain(cluster, manager)
        assert cluster.spares == ()
        assert policy.tick(tick_at(cluster, 10.0, ops_per_node=99.0)) == []
        assert policy.tick(tick_at(cluster, 11.0, ops_per_node=99.0)) == []


class TestScaleIn:
    def test_sustained_relief_decommissions_the_newest_member(self):
        cluster, manager, policy = make_policy()
        policy.tick(tick_at(cluster, 1.0, ops_per_node=50.0))
        policy.tick(tick_at(cluster, 2.0, ops_per_node=50.0))
        joined = cluster.spares[0]
        drain(cluster, manager)
        assert joined in cluster.members
        policy.tick(tick_at(cluster, 10.0, ops_per_node=0.5))
        decisions = policy.tick(tick_at(cluster, 11.0, ops_per_node=0.5))
        assert [d.value for d in decisions] == [f"decommission:{joined}"]
        drain(cluster, manager)
        assert joined not in cluster.members

    def test_floor_is_replication_factor_and_configured_minimum(self):
        cluster, manager, policy = make_policy(min_members_per_dc=5)
        assert len(cluster.members) == 5
        policy.tick(tick_at(cluster, 1.0, ops_per_node=0.5))
        assert policy.tick(tick_at(cluster, 2.0, ops_per_node=0.5)) == []
        assert not manager.has_active


class TestConfigValidation:
    def test_rejects_inverted_watermarks(self):
        with pytest.raises(ValueError):
            ScaleOutConfig(high_ops_per_node=10.0, low_ops_per_node=10.0)

    def test_rejects_zero_sustain(self):
        with pytest.raises(ValueError):
            ScaleOutConfig(sustain_ticks=0)

    def test_policy_requires_a_membership_manager(self):
        cluster = SimulatedCluster(
            ClusterConfig(n_nodes=4, replication_factor=3, seed=1)
        )
        policy = ScaleOutPolicy()
        with pytest.raises(ValueError, match="MembershipManager"):
            policy.bind(SimpleNamespace(cluster=cluster))
