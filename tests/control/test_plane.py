"""Unit tests for the ControlPlane driver and its shared-tick semantics."""

from __future__ import annotations

from typing import List

import pytest

from repro.cluster.consistency import ConsistencyLevel as CL
from repro.control.plane import (
    ControlPlane,
    ControlPolicy,
    ControlTick,
    Decision,
    LevelPolicy,
    resolve_level,
)
from repro.control.policies import GeoReadPolicy, HarmonyConfig


class CountingPolicy(ControlPolicy):
    """Emits one decision per tick and records which views it touched."""

    def __init__(self, name: str, use_per_dc: bool = False) -> None:
        super().__init__()
        self.name = name
        self.use_per_dc = use_per_dc
        self.seen: List[object] = []

    def tick(self, tick: ControlTick) -> List[Decision]:
        view = tick.samples_by_dc if self.use_per_dc else tick.sample
        self.seen.append(view)
        return [
            Decision(time=tick.now, policy=self.name, scope="cluster", kind="noop", value=None)
        ]


class TestLifecycle:
    def test_start_ticks_periodically_and_stop_halts(self, plain_cluster):
        plane = ControlPlane(plain_cluster, HarmonyConfig(monitoring_interval=0.1))
        policy = plane.add(CountingPolicy("p"))
        plane.start()
        plain_cluster.engine.run_until(0.55)
        assert len(policy.seen) == 5
        plane.stop()
        plain_cluster.engine.run_until(1.5)
        assert len(policy.seen) == 5
        assert plane.ticks == 5

    def test_start_twice_does_not_double_schedule(self, plain_cluster):
        plane = ControlPlane(plain_cluster, HarmonyConfig(monitoring_interval=0.1))
        policy = plane.add(CountingPolicy("p"))
        plane.start()
        plane.start()
        plain_cluster.engine.run_until(0.35)
        assert len(policy.seen) == 3
        plane.stop()

    def test_explicit_interval_overrides_config(self, plain_cluster):
        plane = ControlPlane(
            plain_cluster, HarmonyConfig(monitoring_interval=0.1), interval=0.25
        )
        policy = plane.add(CountingPolicy("p"))
        plane.start()
        plain_cluster.engine.run_until(1.05)
        plane.stop()
        assert len(policy.seen) == 4

    def test_invalid_interval_rejected(self, plain_cluster):
        with pytest.raises(ValueError):
            ControlPlane(plain_cluster, interval=0.0)


def count_calls(monitor, method: str) -> List[float]:
    """Wrap one sampling method of ``monitor``; returns the list of call times."""
    calls: List[float] = []
    original = getattr(monitor, method)

    def spy(*args, **kwargs):
        calls.append(monitor.cluster.engine.now)
        return original(*args, **kwargs)

    setattr(monitor, method, spy)
    return calls


class TestSharedTick:
    def test_two_policies_share_one_sample(self, plain_cluster):
        """The monitor's window must be consumed once per tick, not per policy."""
        plane = ControlPlane(plain_cluster, HarmonyConfig(monitoring_interval=0.1))
        first = plane.add(CountingPolicy("first"))
        second = plane.add(CountingPolicy("second"))
        samples = count_calls(plane.monitor, "sample")
        plane.start()
        plain_cluster.engine.run_until(0.25)
        plane.stop()
        assert len(first.seen) == 2 and len(second.seen) == 2
        assert first.seen[0] is second.seen[0]  # the very same sample object
        assert samples == pytest.approx([0.1, 0.2])  # one sampling pass per tick

    def test_per_dc_view_sampled_once(self, geo_cluster):
        plane = ControlPlane(geo_cluster, HarmonyConfig(monitoring_interval=0.1))
        first = plane.add(CountingPolicy("first", use_per_dc=True))
        second = plane.add(CountingPolicy("second", use_per_dc=True))
        per_dc = count_calls(plane.monitor, "sample_per_datacenter")
        cluster_wide = count_calls(plane.monitor, "sample")
        plane.start()
        geo_cluster.engine.run_until(0.25)
        plane.stop()
        assert first.seen[0] is second.seen[0]
        assert set(first.seen[0]) == {"alpha", "beta", "gamma"}
        assert per_dc == pytest.approx([0.1, 0.2])
        assert cluster_wide == []  # a view no policy reads is never sampled


class TestDecisionAccounting:
    def test_decisions_logged_and_counted(self, plain_cluster):
        plane = ControlPlane(plain_cluster, HarmonyConfig(monitoring_interval=0.1))
        plane.add(CountingPolicy("a"))
        plane.add(CountingPolicy("b"))
        plane.start()
        plain_cluster.engine.run_until(0.35)
        plane.stop()
        assert len(plane.decisions) == 6
        assert plane.decision_counts == {"a.noop": 3, "b.noop": 3}
        assert plane.ticks == 3
        # The log is in tick order, each tick's decisions in policy order.
        assert [d.policy for d in plane.decisions] == ["a", "b"] * 3

    def test_decision_counts_recount_the_log_in_first_decision_order(self, plain_cluster):
        plane = ControlPlane(plain_cluster, HarmonyConfig(monitoring_interval=0.1))
        plane.add(CountingPolicy("z"))
        plane.add(CountingPolicy("a"))
        plane.tick()
        # A decision appended by hand is counted like one a policy took.
        plane.decisions.append(
            Decision(time=0.0, policy="m", scope="cluster", kind="knob", value=1)
        )
        plane.tick()
        counts = plane.decision_counts
        assert counts == {"z.noop": 2, "a.noop": 2, "m.knob": 1}
        assert list(counts) == ["z.noop", "a.noop", "m.knob"]
        assert counts is not plane.decision_counts  # a fresh recount each time

    def test_ticks_count_ticks_that_decide_nothing(self, plain_cluster):
        plane = ControlPlane(plain_cluster, interval=0.1)
        plane.add(LevelPolicy())  # ticks, never decides
        plane.start()
        plain_cluster.engine.run_until(0.45)
        plane.stop()
        assert (plane.ticks, plane.decisions, plane.decision_counts) == (4, [], {})
        assert len(plane.estimate_series) == 0

    def test_manual_tick(self, plain_cluster):
        plane = ControlPlane(plain_cluster, HarmonyConfig(monitoring_interval=0.1))
        plane.add(CountingPolicy("a"))
        produced = plane.tick()
        assert len(produced) == 1
        assert plane.decisions == produced

    def test_unbound_policy_has_no_cluster(self):
        policy = CountingPolicy("loose")
        with pytest.raises(RuntimeError):
            _ = policy.cluster


class TestLegacyControllersShareTheSpine:
    """The level policy the executor asks for levels is the object a plane ticks."""

    def test_geo_policy_runs_on_a_plane(self, geo_cluster):
        plane = ControlPlane(geo_cluster)
        plane.add(GeoReadPolicy(HarmonyConfig(monitoring_interval=0.1)))
        plane.start()
        geo_cluster.engine.run_until(0.25)
        plane.stop()
        assert plane.decision_counts == {"geo-harmony.read_level": 6}
        assert len(plane.decisions) == 6


class TestInterval:
    """Explicit period, else the given config's, else the first a policy declares."""

    def test_explicit_interval_wins(self, plain_cluster):
        plane = ControlPlane(plain_cluster, HarmonyConfig(monitoring_interval=0.1), interval=2.0)
        plane.add(CountingPolicy("p")).interval = 0.3
        assert plane.interval == 2.0

    def test_first_declaring_policy_sets_it(self, plain_cluster):
        plane = ControlPlane(plain_cluster)
        plane.add(LevelPolicy())  # static: declares none
        assert plane.interval is None
        plane.add(CountingPolicy("a")).interval = 0.3
        plane.add(CountingPolicy("b")).interval = 0.7
        assert plane.interval == 0.3
        plane.start()
        plain_cluster.engine.run_until(1.0)
        plane.stop()
        assert plane.ticks == 3

    def test_non_positive_interval_rejected(self, plain_cluster):
        with pytest.raises(ValueError, match="positive"):
            ControlPlane(plain_cluster, interval=0.0)


class TestResolveLevel:
    """The one datacenter -> level rule (pinned / pinned replica-less / unpinned)."""

    SITES = ("alpha", "beta")  # gamma holds no replicas
    DECIDED = {"alpha": CL.LOCAL_QUORUM, "beta": CL.LOCAL_ONE, "gamma": CL.ONE}

    def test_pinned_to_a_replica_holding_site_gets_that_sites_level(self):
        assert resolve_level(self.DECIDED, CL.LOCAL_ONE, self.SITES, "alpha") is CL.LOCAL_QUORUM
        assert resolve_level({}, CL.LOCAL_QUORUM, self.SITES, "beta") is CL.LOCAL_QUORUM

    def test_pinned_to_a_replica_less_site_degrades_local_levels(self):
        assert resolve_level({}, CL.LOCAL_QUORUM, self.SITES, "gamma") is CL.QUORUM
        assert resolve_level(self.DECIDED, CL.LOCAL_ONE, self.SITES, "gamma") is CL.ONE
        assert resolve_level({}, CL.EACH_QUORUM, self.SITES, "gamma") is CL.EACH_QUORUM

    def test_unpinned_gets_the_strictest_site_decision_degraded(self):
        assert resolve_level(self.DECIDED, CL.LOCAL_ONE, self.SITES, None) is CL.QUORUM
        assert resolve_level({**self.DECIDED, "beta": CL.ALL}, CL.LOCAL_ONE, self.SITES, None) is CL.ALL
        assert resolve_level({}, CL.LOCAL_ONE, self.SITES, None) is CL.ONE

    def test_without_per_dc_factors_every_site_holds_replicas(self):
        assert resolve_level({}, CL.LOCAL_QUORUM, None, "anywhere") is CL.LOCAL_QUORUM

    def test_a_bound_static_policy_applies_it(self, geo_cluster):
        policy = ControlPlane(geo_cluster).add(LevelPolicy(CL.LOCAL_QUORUM, CL.LOCAL_ONE))
        assert policy.replica_sites == ("alpha", "beta", "gamma")
        assert policy.read_level("alpha") is CL.LOCAL_QUORUM
        assert (policy.read_level(), policy.write_level()) == (CL.QUORUM, CL.ONE)
