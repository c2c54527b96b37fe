"""Unit tests for the ControlPlane driver and its shared-tick semantics."""

from __future__ import annotations

from typing import List

import pytest

from repro.control.plane import ControlPlane, ControlPolicy, ControlTick, Decision
from repro.core.config import HarmonyConfig


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
        assert plane.stats.ticks == 5

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


class TestSharedTick:
    def test_two_policies_share_one_sample(self, plain_cluster):
        """The monitor's window must be consumed once per tick, not per policy."""
        plane = ControlPlane(plain_cluster, HarmonyConfig(monitoring_interval=0.1))
        first = plane.add(CountingPolicy("first"))
        second = plane.add(CountingPolicy("second"))
        plane.start()
        plain_cluster.engine.run_until(0.15)
        plane.stop()
        assert len(first.seen) == 1 and len(second.seen) == 1
        assert first.seen[0] is second.seen[0]  # the very same sample object
        assert len(plane.monitor.samples) == 1

    def test_per_dc_view_sampled_once(self, geo_cluster):
        plane = ControlPlane(geo_cluster, HarmonyConfig(monitoring_interval=0.1))
        first = plane.add(CountingPolicy("first", use_per_dc=True))
        second = plane.add(CountingPolicy("second", use_per_dc=True))
        plane.start()
        geo_cluster.engine.run_until(0.15)
        plane.stop()
        assert first.seen[0] is second.seen[0]
        for dc_samples in plane.monitor.samples_by_dc.values():
            assert len(dc_samples) == 1


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
        assert plane.stats.as_dict()["decisions"] == 6

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
    """The workload-facing wrappers must drive the very same plane machinery."""

    def test_geo_policy_runs_on_a_plane(self, geo_cluster):
        from repro.geo import GeoHarmonyPolicy

        policy = GeoHarmonyPolicy(config=HarmonyConfig(monitoring_interval=0.1))
        policy.attach(geo_cluster)
        geo_cluster.engine.run_until(0.25)
        policy.detach()
        assert policy.plane.decision_counts == {"geo-harmony.read_level": 6}
        assert len(policy.plane.decisions) == 6
