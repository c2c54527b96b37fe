"""Unit tests for the spine-ported threshold policy."""

from __future__ import annotations

import pytest

from repro.cluster.consistency import ConsistencyLevel
from repro.control.plane import ControlPlane
from repro.control.policies import ThresholdReadPolicy


class TestThresholdReadPolicy:
    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            ThresholdReadPolicy(threshold=-0.1)

    def test_probes_nothing(self, plain_cluster):
        # A plane carrying only this policy ticks without ever building the
        # monitor (``monitor`` is a build-on-first-use property, so inspect
        # the backing slot).
        plane = ControlPlane(plain_cluster, interval=0.05)
        plane.add(ThresholdReadPolicy(0.3))
        plane.start()
        plain_cluster.engine.run_until(0.2)
        plane.stop()
        assert plane._monitor is None

    def test_write_heavy_window_escalates_to_all(self, plain_cluster):
        plane = ControlPlane(plain_cluster, interval=0.05)
        policy = plane.add(ThresholdReadPolicy(0.3))
        plane.start()
        for i in range(200):
            plain_cluster.write(f"k{i}", "v", ConsistencyLevel.ONE)
        for i in range(20):
            plain_cluster.read(f"k{i}", ConsistencyLevel.ONE)
        plain_cluster.engine.run_until(plain_cluster.engine.now + 0.2)
        plane.stop()
        assert policy.current_level is ConsistencyLevel.ALL

    def test_read_heavy_window_relaxes_to_one(self, plain_cluster):
        plane = ControlPlane(plain_cluster, interval=0.05)
        policy = plane.add(ThresholdReadPolicy(0.3))
        plane.start()
        for i in range(300):
            plain_cluster.read(f"k{i % 10}", ConsistencyLevel.ONE)
        for i in range(5):
            plain_cluster.write(f"k{i}", "v", ConsistencyLevel.ONE)
        plain_cluster.engine.run_until(plain_cluster.engine.now + 0.2)
        plane.stop()
        assert policy.current_level is ConsistencyLevel.ONE

    def test_idle_windows_keep_level_but_extend_the_series(self, plain_cluster):
        plane = ControlPlane(plain_cluster, interval=0.05)
        policy = plane.add(ThresholdReadPolicy(0.3))
        plane.start()
        plain_cluster.engine.run_until(0.26)
        plane.stop()
        # Five idle ticks: the level never moved, the trajectory still covers
        # the whole run, and every tick logged a decision on the plane.
        assert policy.current_level is ConsistencyLevel.ONE
        assert plane.ticks == 5
        assert len(plane.decisions) == 5
        assert [d.time for d in plane.decisions] == pytest.approx([0.05, 0.1, 0.15, 0.2, 0.25])
        assert all(d.policy == "threshold" for d in plane.decisions)
        assert all(
            d.replicas == d.value.blocked_for(plain_cluster.replication_factor)
            for d in plane.decisions
        )

