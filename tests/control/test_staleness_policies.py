"""Unit tests for the spine-ported threshold policy and the staleness-SLA
policy (the control loop closed on the auditor's measured ground truth)."""

from __future__ import annotations

import pytest

from repro.cluster.consistency import ConsistencyLevel
from repro.control.plane import ControlPlane
from repro.control.policies import StalenessSLAPolicy, ThresholdReadPolicy
from repro.staleness.auditor import StalenessAuditor


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


def feed(auditor, fresh: int, violating: int, age: float = 0.5) -> None:
    """Append one window of judged reads to the auditor's aggregates."""
    for _ in range(fresh):
        auditor.stats.record_fresh()
    for _ in range(violating):
        auditor.stats.record_stale(age, 1)


class TestStalenessSLAPolicy:
    def make(self, cluster, **kwargs):
        auditor = StalenessAuditor()
        defaults = dict(max_age=0.05, quantile=0.8, min_window_reads=10)
        defaults.update(kwargs)
        plane = ControlPlane(cluster, interval=1.0)
        policy = plane.add(StalenessSLAPolicy(auditor, **defaults))
        return auditor, plane, policy

    def test_validation(self):
        auditor = StalenessAuditor()
        with pytest.raises(ValueError):
            StalenessSLAPolicy(auditor, max_age=0.0)
        with pytest.raises(ValueError):
            StalenessSLAPolicy(auditor, quantile=1.0)
        with pytest.raises(ValueError):
            StalenessSLAPolicy(auditor, quantile=0.0)
        with pytest.raises(ValueError):
            StalenessSLAPolicy(auditor, min_window_reads=0)

    def test_small_windows_carry_no_signal(self, plain_cluster):
        auditor, plane, policy = self.make(plain_cluster, min_window_reads=10)
        feed(auditor, fresh=4, violating=5)  # 9 judged < 10: no decision
        assert plane.tick() == []
        assert policy.current_replicas == 1

    def test_violation_rate_above_budget_escalates_one_replica(self, plain_cluster):
        auditor, plane, policy = self.make(plain_cluster)  # budget = 0.2
        feed(auditor, fresh=5, violating=5)  # rate 0.5 > 0.2
        decisions = plane.tick()
        assert policy.current_replicas == 2
        assert policy.current_level is ConsistencyLevel.TWO
        assert [d.replicas for d in decisions] == [2]

    def test_stale_but_within_age_bound_is_not_a_violation(self, plain_cluster):
        auditor, plane, policy = self.make(plain_cluster)  # max_age = 0.05
        # Ten stale reads, every one younger than the bound: SLA satisfied,
        # rate 0 <= budget/2, and the policy has nowhere to relax from.
        feed(auditor, fresh=0, violating=10, age=0.010)
        assert plane.tick() == []
        assert policy.current_replicas == 1

    def test_hysteresis_band_holds_the_level(self, plain_cluster):
        auditor, plane, policy = self.make(plain_cluster)  # budget = 0.2
        feed(auditor, fresh=5, violating=5)
        plane.tick()  # escalated to 2
        # Rate 0.15: below the budget, above half of it -- hold.
        feed(auditor, fresh=17, violating=3)
        assert plane.tick() == []
        assert policy.current_replicas == 2

    def test_rate_under_half_budget_relaxes_one_replica(self, plain_cluster):
        auditor, plane, policy = self.make(plain_cluster)
        feed(auditor, fresh=5, violating=5)
        plane.tick()
        feed(auditor, fresh=20, violating=0)  # rate 0 <= budget/2
        decisions = plane.tick()
        assert policy.current_replicas == 1
        assert [d.replicas for d in decisions] == [1]

    def test_escalation_clamps_at_replication_factor(self, plain_cluster):
        auditor, plane, policy = self.make(plain_cluster)
        rf = plain_cluster.replication_factor
        for _ in range(rf + 2):
            feed(auditor, fresh=0, violating=10)
            plane.tick()
        assert policy.current_replicas == rf
        assert policy.current_level.blocked_for(rf) == rf

    def test_series_record_the_loop_trajectory(self, plain_cluster):
        auditor, plane, policy = self.make(plain_cluster)
        feed(auditor, fresh=5, violating=5)
        plane.tick()
        feed(auditor, fresh=20, violating=0)
        plane.tick()
        assert list(policy.violation_series.values) == pytest.approx([0.5, 0.0])
        assert [d.replicas for d in plane.decisions] == [2, 1]

    def test_violations_are_recorded_on_ticks_that_decide_nothing(self, plain_cluster):
        # The log holds level moves only; the violation series also holds
        # the held windows, which is why the policy keeps it.
        auditor, plane, policy = self.make(plain_cluster)  # budget = 0.2
        feed(auditor, fresh=5, violating=5)
        plane.tick()  # escalate
        feed(auditor, fresh=17, violating=3)
        plane.tick()  # hold: rate 0.15
        feed(auditor, fresh=3, violating=0)
        plane.tick()  # 3 judged reads < 10: no signal, nothing recorded
        assert list(policy.violation_series.values) == pytest.approx([0.5, 0.15])
        assert [d.replicas for d in plane.decisions] == [2]
        assert plane.ticks == 3
