"""Shrink-engine tests: minimization, crash windows, determinism guard.

Most cases use a cheap stub ``run_fn`` (no simulation) so the ddmin /
halving / alignment passes can be asserted precisely; the final class runs
the real chaos pipeline against a deliberately-broken invariant and
demonstrates the acceptance criterion: shrinking down to <= 3 events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import pytest

from repro.chaos import NondeterministicReplayError, shrink
from repro.chaos.corpus import schedule_signature
from repro.faults.schedule import (
    DatacenterPartition,
    FaultSchedule,
    NodeCrash,
    PacketLoss,
    SlowWan,
)
from repro.network.topology import NodeAddress

NODE_A = NodeAddress("dc1", "r1", 0)
NODE_B = NodeAddress("dc2", "r1", 1)


@dataclass
class StubReport:
    kinds: Tuple[str, ...]
    sig: str

    def violated_invariants(self) -> Tuple[str, ...]:
        return self.kinds

    def signature(self) -> str:
        return self.sig


def stub_run_fn(predicate):
    """run_fn whose failure kinds come from ``predicate(schedule)`` and whose
    signature is the canonical schedule hash (deterministic by construction)."""

    def run(schedule: FaultSchedule) -> StubReport:
        return StubReport(tuple(predicate(schedule)), schedule_signature(schedule))

    return run


def noise_events():
    return [
        SlowWan(at=1.1, datacenters=("dc1", "dc2"), scale=4.0, duration=2.0),
        NodeCrash(at=2.0, node=NODE_A, duration=3.0),
        PacketLoss(at=3.3, datacenters=("dc1", "dc2"), probability=0.2, duration=1.5),
        DatacenterPartition(at=4.0, datacenters=("dc1", "dc2"), duration=2.5),
    ]


class TestMinimization:
    def test_single_culprit_event_survives(self):
        culprit = PacketLoss(at=6.0, datacenters=("dc2", "dc3"), probability=0.31, duration=2.0)
        schedule = FaultSchedule(noise_events() + [culprit])

        def predicate(s):
            for e in s.events:
                if isinstance(e, PacketLoss) and e.datacenters == ("dc2", "dc3"):
                    return ["lost_writes"]
            return []

        result = shrink(schedule, stub_run_fn(predicate))
        assert len(result.schedule.events) == 1
        survivor = result.schedule.events[0]
        assert isinstance(survivor, PacketLoss)
        assert survivor.datacenters == ("dc2", "dc3")
        # Time alignment pulled it to the origin; duration halved to floor.
        assert survivor.at == 0.0
        assert survivor.duration < 2.0
        assert result.baseline_kinds == ("lost_writes",)

    def test_a_crash_window_shrinks_as_one_event(self):
        # Failure needs NODE_B down for at least one second.  NODE_A's crash
        # goes in one removal, restart and all; NODE_B's stays one event
        # whose window halves toward the threshold, restart moving with it.
        schedule = FaultSchedule(
            noise_events() + [NodeCrash(at=6.0, node=NODE_B, duration=3.0)]
        )

        def predicate(s):
            for e in s.events:
                if isinstance(e, NodeCrash) and e.node == NODE_B and (e.duration or 0) >= 1.0:
                    return ["stuck_unavailable"]
            return []

        result = shrink(schedule, stub_run_fn(predicate))
        (crash,) = result.schedule.events
        assert isinstance(crash, NodeCrash) and crash.node == NODE_B
        # Duration halving converged just above the predicate's threshold.
        assert 1.0 <= crash.duration < 2.0
        assert crash.at == 0.0

    def test_two_event_interaction_keeps_both(self):
        partition = DatacenterPartition(at=4.0, datacenters=("dc2", "dc3"), duration=2.0)
        loss = PacketLoss(at=5.0, datacenters=("dc1", "dc3"), probability=0.1, duration=1.0)
        schedule = FaultSchedule(noise_events() + [partition, loss])

        def predicate(s):
            has_partition = any(
                isinstance(e, DatacenterPartition) and e.datacenters == ("dc2", "dc3")
                for e in s.events
            )
            has_loss = any(
                isinstance(e, PacketLoss) and e.datacenters == ("dc1", "dc3")
                for e in s.events
            )
            return ["hint_loss"] if (has_partition and has_loss) else []

        result = shrink(schedule, stub_run_fn(predicate))
        assert len(result.schedule.events) == 2
        kinds = {type(e) for e in result.schedule.events}
        assert kinds == {DatacenterPartition, PacketLoss}

    def test_run_budget_exhaustion_returns_best_so_far(self):
        culprit = PacketLoss(at=6.0, datacenters=("dc2", "dc3"), probability=0.31, duration=2.0)
        schedule = FaultSchedule(noise_events() + [culprit])

        def predicate(s):
            return (
                ["lost_writes"]
                if any(isinstance(e, PacketLoss) and e.datacenters == ("dc2", "dc3")
                       for e in s.events)
                else []
            )

        result = shrink(schedule, stub_run_fn(predicate), max_runs=4)
        assert result.exhausted
        assert any(
            isinstance(e, PacketLoss) and e.datacenters == ("dc2", "dc3")
            for e in result.schedule.events
        )


class TestVerdictTrust:
    def test_nondeterministic_baseline_is_detected(self):
        calls = {"n": 0}

        def flaky(schedule):
            calls["n"] += 1
            return StubReport(("lost_writes",), f"sig-{calls['n']}")

        schedule = FaultSchedule(noise_events())
        with pytest.raises(NondeterministicReplayError):
            shrink(schedule, flaky)

    def test_failure_kind_drift_is_not_accepted(self):
        # Removing the partition flips the failure from kind A to kind B;
        # the shrinker must keep kind A reproducers only.
        partition = DatacenterPartition(at=4.0, datacenters=("dc2", "dc3"), duration=2.0)
        schedule = FaultSchedule(noise_events() + [partition])

        def predicate(s):
            if any(
                isinstance(e, DatacenterPartition) and e.datacenters == ("dc2", "dc3")
                for e in s.events
            ):
                return ["kind_a"]
            return ["kind_b"]  # every other schedule fails differently

        result = shrink(schedule, stub_run_fn(predicate))
        assert result.baseline_kinds == ("kind_a",)
        assert any(
            isinstance(e, DatacenterPartition) and e.datacenters == ("dc2", "dc3")
            for e in result.schedule.events
        )

    def test_passing_schedule_is_rejected(self):
        schedule = FaultSchedule(noise_events())
        with pytest.raises(ValueError):
            shrink(schedule, stub_run_fn(lambda s: []))


class TestRealPipelineShrink:
    def test_broken_invariant_shrinks_to_three_events_or_fewer(self):
        # Acceptance criterion: a seeded, deliberately-broken invariant (a
        # partition that never heals -> unhealed_state) buried in generated
        # noise shrinks down to <= 3 events through the real chaos pipeline.
        from repro.chaos import ChaosConfig, ScheduleGenerator, run_chaos
        from repro.experiments.scenarios import ScenarioRegistry

        generator = ScheduleGenerator(ScenarioRegistry.get("grid5000_3sites"))
        noise = list(generator.generate(5, budget=5).events)
        broken = DatacenterPartition(at=3.7, datacenters=("rennes", "sophia"), duration=None)
        schedule = FaultSchedule(noise + [broken])
        config = ChaosConfig(seed=11)

        result = shrink(schedule, lambda s: run_chaos(s, config), max_runs=60)
        assert result.baseline_kinds == ("unhealed_state",)
        assert len(result.schedule.events) <= 3
        assert any(
            isinstance(e, DatacenterPartition) and e.duration is None
            for e in result.schedule.events
        )
