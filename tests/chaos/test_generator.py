"""Property tests for the chaos schedule generator.

Two contracts: determinism (same ``(seed, scenario, budget)`` gives a
byte-identical schedule) and structural sanity (everything heals inside the
horizon, no overlapping crash windows per node, loss/slow windows never
stack on one pair).  Sanity is asserted twice -- through the shared
:func:`validate_schedule` and through independent re-derivations -- so a
bug in the validator cannot silently vouch for itself.
"""

from __future__ import annotations

import pytest

from repro.chaos import ScheduleGenerator, ScheduleValidationError, validate_schedule
from repro.chaos.corpus import schedule_from_dict, schedule_signature, schedule_to_dict
from repro.chaos.generator import HEAL_FRACTION
from repro.experiments.scenarios import ScenarioRegistry
from repro.faults.schedule import (
    DatacenterOutage,
    FaultSchedule,
    NodeBootstrap,
    NodeCrash,
    NodeDecommission,
    PacketLoss,
    SlowWan,
)

SEEDS = list(range(40))


@pytest.fixture(scope="module")
def generator():
    return ScheduleGenerator(ScenarioRegistry.get("grid5000_3sites"))


class TestDeterminism:
    @pytest.mark.parametrize("seed", SEEDS[::4])
    def test_same_inputs_give_byte_identical_schedules(self, generator, seed):
        fresh = ScheduleGenerator(ScenarioRegistry.get("grid5000_3sites"))
        a = generator.generate(seed, budget=6)
        b = fresh.generate(seed, budget=6)
        assert schedule_signature(a) == schedule_signature(b)
        assert [repr(e) for e in a.events] == [repr(e) for e in b.events]

    def test_different_seeds_differ(self, generator):
        signatures = {schedule_signature(generator.generate(seed, 6)) for seed in SEEDS}
        # A few collisions would be astronomically unlikely; any would point
        # at the generator ignoring its seed.
        assert len(signatures) == len(SEEDS)

    def test_scenario_name_isolates_the_stream(self):
        a = ScheduleGenerator(ScenarioRegistry.get("grid5000_3sites")).generate(7, 6)
        b = ScheduleGenerator(ScenarioRegistry.get("ec2_multiregion")).generate(7, 6)
        assert schedule_signature(a) != schedule_signature(b)

    def test_round_trips_through_the_corpus_format(self, generator):
        schedule = generator.generate(11, 6)
        restored = schedule_from_dict(schedule_to_dict(schedule))
        assert schedule_signature(restored) == schedule_signature(schedule)


class TestStructuralSanity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_generated_schedules_validate(self, generator, seed):
        schedule = generator.generate(seed, budget=6)
        validate_schedule(schedule, horizon=generator.horizon)  # shared validator
        cap = HEAL_FRACTION * generator.horizon + 1e-9

        # Independent re-derivation 1: all events inside [0, heal cap].
        for event in schedule.events:
            assert event.at >= 0.0
            end = event.at + (getattr(event, "duration", None) or 0.0)
            assert end <= cap

        # Independent re-derivation 2: every crash restarts, and one node's
        # crash windows never overlap.
        crashes = {}
        for event in schedule.events:
            if isinstance(event, NodeCrash):
                assert event.duration is not None, f"crash of {event.node} never restarts"
                crashes.setdefault(event.node, []).append((event.at, event.at + event.duration))
        for node, windows in crashes.items():
            windows.sort()
            for (s1, e1), (s2, _e2) in zip(windows, windows[1:]):
                assert e1 < s2, f"overlapping crash windows for {node}"

    @pytest.mark.parametrize("seed", SEEDS[::4])
    def test_budget_bounds_the_action_count(self, generator, seed):
        schedule = generator.generate(seed, budget=4)
        assert len(schedule.events) <= 4

    def test_zero_budget_gives_an_empty_schedule(self, generator):
        assert len(generator.generate(0, budget=0).events) == 0

    def test_single_dc_scenarios_only_draw_crashes(self):
        generator = ScheduleGenerator(ScenarioRegistry.get("scale_100"))
        for seed in range(8):
            schedule = generator.generate(seed, budget=5)
            assert all(
                isinstance(e, NodeCrash) for e in schedule.events
            ), f"seed {seed} drew a cross-DC fault on a single-DC scenario"

    def test_loss_and_slow_draws_stay_in_their_validated_ranges(self, generator):
        for seed in SEEDS:
            for event in generator.generate(seed, 6).events:
                if isinstance(event, PacketLoss):
                    assert 0.05 <= event.probability <= 0.35
                if isinstance(event, SlowWan):
                    assert 2.0 <= event.scale <= 12.0


class TestValidator:
    def test_rejects_a_crash_that_never_restarts(self):
        node = ScenarioRegistry.get("grid5000_3sites").topology.nodes[0]
        with pytest.raises(ScheduleValidationError, match="unhealed"):
            validate_schedule(FaultSchedule([NodeCrash(at=1.0, node=node)]), horizon=12.0)

    def test_rejects_overlapping_crashes_of_one_node(self):
        node = ScenarioRegistry.get("grid5000_3sites").topology.nodes[0]
        with pytest.raises(ScheduleValidationError, match="overlapping node windows"):
            validate_schedule(
                FaultSchedule(
                    [
                        NodeCrash(at=1.0, node=node, duration=3.0),
                        NodeCrash(at=2.0, node=node, duration=1.0),
                    ]
                ),
                horizon=12.0,
            )

    def test_rejects_a_crash_inside_its_datacenters_outage(self):
        node = ScenarioRegistry.get("grid5000_3sites").topology.nodes[0]
        with pytest.raises(ScheduleValidationError, match="overlaps outage"):
            validate_schedule(
                FaultSchedule(
                    [
                        DatacenterOutage(at=1.0, datacenter=node.datacenter, duration=3.0),
                        NodeCrash(at=2.0, node=node, duration=3.0),
                    ]
                ),
                horizon=12.0,
            )

    def test_accepts_back_to_back_crashes_of_one_node(self):
        node = ScenarioRegistry.get("grid5000_3sites").topology.nodes[0]
        validate_schedule(
            FaultSchedule(
                [
                    NodeCrash(at=1.0, node=node, duration=1.0),
                    NodeCrash(at=2.5, node=node, duration=1.0),
                ]
            ),
            horizon=12.0,
        )

    def test_rejects_unhealed_window(self):
        with pytest.raises(ScheduleValidationError):
            validate_schedule(
                FaultSchedule(
                    [PacketLoss(at=1.0, datacenters=("a", "b"), probability=0.2)]
                ),
                horizon=12.0,
            )

    def test_rejects_window_past_heal_cap(self):
        with pytest.raises(ScheduleValidationError):
            validate_schedule(
                FaultSchedule(
                    [
                        PacketLoss(
                            at=10.0, datacenters=("a", "b"), probability=0.2, duration=5.0
                        )
                    ]
                ),
                horizon=12.0,
            )

    def test_rejects_overlapping_loss_windows_on_one_pair(self):
        with pytest.raises(ScheduleValidationError):
            validate_schedule(
                FaultSchedule(
                    [
                        PacketLoss(
                            at=1.0, datacenters=("a", "b"), probability=0.2, duration=3.0
                        ),
                        PacketLoss(
                            at=2.0, datacenters=("b", "a"), probability=0.3, duration=3.0
                        ),
                    ]
                ),
                horizon=12.0,
            )

    def test_generator_rejects_bad_inputs(self):
        scenario = ScenarioRegistry.get("grid5000_3sites")
        with pytest.raises(ValueError):
            ScheduleGenerator(scenario, horizon=0.0)
        with pytest.raises(ValueError):
            ScheduleGenerator(scenario).generate(0, budget=-1)


class TestElasticMenu:
    """Membership events: only on elastic scenarios, validated, deterministic."""

    @pytest.fixture(scope="class")
    def elastic(self):
        return ScheduleGenerator(ScenarioRegistry.get("grid5000_3sites_elastic"))

    def test_non_elastic_scenarios_never_draw_membership(self, generator):
        for seed in range(20):
            for event in generator.generate(seed, 6).events:
                assert not isinstance(event, (NodeBootstrap, NodeDecommission))

    def test_elastic_menu_eventually_draws_membership(self, elastic):
        drawn = sum(
            any(
                isinstance(e, (NodeBootstrap, NodeDecommission))
                for e in elastic.generate(seed, 6).events
            )
            for seed in range(20)
        )
        assert drawn >= 3, "elastic menu almost never draws membership events"

    def test_membership_events_target_spares_only(self, elastic):
        scenario = ScenarioRegistry.get("grid5000_3sites_elastic")
        from repro.cluster.cluster import resolve_spares

        spares = set(resolve_spares(scenario.cluster_config(), scenario.topology))
        for seed in range(20):
            for event in elastic.generate(seed, 6).events:
                if isinstance(event, (NodeBootstrap, NodeDecommission)):
                    assert event.node in spares

    @pytest.mark.parametrize("seed", range(0, 20, 4))
    def test_elastic_schedules_are_deterministic_and_validate(self, elastic, seed):
        fresh = ScheduleGenerator(ScenarioRegistry.get("grid5000_3sites_elastic"))
        a = elastic.generate(seed, budget=6)
        b = fresh.generate(seed, budget=6)
        assert schedule_signature(a) == schedule_signature(b)
        validate_schedule(a, horizon=elastic.horizon)

    def test_membership_round_trips_through_the_corpus_format(self, elastic):
        for seed in range(20):
            schedule = elastic.generate(seed, budget=6)
            if any(isinstance(e, (NodeBootstrap, NodeDecommission)) for e in schedule.events):
                restored = schedule_from_dict(schedule_to_dict(schedule))
                assert schedule_signature(restored) == schedule_signature(schedule)
                return
        pytest.fail("no seed drew a membership event to round-trip")

    def test_spareless_config_keeps_preexisting_schedules_byte_identical(self):
        # The elastic menu must only engage when spares exist: every
        # schedule of the non-elastic twin scenario is unchanged by the
        # feature (guards the corpus signatures of earlier PRs).
        base = ScheduleGenerator(ScenarioRegistry.get("grid5000_3sites"))
        for seed in range(12):
            schedule = base.generate(seed, budget=6)
            assert not any(
                isinstance(e, (NodeBootstrap, NodeDecommission)) for e in schedule.events
            )
            validate_schedule(schedule, horizon=base.horizon)

    def test_validator_rejects_membership_past_heal_cap(self):
        scenario = ScenarioRegistry.get("grid5000_3sites_elastic")
        node = scenario.topology.nodes[0]
        generator = ScheduleGenerator(scenario)
        cap = HEAL_FRACTION * generator.horizon
        with pytest.raises(ScheduleValidationError, match="past heal cap"):
            validate_schedule(
                FaultSchedule([NodeBootstrap(at=cap + 1.0, node=node)]),
                horizon=generator.horizon,
            )

    def test_validator_rejects_overlapping_join_join(self):
        scenario = ScenarioRegistry.get("grid5000_3sites_elastic")
        node = scenario.topology.nodes[0]
        with pytest.raises(ScheduleValidationError, match="consecutive bootstrap"):
            validate_schedule(
                FaultSchedule(
                    [NodeBootstrap(at=1.0, node=node), NodeBootstrap(at=2.0, node=node)]
                ),
                horizon=12.0,
            )

    def test_validator_accepts_alternating_join_leave(self):
        scenario = ScenarioRegistry.get("grid5000_3sites_elastic")
        node = scenario.topology.nodes[0]
        validate_schedule(
            FaultSchedule(
                [NodeBootstrap(at=1.0, node=node), NodeDecommission(at=3.0, node=node)]
            ),
            horizon=12.0,
        )
