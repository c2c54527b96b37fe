"""Unit tests for the shared fixed-delay timer queues."""

from __future__ import annotations

import pytest

from repro.sim.engine import SimulationEngine
from repro.sim.timers import FixedDelayTimer


def test_timer_fires_at_exact_deadline():
    engine = SimulationEngine()
    timer = FixedDelayTimer(engine, 0.25)
    fired = []
    timer.schedule(fired.append, "a")
    engine.run()
    assert fired == ["a"]
    assert engine.now == pytest.approx(0.25)
    assert timer.fired == 1


def test_cancelled_entries_never_fire():
    engine = SimulationEngine()
    timer = FixedDelayTimer(engine, 1.0)
    fired = []
    entry = timer.schedule(fired.append, "doomed")
    timer.schedule(fired.append, "live")
    entry.cancel()
    assert entry.cancelled
    engine.run()
    assert fired == ["live"]
    assert timer.swept == 1
    assert timer.fired == 1


def test_one_armed_event_covers_many_entries():
    """The queue keeps at most one engine event regardless of entry count."""
    engine = SimulationEngine()
    timer = FixedDelayTimer(engine, 1.0)
    entries = []
    for i in range(100):
        engine.run_until(engine.now + 0.001)  # spread the deadlines out
        entries.append(timer.schedule(lambda _i: None, i))
    # 100 pending timeouts, one armed wake-up in the engine queue.
    assert len(timer) == 100
    assert engine.pending_events == 1
    # Cancel everything (the healthy-run pattern): the single wake-up fires
    # once, sweeps the dead entries in bulk and does not re-arm.
    for entry in entries:
        entry.cancel()
    engine.run()
    assert timer.fired == 0
    assert timer.swept == 100
    assert not timer.armed


def test_schedule_drops_the_cancelled_entries_at_the_head():
    """A queue does not hold a timeout window of dead entries until its armed
    event fires: the next schedule drops the cancelled head run, and the
    armed event still fires once, at its time."""
    engine = SimulationEngine()
    timer = FixedDelayTimer(engine, 1.0)
    fired = []
    completed = [timer.schedule(fired.append, i) for i in range(3)]
    timer.schedule(fired.append, "live")
    behind_live = timer.schedule(fired.append, "cancelled behind a live entry")
    for entry in (*completed, behind_live):
        entry.cancel()
    timer.schedule(fired.append, "next")
    assert len(timer) == 3 and timer.swept == 3
    assert engine.run() == 1
    assert fired == ["live", "next"]
    assert timer.swept == 4 and not timer.armed


def test_entries_fire_in_deadline_order_and_rearm():
    engine = SimulationEngine()
    timer = FixedDelayTimer(engine, 0.5)
    fired = []
    timer.schedule(fired.append, 1)
    engine.run_until(engine.now + 0.2)
    timer.schedule(fired.append, 2)
    engine.run()
    assert fired == [1, 2]
    assert engine.now == pytest.approx(0.7)


def test_callback_may_schedule_followup():
    engine = SimulationEngine()
    timer = FixedDelayTimer(engine, 0.1)
    fired = []

    def chain(arg):
        fired.append(arg)
        if arg < 3:
            timer.schedule(chain, arg + 1)

    timer.schedule(chain, 1)
    engine.run()
    assert fired == [1, 2, 3]
    assert engine.now == pytest.approx(0.3)


def test_non_positive_delay_rejected():
    engine = SimulationEngine()
    with pytest.raises(Exception):
        FixedDelayTimer(engine, 0.0)
