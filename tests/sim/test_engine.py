"""Unit tests for the discrete-event simulation engine."""

from __future__ import annotations

import pytest

from repro.sim.engine import SimulationEngine, SimulationError


def test_clock_starts_at_zero_by_default():
    assert SimulationEngine().now == 0.0


def test_clock_starts_at_custom_time():
    assert SimulationEngine(start_time=5.0).now == 5.0


def test_schedule_and_run_single_event():
    engine = SimulationEngine()
    fired = []
    engine.schedule(1.5, fired.append, "hello")
    executed = engine.run()
    assert executed == 1
    assert fired == ["hello"]
    assert engine.now == 1.5


def test_events_run_in_time_order():
    engine = SimulationEngine()
    order = []
    engine.schedule(3.0, order.append, 3)
    engine.schedule(1.0, order.append, 1)
    engine.schedule(2.0, order.append, 2)
    engine.run()
    assert order == [1, 2, 3]


def test_ties_break_in_fifo_scheduling_order():
    engine = SimulationEngine()
    order = []
    for i in range(5):
        engine.schedule(1.0, order.append, i)
    engine.run()
    assert order == [0, 1, 2, 3, 4]


def test_negative_delay_is_rejected():
    engine = SimulationEngine()
    with pytest.raises(SimulationError):
        engine.schedule(-0.1, lambda: None)


def test_scheduling_in_the_past_is_rejected():
    engine = SimulationEngine()
    engine.schedule(2.0, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.at(1.0, lambda: None)


def test_run_until_leaves_future_events_queued():
    engine = SimulationEngine()
    fired = []
    engine.schedule(1.0, fired.append, "a")
    engine.schedule(5.0, fired.append, "b")
    engine.run_until(2.0)
    assert fired == ["a"]
    assert engine.now == 2.0
    assert engine.pending_events == 1
    engine.run()
    assert fired == ["a", "b"]


def test_run_until_advances_clock_even_with_no_events():
    engine = SimulationEngine()
    engine.run_until(7.5)
    assert engine.now == 7.5


def test_run_until_backwards_is_rejected():
    engine = SimulationEngine()
    engine.run_until(3.0)
    with pytest.raises(SimulationError):
        engine.run_until(1.0)


def test_cancelled_events_do_not_fire():
    engine = SimulationEngine()
    fired = []
    handle = engine.schedule(1.0, fired.append, "x")
    handle.cancel()
    assert handle.cancelled
    engine.run()
    assert fired == []
    assert engine.events_processed == 0


def test_events_scheduled_during_execution_run_in_order():
    engine = SimulationEngine()
    trace = []

    def first():
        trace.append(("first", engine.now))
        engine.schedule(2.0, second)

    def second():
        trace.append(("second", engine.now))

    engine.schedule(1.0, first)
    engine.run()
    assert trace == [("first", 1.0), ("second", 3.0)]


def test_call_soon_runs_at_current_time_but_not_reentrantly():
    engine = SimulationEngine()
    trace = []

    def outer():
        engine.call_soon(trace.append, "inner")
        trace.append("outer")

    engine.schedule(1.0, outer)
    engine.run()
    assert trace == ["outer", "inner"]
    assert engine.now == 1.0


def test_run_max_events_limit():
    engine = SimulationEngine()
    for i in range(10):
        engine.schedule(float(i), lambda: None)
    executed = engine.run(max_events=4)
    assert executed == 4
    assert engine.pending_events == 6


def test_stop_halts_the_loop():
    engine = SimulationEngine()
    fired = []

    def stopping():
        fired.append("stop")
        engine.stop()

    engine.schedule(1.0, stopping)
    engine.schedule(2.0, fired.append, "late")
    engine.run()
    assert fired == ["stop"]
    engine.reset_stop()
    engine.run()
    assert fired == ["stop", "late"]


def test_next_event_time_skips_cancelled():
    engine = SimulationEngine()
    handle = engine.schedule(1.0, lambda: None)
    engine.schedule(2.0, lambda: None)
    handle.cancel()
    assert engine.next_event_time() == 2.0


def test_step_returns_false_when_queue_is_empty():
    engine = SimulationEngine()
    assert engine.step() is False


def test_events_processed_counter():
    engine = SimulationEngine()
    for i in range(7):
        engine.schedule(float(i), lambda: None)
    engine.run()
    assert engine.events_processed == 7


class TestCancellationCompaction:
    def test_mass_cancellation_compacts_the_queue(self):
        engine = SimulationEngine()
        handles = [engine.schedule(float(i + 1), lambda: None) for i in range(500)]
        keeper = engine.schedule(1000.0, lambda: None)
        for handle in handles:
            handle.cancel()
        # Cancelled entries were purged without waiting for their pop time.
        assert engine.compactions >= 1
        assert engine.pending_events < 100
        assert engine.cancelled_pending < 500
        assert not keeper.cancelled

    def test_compacted_queue_still_runs_live_events_in_order(self):
        engine = SimulationEngine()
        order = []
        live = []
        for i in range(300):
            handle = engine.schedule(float(i), order.append, i)
            if i % 3 == 0:
                live.append(i)
            else:
                handle.cancel()
        engine.run()
        assert order == live

    def test_double_cancel_is_counted_once(self):
        engine = SimulationEngine()
        handle = engine.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert engine.cancelled_pending == 1

    def test_cancelled_events_do_not_count_as_processed(self):
        engine = SimulationEngine()
        for i in range(200):
            engine.schedule(float(i), lambda: None).cancel()
        engine.schedule(500.0, lambda: None)
        engine.run()
        assert engine.events_processed == 1


class TestOneShotHandles:
    def test_stale_handle_cannot_cancel_a_recycled_event(self):
        engine = SimulationEngine()
        fired = []
        stale = engine.schedule(1.0, fired.append, "first")
        engine.run()
        # `stale` has fired; a new event gets a new handle, never this one.
        engine.schedule(2.0, fired.append, "second")
        stale.cancel()  # must be a no-op for the recycled slot
        assert not stale.cancelled
        engine.run()
        assert fired == ["first", "second"]

    def test_handle_of_fired_event_reports_not_cancelled(self):
        engine = SimulationEngine()
        handle = engine.schedule(0.5, lambda: None)
        engine.run()
        assert handle.cancelled is False


class TestCallAt:
    def test_call_at_runs_with_args(self):
        engine = SimulationEngine()
        seen = []
        engine.call_at(1.0, seen.append, "x")
        engine.run()
        assert seen == ["x"]
        assert engine.now == 1.0

    def test_call_at_returns_none(self):
        engine = SimulationEngine()
        seen = []
        assert engine.call_at(1.0, seen.append, "y") is None
        engine.run()
        assert seen == ["y"]

    def test_call_at_rejects_a_time_before_now(self):
        engine = SimulationEngine()
        engine.run_until(2.0)
        with pytest.raises(SimulationError):
            engine.call_at(1.0, lambda: None)
        assert engine.pending_events == 0

    def test_call_at_fires_at_exactly_the_float_given(self):
        # 0.1 + 0.2 is not 0.3: the event fires at the stored float itself,
        # not one re-derived from a delay.
        engine = SimulationEngine()
        engine.run_until(0.1)
        deadline = 0.1 + 0.2
        seen = []
        engine.call_at(deadline, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [deadline]


def run_until_by_steps(engine: SimulationEngine, time: float, max_events=None) -> int:
    """Reference ``run_until``: peek the next live event, ``step()`` it, repeat.

    This is the loop ``run_until`` used before it shared the inlined dispatch
    body with ``run``; every observable of the two must agree.
    """
    executed = 0
    while not engine._stopped:
        if max_events is not None and executed >= max_events:
            break
        next_time = engine.next_event_time()  # discards cancelled heads
        if next_time is None or next_time > time:
            break
        engine.step()
        executed += 1
    if not engine._stopped:
        engine._now = max(engine._now, float(time))
    return executed


def observable_state(engine: SimulationEngine):
    return (
        engine.now,
        engine.events_processed,
        engine.pending_events,
        engine.cancelled_pending,
        engine.compactions,
    )


class TestRunUntilEqualsStepping:
    """``run_until`` ≡ step-by-step execution, window after window."""

    @staticmethod
    def populate(engine: SimulationEngine, log: list, *, stop_at=None) -> None:
        """A queue with cancelled heads, ties, events at window bounds (1.0,
        2.0, 3.0), callbacks that schedule at exactly the bound and beyond
        it, and a cancelled event just past a bound."""

        def note(tag):
            log.append((tag, engine.now))
            if tag == stop_at:
                engine.stop()

        def spawn(tag):
            note(tag)
            engine.schedule(0.0, note, f"{tag}+0")  # exactly now
            engine.at(2.0, note, f"{tag}@2")  # exactly the next bound
            engine.call_at(engine.now + 5.0, note, f"{tag}+5")

        for i in range(3):  # cancelled heads, before any live event
            engine.schedule(0.1 * (i + 1), note, f"dead{i}").cancel()
        engine.schedule(0.5, note, "a")
        engine.schedule(1.0, spawn, "b")  # exactly at the first bound
        engine.schedule(1.0, note, "c")  # tie at the bound
        engine.schedule(1.0 + 1e-9, note, "dead-past-bound").cancel()
        engine.schedule(1.5, note, "d")
        engine.schedule(2.0, spawn, "e")
        late = engine.schedule(2.5, note, "dead-late")
        engine.schedule(2.25, late.cancel)  # cancelled from inside a callback
        engine.schedule(3.0, note, "f")
        engine.schedule(9.0, note, "g")

    def drive(self, runner, *, max_events=None, stop_at=None):
        engine = SimulationEngine()
        log: list = []
        self.populate(engine, log, stop_at=stop_at)
        trail = []
        for bound in (1.0, 1.0, 2.0, 2.0, 3.0, 4.0, 20.0):
            try:
                executed = runner(engine, bound, max_events)
            except SimulationError as error:
                # A capped window advanced the clock past events it left
                # queued; the next window must refuse to run them late.
                trail.append((bound, str(error), observable_state(engine), list(log)))
                break
            trail.append((bound, executed, observable_state(engine), list(log)))
            if engine._stopped:
                engine.reset_stop()
        return trail

    @staticmethod
    def run_until(engine, bound, max_events):
        return engine.run_until(bound, max_events=max_events)

    @pytest.mark.parametrize("max_events", [None, 0, 1, 3])
    def test_windows_agree(self, max_events):
        assert self.drive(self.run_until, max_events=max_events) == self.drive(
            run_until_by_steps, max_events=max_events
        )

    def test_capped_window_refuses_to_run_left_over_events_late(self):
        # max_events=1 leaves events <= 1.0 queued while the clock moves to
        # the bound; running them afterwards would move the clock backwards.
        trail = self.drive(self.run_until, max_events=1)
        assert trail[-1][1] == "event queue yielded an event from the past"

    @pytest.mark.parametrize("drain", [SimulationEngine.run, SimulationEngine.step])
    def test_refused_left_over_event_stays_queued(self, drain):
        engine = SimulationEngine()
        seen: list = []
        engine.schedule(0.5, seen.append, "early")
        engine.schedule(0.6, seen.append, "left over")
        assert engine.run_until(1.0, max_events=1) == 1
        assert engine.now == 1.0 and engine.pending_events == 1
        with pytest.raises(SimulationError, match="from the past"):
            drain(engine)
        # Refused, not lost: the event is still queued and nothing ran.
        assert seen == ["early"]
        assert engine.pending_events == 1 and engine.next_event_time() == 0.6
        assert engine.events_processed == 1

    @pytest.mark.parametrize("stop_at", [None, "a", "b", "e+0", "g"])
    def test_unbounded_run_agrees_with_stepping(self, stop_at):
        # run() with no bound has a loop of its own (_drain); it must match
        # step() by step() on the same queue, stop requests included.
        def by_run(engine):
            return engine.run()

        def by_steps(engine):
            executed = 0
            while not engine._stopped and engine.step():
                executed += 1
            return executed

        outcomes = []
        for drain in (by_run, by_steps):
            engine = SimulationEngine()
            log: list = []
            self.populate(engine, log, stop_at=stop_at)
            executed = drain(engine)
            outcomes.append((executed, observable_state(engine), log))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("stop_at", ["a", "b", "c", "e+0", "f"])
    def test_stop_from_inside_a_callback_agrees(self, stop_at):
        fast = self.drive(self.run_until, stop_at=stop_at)
        assert fast == self.drive(run_until_by_steps, stop_at=stop_at)
        # The window that stopped left the clock at the stopping event.
        stopped = next(entry for entry in fast if entry[3] and entry[3][-1][0] == stop_at)
        assert stopped[2][0] == stopped[3][-1][1]

    def test_events_at_exactly_the_bound_run_and_later_ones_wait(self):
        engine = SimulationEngine()
        log: list = []
        self.populate(engine, log)
        engine.run_until(1.0)
        assert [tag for tag, _ in log] == ["a", "b", "c", "b+0"]
        assert engine.now == 1.0
        # The cancelled head just past the bound was discarded on the way to
        # the first live event beyond it; that event went back on the queue.
        assert engine.next_event_time() == 1.5
        assert engine.cancelled_pending == 0

    def test_mass_cancellation_inside_windows_compacts_identically(self):
        def scenario(runner):
            engine = SimulationEngine()
            handles = [engine.schedule(1.0 + i * 1e-3, lambda: None) for i in range(400)]
            engine.schedule(0.5, lambda: [h.cancel() for h in handles[:300]])
            trail = []
            for bound in (0.4, 0.6, 1.2, 2.0):
                trail.append((runner(engine, bound, None), observable_state(engine)))
            return trail

        assert scenario(self.run_until) == scenario(run_until_by_steps)

    def test_run_and_step_share_the_loop(self):
        # run(max_events) ≡ that many step() calls, cancelled heads included.
        def scenario(drive):
            engine = SimulationEngine()
            log: list = []
            self.populate(engine, log)
            drive(engine)
            return observable_state(engine), log

        def by_run(engine):
            assert engine.run(max_events=4) == 4

        def by_step(engine):
            assert [engine.step() for _ in range(4)] == [True] * 4

        assert scenario(by_run) == scenario(by_step)
