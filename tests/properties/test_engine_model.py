"""The engine ≡ a sorted-list reference model of its queue.

Hypothesis draws programs of ``schedule`` / ``at`` / ``call_soon`` /
``call_at`` / ``cancel`` calls, driven by ``run_until`` / ``step`` /
``run(max_events=)`` windows.  An event, when it fires, runs its own list of
such calls -- scheduling children, cancelling any handle issued so far
(itself included, once fired) and requesting a stop.  The same program runs
against :class:`SimulationEngine` and against :class:`Model`, which keeps
every queued ``(time, seq)`` entry in a sorted Python list and pops from its
front.  After each top-level call both must agree on the order and time of
every fired event, on the call's result (or error), and on ``now``,
``events_processed``, ``pending_events``, ``cancelled_pending`` and
``compactions``; ``next_event_time()`` is itself a drawn call.
"""

from __future__ import annotations

import bisect
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimulationEngine, SimulationError

#: Mirrors the engine's compaction rule: purge cancelled entries once they
#: exceed this floor and half the queue.
COMPACTION_FLOOR = 64


class _Entry:
    """One queued event of the model; also its handle."""

    def __init__(self, model: "Model", time: float, seq: int, callback) -> None:
        self.model = model
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def __lt__(self, other: "_Entry") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def cancel(self) -> None:
        if self.cancelled or self.callback is None:
            return
        self.cancelled = True
        self.callback = None
        model = self.model
        model.cancelled_pending += 1
        if (
            model.cancelled_pending > COMPACTION_FLOOR
            and model.cancelled_pending * 2 > len(model.queue)
        ):
            model.queue = [entry for entry in model.queue if not entry.cancelled]
            model.cancelled_pending = 0
            model.compactions += 1


class Model:
    """Reference engine: a sorted list of entries, popped from the front."""

    def __init__(self) -> None:
        self.now = 0.0
        self.queue: list = []
        self.seq = 0
        self.stopped = False
        self.events_processed = 0
        self.cancelled_pending = 0
        self.compactions = 0

    @property
    def pending_events(self) -> int:
        return len(self.queue)

    def _push(self, time: float, callback) -> _Entry:
        entry = _Entry(self, time, self.seq, callback)
        self.seq += 1
        bisect.insort(self.queue, entry)
        return entry

    def schedule(self, delay, callback):
        if delay < 0:
            raise SimulationError("past")
        return self._push(self.now + delay, callback)

    def at(self, time, callback):
        if time < self.now:
            raise SimulationError("past")
        return self._push(float(time), callback)

    def call_soon(self, callback):
        return self.schedule(0.0, callback)

    def call_at(self, time, callback):
        if time < self.now:
            raise SimulationError("past")
        self._push(time, callback)

    def _dispatch(self, until: float, limit: int) -> int:
        ran = 0
        while self.queue and ran != limit:
            head = self.queue.pop(0)
            if head.cancelled:
                self.cancelled_pending -= 1
                continue
            if head.time > until or head.time < self.now:
                bisect.insort(self.queue, head)
                if head.time > until:
                    break
                raise SimulationError("event queue yielded an event from the past")
            self.now = head.time
            callback, head.callback = head.callback, None
            self.events_processed += 1
            ran += 1
            callback()
            if self.stopped:
                break
        return ran

    def step(self) -> bool:
        return self._dispatch(float("inf"), 1) == 1

    def run(self, max_events=None) -> int:
        limit = -1 if max_events is None else max(max_events, 0)
        if self.stopped or not limit:
            return 0
        return self._dispatch(float("inf"), limit)

    def run_until(self, time, max_events=None) -> int:
        if time < self.now:
            raise SimulationError("backwards")
        limit = -1 if max_events is None else max(max_events, 0)
        executed = 0
        if limit and not self.stopped:
            executed = self._dispatch(time, limit)
        if not self.stopped:
            self.now = max(self.now, float(time))
        return executed

    def stop(self) -> None:
        self.stopped = True

    def reset_stop(self) -> None:
        self.stopped = False

    def next_event_time(self):
        while self.queue and self.queue[0].cancelled:
            self.queue.pop(0)
            self.cancelled_pending -= 1
        return self.queue[0].time if self.queue else None


class Driver:
    """Runs one program against an engine or a model and records what it saw."""

    def __init__(self, engine) -> None:
        self.engine = engine
        self.handles: list = []
        self.tags = itertools.count()
        self.log: list = []

    def _callback(self, children):
        tag = next(self.tags)

        def fire():
            self.log.append(("fire", tag, self.engine.now))
            for call in children:
                self.call(call)

        return fire

    def call(self, call):
        """One scheduling / cancelling / stopping call."""
        kind, value, children = call
        engine = self.engine
        if kind == "schedule":
            self.handles.append(engine.schedule(value, self._callback(children)))
        elif kind == "at":
            self.handles.append(engine.at(engine.now + value, self._callback(children)))
        elif kind == "call_soon":
            self.handles.append(engine.call_soon(self._callback(children)))
        elif kind == "call_at":
            assert engine.call_at(engine.now + value, self._callback(children)) is None
        elif kind == "cancel":
            if self.handles:
                self.handles[value % len(self.handles)].cancel()
        elif kind == "cancel_all":
            for handle in self.handles:
                handle.cancel()
        elif kind == "burst":  # enough handles for cancels to force a compaction
            for i in range(value):
                self.handles.append(engine.schedule(0.25 * (i % 5), self._callback(())))
        elif kind == "stop":
            engine.stop()
        else:
            raise AssertionError(kind)

    def drive(self, step):
        """One top-level call; returns its result or the error it raised."""
        kind, value, max_events = step
        engine = self.engine
        try:
            if kind == "run_until":
                return engine.run_until(engine.now + value, max_events=max_events)
            if kind == "run":
                return engine.run(max_events=max_events)
            if kind == "step":
                return engine.step()
            if kind == "reset_stop":
                return engine.reset_stop()
            if kind == "next_event_time":
                return engine.next_event_time()
            return self.call((kind, value, max_events))
        except SimulationError as error:
            return ("error", "from the past" in str(error))

    def play(self, program):
        for step in program:
            result = self.drive(step)
            engine = self.engine
            self.log.append(
                (
                    step[0],
                    result,
                    engine.now,
                    engine.events_processed,
                    engine.pending_events,
                    engine.cancelled_pending,
                    engine.compactions,
                )
            )
        return self.log


DELAYS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0])

#: Calls an event makes when it fires (never in the past: an error raised
#: inside a callback is the caller's bug, not a queue property).
children = st.deferred(
    lambda: st.lists(
        st.one_of(
            st.tuples(st.sampled_from(["schedule", "at", "call_at"]), DELAYS, children),
            st.tuples(st.just("call_soon"), st.just(0.0), children),
            st.tuples(st.just("cancel"), st.integers(0, 200), st.just(())),
            st.tuples(st.just("stop"), st.just(0), st.just(())),
        ),
        max_size=3,
    )
)

MAX_EVENTS = st.one_of(st.none(), st.integers(0, 4))

#: Top-level calls: scheduling (``at`` / ``call_at`` may reach into the past),
#: cancels, bursts, and the loop drivers.
top_level = st.one_of(
    st.tuples(st.sampled_from(["schedule", "call_soon"]), DELAYS, children),
    st.tuples(st.sampled_from(["at", "call_at"]), st.sampled_from([-0.5, 0.0, 0.5, 1.0]), children),
    st.tuples(st.just("cancel"), st.integers(0, 200), st.just(())),
    st.tuples(st.just("cancel_all"), st.just(0), st.just(())),
    st.tuples(st.just("burst"), st.integers(60, 140), st.just(())),
    st.tuples(st.just("run_until"), st.sampled_from([-0.5, 0.0, 0.25, 1.0, 3.0]), MAX_EVENTS),
    st.tuples(st.just("run"), st.just(0), MAX_EVENTS),
    st.tuples(st.sampled_from(["step", "reset_stop", "next_event_time"]), st.just(0), st.none()),
)


@given(program=st.lists(top_level, max_size=25))
@settings(max_examples=40, deadline=None)
def test_engine_matches_the_sorted_list_model(program):
    assert Driver(SimulationEngine()).play(program) == Driver(Model()).play(program)


def test_the_model_sees_compaction_and_cancels_from_callbacks():
    # Pins that the strategies' corner cases are reachable: a burst cancelled
    # wholesale compacts, and an event cancels a handle issued before it.
    program = [
        ("schedule", 1.0, [("cancel", 0, ())]),
        ("burst", 100, ()),
        ("cancel_all", 0, ()),
        ("schedule", 0.5, [("cancel", 102, ()), ("stop", 0, ())]),
        ("schedule", 0.5, []),
        ("run", 0, None),
        ("reset_stop", 0, None),
        ("run_until", 3.0, None),
    ]
    log = Driver(SimulationEngine()).play(program)
    assert log == Driver(Model()).play(program)
    assert log[2][-1] == 1  # compactions after cancel_all
    assert [entry[1] for entry in log if entry[0] == "fire"] == [101]
