"""Delta-debugging shrinker for failing fault schedules.

Given a schedule whose chaos run violates invariants, :func:`shrink`
searches for a smaller schedule that fails the *same* invariants, using
three passes looped to a fixpoint:

1. **Event removal** -- classic ddmin over the event list.  Each event is
   one removal unit: a windowed fault (a crash with its restart, a
   partition with its heal) is one event, so it goes as a whole.
2. **Duration halving** -- per windowed event, halve the window while the
   failure kind is preserved, down to a floor (for a crash, the restart
   moves toward the crash).
3. **Time alignment** -- pull events earlier: to time zero, to whole
   seconds, and onto other events' start/end boundaries.  Earlier-only
   moves monotonically shrink the horizon, so the pass terminates.

Verdict trust
-------------
Every verdict rests on the replay being deterministic.  The shrinker
re-runs the baseline schedule and the final minimized schedule and
compares :meth:`~repro.chaos.replay.ChaosReport.signature` (the SHA-256
fold of the run's phase hashes); a mismatch
raises :class:`NondeterministicReplayError` instead of silently shrinking
around flaky behaviour.

A candidate counts as "still failing" only when its violated-invariant
set equals the baseline's -- shrinking must not wander from one failure
kind to a different one.

``run_fn`` is any ``FaultSchedule -> report`` callable whose report has
``violated_invariants()`` and ``signature()``; production code passes a
:func:`~repro.chaos.replay.run_chaos` closure, the unit tests a cheap
stub.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from repro.faults.schedule import FaultEvent, FaultSchedule

__all__ = ["NondeterministicReplayError", "ShrinkResult", "shrink"]


class NondeterministicReplayError(RuntimeError):
    """Two runs of the same schedule produced different trace signatures."""


@dataclass
class ShrinkResult:
    """Outcome of a shrink: the 1-minimal schedule plus bookkeeping."""

    schedule: FaultSchedule
    report: object
    runs: int
    baseline_kinds: Tuple[str, ...]
    exhausted: bool = False


class _Session:
    def __init__(self, run_fn: Callable[[FaultSchedule], object], max_runs: int) -> None:
        self.run_fn = run_fn
        self.max_runs = max_runs
        self.runs = 0
        self.exhausted = False

    def run(self, schedule: FaultSchedule):
        if self.runs >= self.max_runs:
            self.exhausted = True
            return None
        self.runs += 1
        return self.run_fn(schedule)

    def still_fails(self, events: List[FaultEvent], kinds: Tuple[str, ...]) -> bool:
        report = self.run(FaultSchedule(events))
        return report is not None and tuple(report.violated_invariants()) == kinds


def _ddmin(session: _Session, events: List[FaultEvent], kinds) -> List[FaultEvent]:
    """Standard ddmin over events; returns the minimal events."""
    granularity = 2
    while len(events) >= 2:
        chunk = max(1, math.ceil(len(events) / granularity))
        reduced = False
        start = 0
        while start < len(events):
            candidate = events[:start] + events[start + chunk :]
            if not candidate:
                start += chunk
                continue
            fails = session.still_fails(candidate, kinds)
            if session.exhausted:
                return events
            if fails:
                events = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
                break
            start += chunk
        if not reduced:
            if chunk <= 1:
                break
            granularity = min(len(events), granularity * 2)
    return events


def _halve_durations(
    session: _Session, events: List[FaultEvent], kinds, *, min_duration: float
) -> List[FaultEvent]:
    for i, event in enumerate(events):
        duration = getattr(event, "duration", None)
        if duration is None:
            continue
        while duration / 2.0 >= min_duration:
            halved = round(duration / 2.0, 3)
            trial = dataclasses.replace(event, duration=halved)
            candidate = list(events)
            candidate[i] = trial
            fails = session.still_fails(candidate, kinds)
            if session.exhausted:
                return events
            if not fails:
                break
            events = candidate
            event = trial
            duration = halved
    return events


def _candidate_times(events: Sequence[FaultEvent], current: float) -> List[float]:
    """Earlier times to try for one event: zero, whole seconds, boundaries."""
    times = {0.0, float(math.floor(current))}
    for event in events:
        times.add(event.at)
        duration = getattr(event, "duration", None)
        if duration is not None:
            times.add(round(event.at + duration, 3))
    return sorted(t for t in times if 0.0 <= t < current)


def _align_times(session: _Session, events: List[FaultEvent], kinds) -> List[FaultEvent]:
    for i in range(len(events)):
        event = events[i]
        for target in _candidate_times(events, event.at):
            candidate = list(events)
            candidate[i] = dataclasses.replace(event, at=target)
            fails = session.still_fails(candidate, kinds)
            if session.exhausted:
                return events
            if fails:
                events = candidate
                break  # earliest accepted target wins for this event
    return events


def shrink(
    schedule: FaultSchedule,
    run_fn: Callable[[FaultSchedule], object],
    *,
    max_runs: int = 400,
    min_duration: float = 0.25,
) -> ShrinkResult:
    """Minimize ``schedule`` while it keeps failing the same invariants.

    Raises :class:`ValueError` if the schedule does not fail at all, and
    :class:`NondeterministicReplayError` if either the baseline or the
    final minimized schedule fails to replay trace-identically.
    """
    session = _Session(run_fn, max_runs)

    baseline = session.run(schedule)
    if baseline is None:
        raise ValueError("max_runs too small to even run the baseline")
    replayed = session.run(schedule)
    if replayed is not None and replayed.signature() != baseline.signature():
        raise NondeterministicReplayError(
            f"baseline replay diverged: {baseline.signature()} != {replayed.signature()}"
        )
    kinds = tuple(baseline.violated_invariants())
    if not kinds:
        raise ValueError("schedule does not violate any invariant; nothing to shrink")

    events = list(schedule.events)
    while True:
        before = events
        events = _ddmin(session, events, kinds)
        events = _halve_durations(session, events, kinds, min_duration=min_duration)
        events = _align_times(session, events, kinds)
        if session.exhausted or events == before:
            break

    minimized = FaultSchedule(events)
    final = session.run_fn(minimized)  # always allowed: the closing verification
    confirm = session.run_fn(minimized)
    if final.signature() != confirm.signature():
        raise NondeterministicReplayError(
            f"minimized replay diverged: {final.signature()} != {confirm.signature()}"
        )
    if tuple(final.violated_invariants()) != kinds:
        # Extremely defensive: the last accepted candidate must still fail.
        raise NondeterministicReplayError(
            "minimized schedule no longer reproduces the baseline failure "
            f"({final.violated_invariants()} != {kinds})"
        )
    session.runs += 2
    return ShrinkResult(
        schedule=minimized,
        report=final,
        runs=session.runs,
        baseline_kinds=kinds,
        exhausted=session.exhausted,
    )
