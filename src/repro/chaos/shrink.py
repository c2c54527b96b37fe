"""Delta-debugging shrinker for failing fault schedules.

Given a schedule whose chaos run violates invariants, :func:`shrink`
searches for a smaller schedule that fails the *same* invariants, using
three passes looped to a fixpoint:

1. **Event removal** -- classic ddmin over the event list (crash/restart
   pairs are one atom: removing a crash without its restart would break
   structural sanity and change the failure being studied).
2. **Duration halving** -- per windowed event, halve the window while the
   failure kind is preserved, down to a floor.
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

from repro.faults.schedule import FaultEvent, FaultSchedule, NodeCrash, NodeRestart

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


# An "atom" is the removal unit: a lone event, or a crash+restart pair.
_Atom = Tuple[FaultEvent, ...]


def _atomize(events: Sequence[FaultEvent]) -> List[_Atom]:
    atoms: List[_Atom] = []
    pending: dict = {}
    for event in events:
        if isinstance(event, NodeCrash):
            pending.setdefault(event.node, []).append([event, None])
            atoms.append(None)  # placeholder keeps discovery order
            pending[event.node][-1].append(len(atoms) - 1)
        elif isinstance(event, NodeRestart):
            stack = pending.get(event.node)
            if stack:
                crash, _none, index = stack.pop(0)
                atoms[index] = (crash, event)
            else:
                atoms.append((event,))
        else:
            atoms.append((event,))
    # Crashes with no restart stay single-event atoms.
    for index, atom in enumerate(atoms):
        if atom is None:
            atoms[index] = ()
    for stacks in pending.values():
        for crash, _none, index in stacks:
            atoms[index] = (crash,)
    return [atom for atom in atoms if atom]


def _flatten(atoms: Sequence[_Atom]) -> FaultSchedule:
    events: List[FaultEvent] = []
    for atom in atoms:
        events.extend(atom)
    return FaultSchedule(events)


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

    def still_fails(self, schedule: FaultSchedule, kinds: Tuple[str, ...]):
        report = self.run(schedule)
        if report is None:
            return None
        if tuple(report.violated_invariants()) == kinds:
            return report
        return None


def _ddmin(session: _Session, atoms: List[_Atom], kinds) -> Tuple[List[_Atom], object]:
    """Standard ddmin over atoms; returns (minimal atoms, last failing report)."""
    best_report = None
    granularity = 2
    while len(atoms) >= 2:
        chunk = max(1, math.ceil(len(atoms) / granularity))
        reduced = False
        start = 0
        while start < len(atoms):
            candidate = atoms[:start] + atoms[start + chunk :]
            if not candidate:
                start += chunk
                continue
            report = session.still_fails(_flatten(candidate), kinds)
            if session.exhausted:
                return atoms, best_report
            if report is not None:
                atoms = candidate
                best_report = report
                granularity = max(granularity - 1, 2)
                reduced = True
                break
            start += chunk
        if not reduced:
            if chunk <= 1:
                break
            granularity = min(len(atoms), granularity * 2)
    return atoms, best_report


def _replace_in_atom(atom: _Atom, index: int, event: FaultEvent) -> _Atom:
    out = list(atom)
    out[index] = event
    return tuple(out)


def _halve_durations(
    session: _Session, atoms: List[_Atom], kinds, *, min_duration: float
) -> Tuple[List[_Atom], object, bool]:
    best_report = None
    changed = False
    for i, atom in enumerate(atoms):
        for j, event in enumerate(atom):
            if isinstance(event, (NodeCrash, NodeRestart)):
                continue
            duration = getattr(event, "duration", None)
            if duration is None:
                continue
            while duration / 2.0 >= min_duration:
                halved = round(duration / 2.0, 3)
                trial = dataclasses.replace(event, duration=halved)
                candidate = list(atoms)
                candidate[i] = _replace_in_atom(atom, j, trial)
                report = session.still_fails(_flatten(candidate), kinds)
                if session.exhausted:
                    return atoms, best_report, changed
                if report is None:
                    break
                atoms = candidate
                atom = atoms[i]
                event = trial
                duration = halved
                best_report = report
                changed = True
        # Crash/restart pairs: shrink the outage window by pulling the
        # restart toward the crash.
        if len(atom) == 2 and isinstance(atom[0], NodeCrash) and isinstance(atom[1], NodeRestart):
            crash, restart = atom
            while (restart.at - crash.at) / 2.0 >= min_duration:
                halved_at = round(crash.at + (restart.at - crash.at) / 2.0, 3)
                trial = dataclasses.replace(restart, at=halved_at)
                candidate = list(atoms)
                candidate[i] = (crash, trial)
                report = session.still_fails(_flatten(candidate), kinds)
                if session.exhausted:
                    return atoms, best_report, changed
                if report is None:
                    break
                atoms = candidate
                atom = atoms[i]
                restart = trial
                best_report = report
                changed = True
    return atoms, best_report, changed


def _candidate_times(atoms: Sequence[_Atom], current: float) -> List[float]:
    """Earlier times to try for one event: zero, whole seconds, boundaries."""
    times = {0.0, float(math.floor(current))}
    for atom in atoms:
        for event in atom:
            times.add(event.at)
            duration = getattr(event, "duration", None)
            if duration is not None:
                times.add(round(event.at + duration, 3))
    return sorted(t for t in times if 0.0 <= t < current)


def _align_times(session: _Session, atoms: List[_Atom], kinds) -> Tuple[List[_Atom], object, bool]:
    best_report = None
    changed = False
    for i in range(len(atoms)):
        atom = atoms[i]
        anchor = atom[0]
        for target in _candidate_times(atoms, anchor.at):
            shift = round(target - anchor.at, 3)
            moved = tuple(
                dataclasses.replace(event, at=round(event.at + shift, 3)) for event in atom
            )
            if any(event.at < 0 for event in moved):
                continue
            candidate = list(atoms)
            candidate[i] = moved
            report = session.still_fails(_flatten(candidate), kinds)
            if session.exhausted:
                return atoms, best_report, changed
            if report is not None:
                atoms = candidate
                best_report = report
                changed = True
                break  # earliest accepted target wins for this atom
    return atoms, best_report, changed


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

    atoms = _atomize(schedule.events)
    best_report = baseline

    while True:
        before = _flatten(atoms).events
        atoms, report = _ddmin(session, atoms, kinds)
        if report is not None:
            best_report = report
        atoms, report, _changed = _halve_durations(
            session, atoms, kinds, min_duration=min_duration
        )
        if report is not None:
            best_report = report
        atoms, report, _changed = _align_times(session, atoms, kinds)
        if report is not None:
            best_report = report
        if session.exhausted or _flatten(atoms).events == before:
            break

    minimized = _flatten(atoms)
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
