"""Shared fixed-delay timer queues: timeouts without per-operation events.

Every coordinator operation used to arm its own engine event as a timeout
and cancel it on completion -- one heap push, one cancellation and (later)
one compaction slot per operation, for an event that fires almost never.
At 10^4+ operations per wall-second that bookkeeping is pure overhead.

:class:`FixedDelayTimer` exploits the one structural fact about these
timeouts: within one queue the delay is a *constant* (a coordinator's
``read_timeout`` / ``write_timeout``), so deadlines are appended in
monotonically non-decreasing order and a plain FIFO deque replaces the
heap.  The queue keeps **at most one** engine event armed -- at the exact
deadline of the entry at its head -- and when that event fires it:

1. drops every cancelled entry it meets at the head (completed operations);
2. fires, at exact deadlines, the live entries that are due;
3. re-arms a single event at the next live entry's deadline, if any.

In a healthy run nearly every entry is cancelled long before its deadline,
so the armed event fires a handful of times per simulated second, discards
thousands of dead entries in one pass, and the per-operation cost is an
``append`` plus an attribute store on cancel.  Firing times are *exact*
(the armed event is scheduled at the stored absolute deadline, never
re-derived from a delay), so a timeout that does fire behaves precisely
like the dedicated event it replaces.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque

from repro.sim.engine import SimulationEngine, SimulationError

__all__ = ["TimerEntry", "FixedDelayTimer"]


class TimerEntry:
    """One pending timeout; ``cancel()`` is O(1) and never touches the engine."""

    __slots__ = ("deadline", "fn", "arg")

    def __init__(self, deadline: float, fn: Callable[[Any], None], arg: Any) -> None:
        self.deadline = deadline
        self.fn = fn
        self.arg = arg

    @property
    def cancelled(self) -> bool:
        return self.fn is None

    def cancel(self) -> None:
        """Prevent the entry from firing (idempotent)."""
        self.fn = None
        self.arg = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.fn is None else "pending"
        return f"TimerEntry(t={self.deadline:.6f}, {state})"


class FixedDelayTimer:
    """A queue of timeouts that all share one fixed delay.

    Because the delay is constant and virtual time is monotone, entries are
    naturally ordered by deadline; the queue therefore needs no heap and at
    most one armed engine event (for the head's exact deadline).
    """

    __slots__ = ("_engine", "delay", "_entries", "_armed", "fired", "swept")

    def __init__(self, engine: SimulationEngine, delay: float) -> None:
        if delay <= 0:
            raise SimulationError(f"timer delay must be positive, got {delay!r}")
        self._engine = engine
        self.delay = float(delay)
        self._entries: Deque[TimerEntry] = deque()
        self._armed = False
        #: Live entries whose callback actually ran (observability/tests).
        self.fired = 0
        #: Cancelled entries discarded without firing.
        self.swept = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def armed(self) -> bool:
        """Whether an engine event is currently scheduled for this queue."""
        return self._armed

    def schedule(self, fn: Callable[[Any], None], arg: Any = None) -> TimerEntry:
        """Arrange ``fn(arg)`` to run ``delay`` seconds from now.

        Returns the entry; call :meth:`TimerEntry.cancel` to disarm it.
        Cancelled entries at the head are dropped here rather than kept until
        the armed event fires, which would hold a whole timeout window of
        them; the armed event still fires at its time and re-arms at the
        first live deadline, so the engine sees the same events.
        """
        entries = self._entries
        while entries and entries[0].fn is None:
            entries.popleft()
            self.swept += 1
        entry = TimerEntry(self._engine._now + self.delay, fn, arg)
        entries.append(entry)
        if not self._armed:
            self._armed = True
            # Absolute-time, handle-free scheduling: the wake-up must fire at
            # exactly the stored deadline float (same rule as the fabric's
            # link wake-ups) and is never cancelled -- re-arming happens only
            # after a fire, so there is always at most one event in flight.
            self._engine._schedule_unhandled_at(entry.deadline, self._fire)
        return entry

    def _fire(self) -> None:
        entries = self._entries
        now = self._engine.now
        while entries:
            head = entries[0]
            fn = head.fn
            if fn is None:
                entries.popleft()
                self.swept += 1
                continue
            if head.deadline > now:
                break
            entries.popleft()
            head.fn = None
            self.fired += 1
            fn(head.arg)
        # Callbacks may have appended new entries; their deadlines are
        # strictly in the future (now + delay), so the head is still the
        # earliest live deadline.
        if entries:
            self._engine._schedule_unhandled_at(entries[0].deadline, self._fire)
        else:
            self._armed = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FixedDelayTimer(delay={self.delay}, pending={len(self._entries)}, "
            f"fired={self.fired}, swept={self.swept})"
        )
