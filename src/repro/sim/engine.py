"""Core discrete-event simulation engine.

The engine maintains a priority queue of timestamped events and a virtual
clock.  It is intentionally minimal: components interact with it only
through :meth:`SimulationEngine.schedule` / :meth:`SimulationEngine.at`
(to enqueue callbacks) and :meth:`SimulationEngine.run` /
:meth:`SimulationEngine.run_until` (to drive the loop).

The engine is single threaded and deterministic.  Ties in event time are
broken by a monotonically increasing sequence number, so two runs with the
same seed and the same call ordering produce identical traces.

Hot-path design notes
---------------------
The queue stores plain ``(time, seq, event)`` tuples so heap sifting
compares C-level floats/ints instead of calling a Python ``__lt__`` (the
unique ``seq`` guarantees the :class:`Event` object itself is never
compared).  Fired events are recycled through a bounded free-list; a
``generation`` counter on each event keeps stale :class:`EventHandle`\\ s
from cancelling a recycled slot.  Cancelled events are compacted out of the
queue once they outnumber half of it (the strategy asyncio uses for timer
handles), so workloads that cancel most of their timeouts -- every
completed read/write cancels one -- do not pay heap costs for dead entries.
"""

from __future__ import annotations

import functools
import heapq
from typing import Any, Callable, Iterable, List, Optional, Tuple

__all__ = ["Event", "EventHandle", "SimulationEngine", "SimulationError"]

#: Cancelled events are purged from the queue once they exceed both this
#: floor and half the queue length (mirrors asyncio's timer compaction).
_COMPACTION_FLOOR = 64

#: Maximum number of fired Event objects kept for reuse.
_FREE_LIST_MAX = 4096

#: "No bound" on the event loop's time...
_FOREVER = float("inf")
#: ...and on its event count: the loop counts its budget *down* and stops at
#: zero, which a count starting below zero never reaches.
_NO_LIMIT = -1


class SimulationError(RuntimeError):
    """Raised when the engine is used incorrectly.

    Examples include scheduling an event in the past or running an engine
    that has already been stopped with an unrecoverable callback error.
    """


class Event:
    """A single scheduled callback.

    Attributes
    ----------
    time:
        Virtual time (seconds) at which the callback fires.
    seq:
        Tie-breaking sequence number; earlier-scheduled events with the same
        timestamp run first.
    callback / args:
        Callable invoked as ``callback(*args)`` when the event fires.
        Positional arguments are stored on the event itself, so the common
        ``schedule(delay, fn, arg)`` case needs no binding closure (keyword
        arguments still close over a ``functools.partial``).
    cancelled:
        Set by :meth:`EventHandle.cancel`; cancelled events are skipped.
    generation:
        Incremented every time the object is recycled through the engine's
        free-list; handles remember the generation they were issued for so a
        stale handle can never cancel a reused slot.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "label", "generation")

    def __init__(
        self,
        time: float = 0.0,
        seq: int = 0,
        callback: Optional[Callable[..., None]] = None,
        cancelled: bool = False,
        label: str = "",
        args: Tuple[Any, ...] = (),
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = cancelled
        self.label = label
        self.generation = 0

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, seq={self.seq}, {state}, {self.label!r})"


class EventHandle:
    """Opaque handle returned by the scheduling API.

    A handle allows the caller to cancel a pending event (for example a
    timeout that is no longer needed because the awaited response arrived).
    """

    __slots__ = ("_event", "_generation", "_engine")

    def __init__(self, event: Event, engine: Optional["SimulationEngine"] = None) -> None:
        self._event = event
        self._generation = event.generation
        self._engine = engine

    @property
    def time(self) -> float:
        """Virtual time at which the event will fire (if not cancelled)."""
        return self._event.time

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called on this handle."""
        if self._event.generation != self._generation:
            # The event fired and its slot was recycled; this handle's event
            # is gone, which can only happen after it ran un-cancelled.
            return False
        return self._event.cancelled

    def cancel(self) -> None:
        """Prevent the event from firing.

        Cancelling an event that already fired or was already cancelled is a
        no-op; the engine simply skips cancelled entries when it pops them.
        """
        event = self._event
        if event.generation != self._generation or event.cancelled:
            return
        event.cancelled = True
        event.callback = None  # release the closure right away
        event.args = ()
        if self._engine is not None:
            self._engine._event_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self._event.time:.6f}, {state}, {self._event.label!r})"


class SimulationEngine:
    """Deterministic single-threaded discrete-event loop.

    Parameters
    ----------
    start_time:
        Initial virtual time.  Defaults to ``0.0`` seconds.

    Examples
    --------
    >>> engine = SimulationEngine()
    >>> fired = []
    >>> _ = engine.schedule(1.5, fired.append, "hello")
    >>> engine.run()
    >>> fired, engine.now
    (['hello'], 1.5)
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue: List[Tuple[float, int, Event]] = []
        self._seq = 0
        self._stopped = False
        self._events_processed = 0
        self._cancelled_pending = 0
        self._compactions = 0
        self._free: List[Event] = []

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far (cancelled events excluded)."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of events still in the queue (including cancelled ones)."""
        return len(self._queue)

    @property
    def cancelled_pending(self) -> int:
        """Cancelled events still occupying queue slots (awaiting compaction)."""
        return self._cancelled_pending

    @property
    def compactions(self) -> int:
        """Times the queue was compacted to purge cancelled events."""
        return self._compactions

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _new_event(
        self,
        time: float,
        callback: Callable[..., None],
        label: str,
        args: Tuple[Any, ...] = (),
    ) -> Event:
        """Take an event from the free-list (or allocate) and enqueue it."""
        free = self._free
        if free:
            event = free.pop()
            event.time = time
            event.callback = callback
            event.args = args
            event.cancelled = False
            event.label = label
        else:
            event = Event(time=time, callback=callback, label=label, args=args)
        seq = self._seq
        self._seq = seq + 1
        event.seq = seq
        heapq.heappush(self._queue, (time, seq, event))
        return event

    def _recycle(self, event: Event) -> None:
        """Return a fired/purged event to the free-list."""
        event.generation += 1
        event.callback = None
        event.args = ()
        if len(self._free) < _FREE_LIST_MAX:
            self._free.append(event)

    def _event_cancelled(self) -> None:
        """Called by :meth:`EventHandle.cancel`; triggers compaction when the
        queue is mostly dead weight."""
        self._cancelled_pending += 1
        if (
            self._cancelled_pending > _COMPACTION_FLOOR
            and self._cancelled_pending * 2 > len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the queue without cancelled entries (one O(n) pass).

        The queue list is mutated in place (slice assignment + heapify)
        rather than replaced: the loop in :meth:`_dispatch` holds a local
        alias to it, and compaction can run from inside an event callback.
        """
        queue = self._queue
        live = []
        for entry in queue:
            event = entry[2]
            if event.cancelled:
                self._recycle(event)
            else:
                live.append(entry)
        queue[:] = live
        heapq.heapify(queue)
        self._cancelled_pending = 0
        self._compactions += 1

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        label: str = "",
        **kwargs: Any,
    ) -> EventHandle:
        """Schedule ``callback(*args, **kwargs)`` to run ``delay`` seconds from now.

        ``delay`` must be non-negative; a zero delay schedules the callback
        for the current instant but it will only run once control returns to
        the event loop (events never run re-entrantly).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule an event {delay!r}s in the past")
        if kwargs:
            callback = functools.partial(callback, *args, **kwargs)
            args = ()
        event = self._new_event(self._now + delay, callback, label, args)
        return EventHandle(event, self)

    def schedule_after(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        label: str = "",
        handle: bool = True,
    ) -> Optional[EventHandle]:
        """Fast-path :meth:`schedule`: positional args only, optional handle.

        The hot paths (message delivery, replica service completion, client
        wake-ups) use this so each simulated event costs one free-list pop
        and one heap push; with ``handle=False`` no :class:`EventHandle` is
        allocated and the event cannot be cancelled.  The body of
        :meth:`_new_event` is inlined -- this is called once or more per
        simulated event.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule an event {delay!r}s in the past")
        time = self._now + delay
        free = self._free
        if free:
            event = free.pop()
            event.time = time
            event.callback = callback
            event.args = args
            event.cancelled = False
            event.label = label
        else:
            event = Event(time=time, callback=callback, label=label, args=args)
        seq = self._seq
        self._seq = seq + 1
        event.seq = seq
        heapq.heappush(self._queue, (time, seq, event))
        if handle:
            return EventHandle(event, self)
        return None

    def _schedule_unhandled_at(self, time: float, callback: Callable[[], None]) -> None:
        """Cheapest scheduling path: no handle is created, so the event cannot
        be cancelled.  Reserved for internal fire-and-forget work (the shared
        timer queues' wake-ups).  Takes an *absolute* time: a timer queue
        compares its deadlines against the clock with ``<=``, so the wake-up
        must fire at exactly the stored float (re-deriving it from a delay
        would round and can undershoot by one ulp, leaving the queue head
        marooned just beyond the clock)."""
        self._new_event(time, callback, "")

    def at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        label: str = "",
        **kwargs: Any,
    ) -> EventHandle:
        """Schedule ``callback`` at an absolute virtual time.

        Scheduling at a time earlier than :attr:`now` raises
        :class:`SimulationError` -- silent reordering of the past is a bug in
        the caller, never something the engine should paper over.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time!r}, which is before the current time {self._now!r}"
            )
        if kwargs:
            callback = functools.partial(callback, *args, **kwargs)
            args = ()
        event = self._new_event(float(time), callback, label, args)
        return EventHandle(event, self)

    def call_soon(self, callback: Callable[..., None], *args: Any, **kwargs: Any) -> EventHandle:
        """Schedule ``callback`` at the current virtual time (runs after the
        currently executing event returns)."""
        return self.schedule(0.0, callback, *args, **kwargs)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _dispatch(self, until: float, limit: int) -> int:
        """The event loop: pop, dispatch, recycle -- the one copy of it.

        Executes up to ``limit`` (positive, or ``_NO_LIMIT``) events whose
        time is ``<= until`` and returns how many ran.  Cancelled heads are
        discarded (whatever their time) without counting; the first live event
        beyond ``until`` goes back on the queue.  A :meth:`stop` request ends
        the loop after the event that made it; a request made before the call
        does not (callers check).  This is where the whole simulation spends
        its wall time, so the free-list recycling is inlined rather than
        calling :meth:`_recycle` per event.  :meth:`_compact` mutates the
        queue list in place, so the local alias stays valid across callbacks.
        """
        queue = self._queue
        free = self._free
        heappop = heapq.heappop
        budget = limit
        try:
            while queue:
                entry = heappop(queue)
                event = entry[2]
                if event.cancelled:
                    self._cancelled_pending -= 1
                    event.generation += 1
                    event.args = ()
                    if len(free) < _FREE_LIST_MAX:
                        free.append(event)
                    continue
                time = entry[0]
                if time > until:
                    heapq.heappush(queue, entry)
                    break
                if time < self._now:
                    # Reachable: run_until(max_events=...) advances the clock
                    # to its bound even when the cap left earlier events
                    # queued.  The event goes back: refusing it loses nothing.
                    heapq.heappush(queue, entry)
                    raise SimulationError("event queue yielded an event from the past")
                self._now = time
                callback = event.callback
                args = event.args
                event.generation += 1
                event.callback = None
                event.args = ()
                if len(free) < _FREE_LIST_MAX:
                    free.append(event)
                if args:
                    callback(*args)
                else:
                    callback()
                budget -= 1
                if not budget or self._stopped:
                    break
        finally:
            executed = limit - budget
            self._events_processed += executed
        return executed

    def step(self) -> bool:
        """Execute the next pending event.

        Returns ``True`` if an event was executed, ``False`` if the queue is
        empty (cancelled events are discarded without counting as a step).
        """
        return self._dispatch(_FOREVER, 1) == 1

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the event queue is exhausted.

        Parameters
        ----------
        max_events:
            Optional safety valve; if given, stop after executing this many
            events even if the queue is not empty.

        Returns
        -------
        int
            The number of events executed by this call.
        """
        limit = _NO_LIMIT if max_events is None else max(max_events, 0)
        if self._stopped or not limit:
            return 0
        return self._dispatch(_FOREVER, limit)

    def run_until(self, time: float, max_events: Optional[int] = None) -> int:
        """Run events with timestamps ``<= time``; advance the clock to ``time``.

        Events scheduled beyond ``time`` remain queued, so simulations can be
        driven in successive windows (the Harmony monitoring loop and the
        experiment harness both rely on this).  The clock advances even when
        ``max_events`` left events ``<= time`` queued; those are then overdue,
        and the next call to run them raises :class:`SimulationError` rather
        than move the clock backwards (they stay queued).
        """
        if time < self._now:
            raise SimulationError(
                f"run_until({time!r}) would move the clock backwards from {self._now!r}"
            )
        limit = _NO_LIMIT if max_events is None else max(max_events, 0)
        executed = 0
        if limit and not self._stopped:
            executed = self._dispatch(time, limit)
        if not self._stopped:
            self._now = max(self._now, float(time))
        return executed

    def stop(self) -> None:
        """Request the running loop to stop after the current event."""
        self._stopped = True

    def reset_stop(self) -> None:
        """Clear a previous :meth:`stop` request so the engine can run again."""
        self._stopped = False

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    def _peek(self) -> Optional[Event]:
        """Return the next non-cancelled event without executing it."""
        queue = self._queue
        while queue:
            event = queue[0][2]
            if event.cancelled:
                heapq.heappop(queue)
                self._cancelled_pending -= 1
                self._recycle(event)
                continue
            return event
        return None

    def next_event_time(self) -> Optional[float]:
        """Virtual time of the next pending event, or ``None`` if idle."""
        event = self._peek()
        return None if event is None else event.time

    def drain(self) -> Iterable[Event]:
        """Remove and yield all pending events (used by tests and teardown)."""
        self._cancelled_pending = 0
        while self._queue:
            yield heapq.heappop(self._queue)[2]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimulationEngine(now={self._now:.6f}, pending={len(self._queue)}, "
            f"processed={self._events_processed})"
        )
