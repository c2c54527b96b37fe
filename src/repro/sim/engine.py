"""Core discrete-event simulation engine.

The engine maintains a priority queue of timestamped events and a virtual
clock.  Components interact with it only through its four scheduling calls
and :meth:`SimulationEngine.run` / :meth:`SimulationEngine.run_until` /
:meth:`SimulationEngine.step` (to drive the loop):

* :meth:`~SimulationEngine.call_at` -- fire-and-forget at an absolute time;
  returns nothing and cannot be cancelled.  Every hot path (message
  delivery, service completion, timer-queue wake-ups, completion batches)
  uses it.
* :meth:`~SimulationEngine.schedule` (relative delay),
  :meth:`~SimulationEngine.at` (absolute time) and
  :meth:`~SimulationEngine.call_soon` (now) -- cancellable; each returns a
  one-shot :class:`EventHandle`.

One hot path skips even the ``call_at`` frame: the network fabric pushes
each message delivery onto the heap itself, through
:meth:`~SimulationEngine.lane` (the heap and its sequence counter), and owes
the one check ``call_at`` makes -- never a time before :attr:`now`.

The engine is single threaded and deterministic.  Ties in event time are
broken by a monotonically increasing sequence number, so two runs with the
same seed and the same call ordering produce identical traces.

Queue format
------------
The heap holds one kind of entry, ``(time, seq, callback, args)``; ``seq``
comes from one :func:`itertools.count`, shared with the :meth:`lane`.  A
fire-and-forget event stores its callback and argument tuple directly; a
cancellable one stores ``(time, seq, handle, None)`` and the handle holds
the callback, the args and ``cancelled``.  The unique ``seq`` means heap
sifting compares C-level floats/ints and never reaches the third field.  A
handle is used once: firing it clears its callback, and cancelling it is an
attribute store.  Cancelled entries are compacted out of the queue once
they outnumber half of it (the strategy asyncio uses for timer handles).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Iterator, List, Optional, Tuple

__all__ = ["EventHandle", "SimulationEngine", "SimulationError"]

#: Cancelled events are purged from the queue once they exceed both this
#: floor and half the queue length (mirrors asyncio's timer compaction).
_COMPACTION_FLOOR = 64

#: "No bound" on the event loop's time...
_FOREVER = float("inf")
#: ...and on its event count: the loop counts its budget *down* and stops at
#: zero, which a count starting below zero never reaches.
_NO_LIMIT = -1

_heappush = heapq.heappush
_heappop = heapq.heappop


class SimulationError(RuntimeError):
    """Raised when the engine is used incorrectly.

    Examples include scheduling an event in the past or running an engine
    that has already been stopped with an unrecoverable callback error.
    """


class EventHandle:
    """A cancellable scheduled callback, returned by ``schedule`` / ``at`` /
    ``call_soon``.

    The handle is the event: its queue entry is ``(time, seq, handle,
    None)``.  Once the event fires the handle's ``callback`` is ``None`` and
    :meth:`cancel` does nothing; a handle is never reused for another event.
    """

    __slots__ = ("time", "callback", "args", "cancelled", "_engine")

    def __init__(
        self,
        time: float,
        callback: Callable[..., None],
        args: Tuple[Any, ...],
        engine: "SimulationEngine",
    ) -> None:
        #: Virtual time at which the event fires (if not cancelled).
        self.time = time
        self.callback: Optional[Callable[..., None]] = callback
        self.args = args
        #: Whether :meth:`cancel` was called before the event fired.
        self.cancelled = False
        self._engine = engine

    def cancel(self) -> None:
        """Prevent the event from firing.

        Cancelling an event that already fired or was already cancelled is a
        no-op; the engine skips cancelled entries when it pops them.
        """
        if self.cancelled or self.callback is None:
            return
        self.cancelled = True
        self.callback = None  # release the closure right away
        self.args = ()
        self._engine._event_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.cancelled:
            state = "cancelled"
        else:
            state = "fired" if self.callback is None else "pending"
        return f"EventHandle(t={self.time:.6f}, {state})"


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
        self._queue: List[Tuple[float, int, Any, Optional[Tuple[Any, ...]]]] = []
        self._seq = itertools.count()
        self._stopped = False
        self._events_processed = 0
        self._cancelled_pending = 0
        self._compactions = 0

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
    def call_at(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` at absolute virtual ``time``; not cancellable.

        The event fires at exactly the float given, so a caller that compares
        a stored deadline against the clock with ``<=`` (the timer queues)
        wakes at that deadline, never one ulp short of it.  A relative-delay
        caller passes ``engine.now + delay``.  A time before :attr:`now`
        raises :class:`SimulationError`.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time!r}, which is before the current time {self._now!r}"
            )
        _heappush(self._queue, (time, next(self._seq), callback, args))

    def lane(self) -> Tuple[List[Any], Callable[[], int]]:
        """``(heap, next_seq)``: scheduling without a :meth:`call_at` frame.

        The caller pushes ``(time, next_seq(), callback, args)`` with
        :func:`heapq.heappush` -- exactly the entry :meth:`call_at` pushes --
        and owes the check :meth:`call_at` makes: ``time`` is never before
        :attr:`now`.  The message fabric's delivery is the one user; both
        objects stay valid for the engine's life (compaction rewrites the
        heap in place).
        """
        return self._queue, self._seq.__next__

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        ``delay`` must be non-negative; a zero delay schedules the callback
        for the current instant but it will only run once control returns to
        the event loop (events never run re-entrantly).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule an event {delay!r}s in the past")
        time = self._now + delay
        handle = EventHandle(time, callback, args, self)
        _heappush(self._queue, (time, next(self._seq), handle, None))
        return handle

    def at(self, time: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at an absolute virtual time.

        Scheduling at a time earlier than :attr:`now` raises
        :class:`SimulationError` -- silent reordering of the past is a bug in
        the caller, never something the engine should paper over.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time!r}, which is before the current time {self._now!r}"
            )
        time = float(time)
        handle = EventHandle(time, callback, args, self)
        _heappush(self._queue, (time, next(self._seq), handle, None))
        return handle

    def call_soon(self, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback`` at the current virtual time (runs after the
        currently executing event returns)."""
        return self.schedule(0.0, callback, *args)

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
        rather than replaced: both loops and the :meth:`lane` hold aliases
        to it, and compaction can run from inside an event callback.
        """
        queue = self._queue
        queue[:] = [entry for entry in queue if entry[3] is not None or not entry[2].cancelled]
        heapq.heapify(queue)
        self._cancelled_pending = 0
        self._compactions += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _dispatch(self, until: float, limit: int) -> int:
        """The bounded event loop: pop, dispatch (:meth:`_drain` is the
        unbounded one).

        Executes up to ``limit`` (positive, or ``_NO_LIMIT``) events whose
        time is ``<= until`` and returns how many ran.  Cancelled heads are
        discarded (whatever their time) without counting; the first live event
        beyond ``until`` goes back on the queue.  A :meth:`stop` request ends
        the loop after the event that made it; a request made before the call
        does not (callers check).  :meth:`_compact` mutates the queue list in
        place, so the local alias stays valid across callbacks.
        """
        queue = self._queue
        budget = limit
        try:
            while queue:
                entry = _heappop(queue)
                time, _, callback, args = entry
                if args is None and callback.cancelled:
                    self._cancelled_pending -= 1
                    continue
                if time > until:
                    _heappush(queue, entry)
                    break
                if time < self._now:
                    # Reachable: run_until(max_events=...) advances the clock
                    # to its bound even when the cap left earlier events
                    # queued.  The event goes back: refusing it loses nothing.
                    _heappush(queue, entry)
                    raise SimulationError("event queue yielded an event from the past")
                self._now = time
                if args is None:  # a handle's entry: it fires now, once
                    handle = callback
                    callback = handle.callback
                    args = handle.args
                    handle.callback = None
                    handle.args = ()
                callback(*args)
                budget -= 1
                if not budget or self._stopped:
                    break
        finally:
            executed = limit - budget
            self._events_processed += executed
        return executed

    def _drain(self) -> int:
        """:meth:`_dispatch` with no bound, for :meth:`run` without one.

        Per event it asks only whether the entry is a handle (a cancelled
        one is discarded uncounted) and whether :meth:`stop` was called.
        ``time > until`` cannot hold with no ``until``, and no budget is
        counted down.  The event-from-the-past check is made once, on the
        first live head: every push is at or after the clock and the clock
        only moves to popped times, so once the head is not overdue no later
        event is.
        """
        head = self.next_event_time()
        if head is not None and head < self._now:
            raise SimulationError("event queue yielded an event from the past")
        queue = self._queue
        executed = 0
        try:
            while queue:
                time, _, callback, args = _heappop(queue)
                if args is None:  # a handle's entry: it fires now, once
                    if callback.cancelled:
                        self._cancelled_pending -= 1
                        continue
                    handle = callback
                    callback = handle.callback
                    args = handle.args
                    handle.callback = None
                    handle.args = ()
                self._now = time
                callback(*args)
                executed += 1
                if self._stopped:
                    break
        finally:
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
        if self._stopped:
            return 0
        if max_events is None:
            return self._drain()
        if max_events <= 0:
            return 0
        return self._dispatch(_FOREVER, max_events)

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
    def next_event_time(self) -> Optional[float]:
        """Virtual time of the next pending event, or ``None`` if idle.

        Cancelled heads are discarded on the way to it.
        """
        queue = self._queue
        while queue:
            time, _, callback, args = queue[0]
            if args is None and callback.cancelled:
                _heappop(queue)
                self._cancelled_pending -= 1
                continue
            return time
        return None

    def pending_callbacks(self) -> Iterator[Callable[..., None]]:
        """The callback of every live queued event, in no particular order."""
        for _, _, callback, args in self._queue:
            if args is None:
                if callback.cancelled:
                    continue
                callback = callback.callback
            yield callback

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimulationEngine(now={self._now:.6f}, pending={len(self._queue)}, "
            f"processed={self._events_processed})"
        )
