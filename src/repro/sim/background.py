"""Periodic background processes on top of the event engine.

Long-running maintenance activities -- the Harmony monitoring loop,
anti-entropy repair, compaction-style housekeeping -- share one shape: run a
callback every ``interval`` virtual seconds until told to stop.
:class:`PeriodicProcess` packages that shape once -- a callback that
re-schedules itself, holding the :class:`~repro.sim.engine.EventHandle` of
its one pending event -- so services do not each reimplement the
sleep/stop/tick-counting loop.

A periodic process keeps the engine's event queue non-empty forever, so
helpers that drain the queue (``SimulatedCluster.settle()``) will not return
while one is running: call :meth:`PeriodicProcess.stop` first.  This is the
same contract an asyncio program has with a recurring timer task.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.engine import EventHandle, SimulationEngine

__all__ = ["PeriodicProcess"]


class PeriodicProcess:
    """Invoke ``fn()`` every ``interval`` simulated seconds until stopped.

    Parameters
    ----------
    engine:
        The simulation engine driving the clock.
    interval:
        Virtual seconds between invocations (must be positive).
    fn:
        Zero-argument callback run at each tick.  Exceptions propagate and
        kill the engine run, exactly like any other event callback -- a
        background service that can fail should catch its own errors.
    name:
        Process name used in traces and error messages.
    initial_delay:
        Delay before the first tick; defaults to ``interval`` (the first
        tick does not fire at time zero, mirroring a cron-style schedule).
    """

    def __init__(
        self,
        engine: SimulationEngine,
        interval: float,
        fn: Callable[[], None],
        *,
        name: str = "periodic",
        initial_delay: Optional[float] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval!r}")
        if initial_delay is not None and initial_delay < 0:
            raise ValueError(f"initial_delay must be non-negative, got {initial_delay!r}")
        self._engine = engine
        self._interval = float(interval)
        self._fn = fn
        self._name = name
        self.ticks = 0
        # The first timer is armed by a kick-off event, not here: that event
        # is counted in ``events_processed`` and gives the first tick a later
        # tie-break sequence number, and same-seed digests hash both.
        self._pending: Optional[EventHandle] = engine.call_soon(
            self._arm, float(interval if initial_delay is None else initial_delay)
        )

    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._pending is not None

    @property
    def interval(self) -> float:
        return self._interval

    def stop(self) -> None:
        """Stop ticking; the engine queue can then drain normally.

        Safe to call from inside ``fn`` (the tick that is running has already
        fired, so there is nothing to cancel and no next tick is armed).
        """
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None

    # ------------------------------------------------------------------
    def _arm(self, delay: float) -> None:
        self._pending = self._engine.schedule(delay, self._tick)

    def _tick(self) -> None:
        self._fn()
        self.ticks += 1
        if self._pending is not None:  # fn() may have stopped us
            self._arm(self._interval)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "running" if self.running else "stopped"
        return f"PeriodicProcess({self._name!r}, every {self._interval}s, {state}, ticks={self.ticks})"
