"""PeriodicProcess tests."""

from __future__ import annotations

import pytest

from repro.sim.background import PeriodicProcess
from repro.sim.engine import SimulationEngine


class TestPeriodicProcess:
    def test_ticks_at_interval(self):
        engine = SimulationEngine()
        times = []
        process = PeriodicProcess(engine, 1.0, lambda: times.append(engine.now))
        engine.run_until(3.5)
        assert times == [1.0, 2.0, 3.0]
        assert process.ticks == 3
        assert process.running

    def test_initial_delay_overrides_first_tick(self):
        engine = SimulationEngine()
        times = []
        PeriodicProcess(engine, 2.0, lambda: times.append(engine.now), initial_delay=0.25)
        engine.run_until(4.5)
        assert times == [0.25, 2.25, 4.25]

    def test_stop_halts_ticking_and_lets_queue_drain(self):
        engine = SimulationEngine()
        times = []
        process = PeriodicProcess(engine, 1.0, lambda: times.append(engine.now))
        engine.run_until(2.5)
        process.stop()
        assert not process.running
        engine.run()  # terminates: nothing periodic left
        assert times == [1.0, 2.0]

    def test_validation(self):
        engine = SimulationEngine()
        with pytest.raises(ValueError):
            PeriodicProcess(engine, 0.0, lambda: None)
        with pytest.raises(ValueError):
            PeriodicProcess(engine, 1.0, lambda: None, initial_delay=-1.0)

    def test_stop_from_inside_its_own_tick_halts_cleanly(self):
        engine = SimulationEngine()
        holder = []
        holder.append(PeriodicProcess(engine, 1.0, lambda: holder[0].stop()))
        engine.run()  # terminates: the tick that stopped it armed no successor
        process = holder[0]
        assert process.ticks == 1
        assert not process.running
        assert engine.now == 1.0 and engine.pending_events == 0

    def test_stop_before_the_first_tick_leaves_the_queue_drainable(self):
        engine = SimulationEngine()
        for run_kick_off in (False, True):
            process = PeriodicProcess(engine, 1.0, lambda: None)
            if run_kick_off:  # the first timer is armed, not yet fired
                engine.step()
            process.stop()
            assert not process.running
            engine.run()
            assert process.ticks == 0
            assert engine.now == 0.0 and engine.pending_events == 0
