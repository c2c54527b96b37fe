"""Discrete-event simulation engine used by every substrate in this package.

The engine is a deterministic, single-threaded event loop over virtual
(simulated) time.  All higher-level components -- the network substrate,
the Cassandra-like storage cluster, the YCSB-style workload clients and the
Harmony monitoring loop -- are expressed as events scheduled on one shared
:class:`~repro.sim.engine.SimulationEngine`.

Design notes
------------
* Virtual time is a ``float`` measured in **seconds**.
* Events with identical timestamps are executed in FIFO scheduling order,
  which keeps every run bit-for-bit reproducible for a fixed seed.
* Randomness is never drawn from the global :mod:`random` / NumPy state:
  components receive named, independent child streams from
  :class:`~repro.sim.rng.RandomStreams`, so adding one more consumer of
  randomness does not perturb the draws seen by unrelated components.
"""

from repro.sim.engine import EventHandle, SimulationEngine, SimulationError
from repro.sim.rng import RandomStreams

__all__ = [
    "EventHandle",
    "RandomStreams",
    "SimulationEngine",
    "SimulationError",
]
