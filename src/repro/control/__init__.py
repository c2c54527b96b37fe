"""Unified adaptive control plane.

The source paper's core contribution is a feedback loop: observe the
workload, estimate the stale-read probability, move the consistency knob.
This package is that loop factored into three reusable pieces so *every*
adaptive behaviour in the simulator -- read levels, write levels, repair
cadence, client retries -- shares one spine instead of growing parallel
controller implementations:

* :mod:`repro.control.estimator` -- :class:`StalenessEstimator`, the
  probabilistic model of :mod:`repro.core.model` parameterized per scope
  (cluster-wide or per-datacenter), plus its write-aware generalization;
* :mod:`repro.control.plane` -- the :class:`Decision` record, the
  :class:`ControlPolicy` interface, the :class:`ControlPlane` driver (one
  periodic process, shared monitoring samples, the decision log) and
  :class:`LevelPolicy`, the control policy a workload executor asks for
  ``read_level(dc)`` / ``write_level(dc)`` (fixed levels on its own; every
  adaptive level policy below subclasses it);
* :mod:`repro.control.policies` -- the shipped policies:
  :class:`HarmonyReadPolicy` (the paper's decision scheme) and
  :class:`GeoReadPolicy` (the same scheme per datacenter),
  :class:`GeoReadWritePolicy` (joint per-DC read/write
  adaptation), :class:`RepairSchedulePolicy` (divergence-driven
  anti-entropy scheduling with the pair's repair traffic as a cost term),
  :class:`ThresholdReadPolicy` (the write/read-ratio rule) and
  :class:`~repro.control.policies.ScaleOutPolicy` (demand-driven ring
  membership);
* :mod:`repro.control.retry` -- client-side :class:`RetryPolicy` /
  :class:`DowngradeRetryPolicy` with deterministic exponential backoff.

Determinism contract: policies consume only named
:class:`~repro.sim.rng.RandomStreams` streams, or none at all, so same-seed
runs are byte-identical with or without any given policy registered.
"""

from repro.control.estimator import StalenessEstimator
from repro.control.plane import (
    ControlPlane,
    ControlPolicy,
    ControlTick,
    Decision,
    LevelPolicy,
)
from repro.control.policies import (
    GeoReadPolicy,
    GeoReadWritePolicy,
    HarmonyReadPolicy,
    RepairControlConfig,
    RepairSchedulePolicy,
    ThresholdReadPolicy,
)
from repro.control.retry import (
    BackoffConfig,
    DowngradeRetryPolicy,
    RetryDecision,
    RetryPolicy,
)

__all__ = [
    "StalenessEstimator",
    "ControlPlane",
    "ControlPolicy",
    "ControlTick",
    "Decision",
    "LevelPolicy",
    "HarmonyReadPolicy",
    "GeoReadPolicy",
    "GeoReadWritePolicy",
    "RepairControlConfig",
    "RepairSchedulePolicy",
    "ThresholdReadPolicy",
    "BackoffConfig",
    "DowngradeRetryPolicy",
    "RetryDecision",
    "RetryPolicy",
]
