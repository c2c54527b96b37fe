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
  :class:`ControlPolicy` interface and the :class:`ControlPlane` driver (one
  periodic process, shared monitoring samples, decision log + counters);
* :mod:`repro.control.policies` -- the shipped policies:
  :class:`HarmonyReadPolicy` (the paper's decision scheme) and
  :class:`GeoReadPolicy` (the same scheme per datacenter),
  :class:`GeoReadWritePolicy` (joint per-DC read/write
  adaptation), :class:`RepairSchedulePolicy` (divergence-driven
  anti-entropy scheduling with ``repair_bytes`` as a cost term),
  :class:`ThresholdReadPolicy` (the ported write/read-ratio rule) and
  :class:`StalenessSLAPolicy` (closed-loop on the auditor's *measured*
  staleness-age distribution against a quantitative SLA);
* :mod:`repro.control.retry` -- client-side :class:`RetryPolicy` /
  :class:`DowngradeRetryPolicy` with deterministic exponential backoff.

Determinism contract: policies consume only named
:class:`~repro.sim.rng.RandomStreams` streams, or none at all, so same-seed
runs are byte-identical with or without any given policy registered.
"""

from repro.control.estimator import StalenessEstimator
from repro.control.plane import ControlPlane, ControlPolicy, ControlTick, Decision
from repro.control.policies import (
    GeoReadPolicy,
    GeoReadWritePolicy,
    HarmonyReadPolicy,
    RepairControlConfig,
    RepairSchedulePolicy,
    StalenessSLAPolicy,
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
    "HarmonyReadPolicy",
    "GeoReadPolicy",
    "GeoReadWritePolicy",
    "RepairControlConfig",
    "RepairSchedulePolicy",
    "ThresholdReadPolicy",
    "StalenessSLAPolicy",
    "BackoffConfig",
    "DowngradeRetryPolicy",
    "RetryDecision",
    "RetryPolicy",
]
