"""Harmony's feedback loop and every other adaptive knob of the simulator.

The source paper's contribution is one loop (Section III, Fig. 3): monitor
the read/write rates and the propagation time ``Tp``, estimate the
stale-read probability (Section IV, Eq. 1-8), move the consistency level.
This package is that loop, factored so *every* adaptive behaviour in the
simulator -- read levels, write levels, repair cadence, ring size, client
retries -- shares one spine instead of growing parallel controllers:

* :mod:`repro.control.monitor` -- :class:`ClusterMonitor`, the monitoring
  module: cluster-wide and per-datacenter rate samples
  (:class:`MonitoringSample`) and the ``Tp`` estimate
  (:func:`propagation_time`);
* :mod:`repro.control.estimator` -- :class:`StalenessEstimator`, the
  closed-form stale-read model per scope (cluster-wide or per datacenter)
  plus its write-aware generalization;
* :mod:`repro.control.plane` -- the :class:`Decision` record, the
  :class:`ControlPolicy` interface, the :class:`ControlPlane` driver (one
  periodic process, shared monitoring samples, the decision log) and
  :class:`LevelPolicy`, the control policy a workload executor asks for
  ``read_level(dc)`` / ``write_level(dc)`` (fixed levels on its own; every
  adaptive level policy below subclasses it);
* :mod:`repro.control.policies` -- the shipped policies:
  :class:`HarmonyReadPolicy` (the paper's decision scheme, tuned by a
  :class:`HarmonyConfig`), :class:`GeoReadPolicy` (the same scheme per
  datacenter), :class:`GeoReadWritePolicy` (joint per-DC read/write
  adaptation), :class:`RepairSchedulePolicy` (divergence-driven
  anti-entropy scheduling with the pair's repair traffic as a cost term),
  :class:`ThresholdReadPolicy` (the write/read-ratio rule) and
  :class:`~repro.control.policies.ScaleOutPolicy` (demand-driven ring
  membership) -- and :func:`make_policy`, the one way to name a level
  policy (``"eventual"``, ``"strong"``, ``"harmony-20%"``,
  ``"geo-harmony"``, ...);
* :mod:`repro.control.retry` -- client-side :class:`RetryPolicy` /
  :class:`DowngradeRetryPolicy` with deterministic exponential backoff.

Determinism contract: policies consume only named
:class:`~repro.sim.rng.RandomStreams` streams, or none at all, so same-seed
runs are byte-identical with or without any given policy registered.
"""

from repro.control.estimator import StaleEstimate, StalenessEstimator
from repro.control.monitor import ClusterMonitor, MonitoringSample, propagation_time
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
    HarmonyConfig,
    HarmonyReadPolicy,
    RepairControlConfig,
    RepairSchedulePolicy,
    ThresholdReadPolicy,
    make_policy,
)
from repro.control.retry import (
    DowngradeRetryPolicy,
    RetryDecision,
    RetryPolicy,
)

__all__ = [
    "ClusterMonitor",
    "MonitoringSample",
    "propagation_time",
    "StaleEstimate",
    "StalenessEstimator",
    "ControlPlane",
    "ControlPolicy",
    "ControlTick",
    "Decision",
    "LevelPolicy",
    "HarmonyConfig",
    "HarmonyReadPolicy",
    "GeoReadPolicy",
    "GeoReadWritePolicy",
    "RepairControlConfig",
    "RepairSchedulePolicy",
    "ThresholdReadPolicy",
    "make_policy",
    "DowngradeRetryPolicy",
    "RetryDecision",
    "RetryPolicy",
]
