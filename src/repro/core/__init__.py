"""Harmony core: the paper's contribution.

Two modules hold the paper's measurement and arithmetic (Fig. 3):

* :mod:`repro.core.model` -- the closed-form probabilistic estimation of the
  stale-read rate (paper Eq. 1-6) and of ``Xn``, the number of replicas a
  read must involve to keep the stale-read rate under the application's
  tolerance (Eq. 7-8);
* :mod:`repro.core.monitor` -- the monitoring module: samples the cluster's
  ``nodetool``-style counters and network latency on a fixed interval and
  turns them into read/write arrival rates and a propagation-time estimate.

The adaptive consistency module -- combine the two with the application's
tolerated stale-read rate and pick the level of upcoming reads (Section III)
-- is :class:`repro.control.policies.HarmonyReadPolicy`, driven by a
:class:`~repro.control.plane.ControlPlane`.  :mod:`repro.core.policy` names
the policies of the paper's comparison (``HarmonyPolicy``, the static
baselines, ...) as constructors of those control policies.
"""

from repro.core.config import HarmonyConfig
from repro.core.model import StaleReadModel, propagation_time
from repro.core.monitor import ClusterMonitor, MonitoringSample
from repro.core.policy import (
    HarmonyPolicy,
    SLAConsistencyPolicy,
    StaticEventualPolicy,
    StaticQuorumPolicy,
    StaticStrongPolicy,
    ThresholdPolicy,
)

__all__ = [
    "ClusterMonitor",
    "HarmonyConfig",
    "HarmonyPolicy",
    "MonitoringSample",
    "SLAConsistencyPolicy",
    "StaleReadModel",
    "StaticEventualPolicy",
    "StaticQuorumPolicy",
    "StaticStrongPolicy",
    "ThresholdPolicy",
    "propagation_time",
]
