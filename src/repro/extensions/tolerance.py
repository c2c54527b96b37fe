"""Deriving the tolerated stale-read rate from an application model.

The paper leaves "how does an administrator pick ``app_stale_rate``?" as
future work and offers only a qualitative hint (an application needing
average consistency might use 50%, one needing more 25%, one needing less
75%).  This module provides both:

* :func:`naive_tolerance_for` -- the paper's qualitative mapping, verbatim;
* :func:`recommend_tolerance` -- a simple cost model: given the application's
  expected monetary (or utility) cost of serving one stale read and its value
  for each millisecond of latency saved per read, choose the tolerance that
  minimises expected cost, using the closed-form estimator to translate a
  tolerance into expected staleness and the platform scenario to translate a
  consistency level into expected extra latency.

The cost model is intentionally transparent: the goal is to give
administrators a defensible starting point, not to hide the decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.control.estimator import StalenessEstimator
from repro.control.monitor import propagation_time

__all__ = ["ApplicationProfile", "naive_tolerance_for", "recommend_tolerance"]

#: The paper's qualitative mapping from a consistency need to an ASR.
_NAIVE_MAPPING: Dict[str, float] = {
    "critical": 0.0,       # strong consistency required
    "high": 0.25,          # needs more than average consistency
    "average": 0.5,
    "low": 0.75,           # needs less than average consistency
    "none": 1.0,           # archival / read-only: eventual consistency
}


def naive_tolerance_for(consistency_need: str) -> float:
    """The paper's qualitative mapping (Section III).

    ``consistency_need`` is one of ``critical``, ``high``, ``average``,
    ``low`` or ``none``.
    """
    key = consistency_need.lower()
    if key not in _NAIVE_MAPPING:
        raise ValueError(
            f"unknown consistency need {consistency_need!r}; "
            f"expected one of {sorted(_NAIVE_MAPPING)}"
        )
    return _NAIVE_MAPPING[key]


@dataclass(frozen=True)
class ApplicationProfile:
    """What the application knows about itself.

    Attributes
    ----------
    stale_read_cost:
        Expected cost (arbitrary utility units) of serving one stale read --
        an oversold item, a wrong balance shown, a broken invariant.
    latency_value_per_ms:
        Utility gained per millisecond of read latency avoided, per read.
        Applications that monetise responsiveness (the paper cites the cost
        of slow credit-card authorisations) put a high value here.
    expected_read_rate / expected_write_rate:
        The application's anticipated steady-state operation rates (per
        second), used to evaluate the estimator.
    network_latency:
        Expected one-way inter-replica latency of the deployment platform
        (seconds).
    replication_factor:
        The store's replication factor.
    avg_write_size:
        Average write payload in bytes (feeds the propagation-time term).
    """

    stale_read_cost: float
    latency_value_per_ms: float
    expected_read_rate: float
    expected_write_rate: float
    network_latency: float
    replication_factor: int = 5
    avg_write_size: float = 1024.0

    def __post_init__(self) -> None:
        if self.stale_read_cost < 0 or self.latency_value_per_ms < 0:
            raise ValueError("costs must be non-negative")
        if self.expected_read_rate < 0 or self.expected_write_rate < 0:
            raise ValueError("rates must be non-negative")
        if self.network_latency < 0:
            raise ValueError("network latency must be non-negative")
        if self.replication_factor < 1:
            raise ValueError("replication factor must be >= 1")


def recommend_tolerance(
    profile: ApplicationProfile,
    candidates: Sequence[float] = (0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0),
    *,
    per_replica_latency_ms: Optional[float] = None,
) -> float:
    """Choose the tolerated stale-read rate minimising expected per-read cost.

    For each candidate tolerance the expected cost of a read is::

        cost(asr) = stale_probability(Xn(asr)) * stale_read_cost
                    + (Xn(asr) - 1) * per_replica_latency_ms * latency_value_per_ms

    where ``Xn(asr)`` is the number of replicas Harmony would involve at that
    tolerance under the profile's expected rates, ``stale_probability(X)`` is
    the closed-form estimate for reads involving ``X`` replicas, and the
    latency term charges each extra replica one inter-replica round trip
    (overridable through ``per_replica_latency_ms``).

    Returns the candidate with the lowest expected cost (ties resolve to the
    *larger* tolerance, i.e. the cheaper configuration).
    """
    if not candidates:
        raise ValueError("candidates must not be empty")
    estimator = StalenessEstimator({None: profile.replication_factor})
    tp = propagation_time(
        network_latency=profile.network_latency, avg_write_size=profile.avg_write_size
    )
    extra_ms = (
        per_replica_latency_ms
        if per_replica_latency_ms is not None
        else profile.network_latency * 2.0 * 1e3
    )

    best_asr = None
    best_cost = None
    for asr in sorted(candidates):
        if not 0.0 <= asr <= 1.0:
            raise ValueError(f"candidate tolerances must be in [0, 1], got {asr!r}")
        if profile.expected_read_rate <= 0 or profile.expected_write_rate <= 0:
            replicas = 1
            stale_probability = 0.0
        else:
            estimate = estimator.estimate(
                read_rate=profile.expected_read_rate,
                write_rate=profile.expected_write_rate,
                propagation_time=tp,
                tolerated_stale_rate=asr,
            )
            replicas = 1 if asr >= estimate.probability else estimate.required_replicas
            stale_probability = estimator.estimate(
                profile.expected_read_rate,
                profile.expected_write_rate,
                tp,
                read_replicas=replicas,
            ).probability
        cost = (
            stale_probability * profile.stale_read_cost
            + (replicas - 1) * extra_ms * profile.latency_value_per_ms
        )
        if best_cost is None or cost < best_cost - 1e-12 or (
            abs(cost - best_cost) <= 1e-12 and (best_asr is None or asr > best_asr)
        ):
            best_cost = cost
            best_asr = asr
    assert best_asr is not None
    return best_asr
