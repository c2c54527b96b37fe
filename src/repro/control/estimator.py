"""Probabilistic stale-read estimation (paper Section IV), per scope.

The estimator evaluates, from coarse run-time measurements only, the
probability that the *next* read returns stale data when reads are served by
a partial quorum.  Inputs:

``N``
    the replication factor of the scope;
``X``
    the number of replicas involved in a read (1 under basic eventual
    consistency);
``lambda_r``
    the read arrival rate (reads per second), reads being modelled as a
    Poisson process;
``lambda_w``
    the **mean time between writes** in seconds: the paper parameterises the
    write Poisson process by ``1/lambda_w``.  Callers pass the measured write
    *rate*; the estimator inverts it;
``Tp``
    the propagation time of a write to all the replicas
    (:func:`repro.control.monitor.propagation_time`).

Closed forms (after the paper's simplification steps, with the local-write
time ``T`` taken as negligible):

* the stale-read probability for a read involving ``X`` replicas,

  ``Pr(stale) = (N - X) / N * (1 - exp(-lambda_r * Tp)) * (1 + lambda_r * lambda_w)
                / (lambda_r * lambda_w)``

  which for ``X = 1`` reduces to the paper's Eq. (6);

* the minimum number of replicas ``Xn`` needed so the estimate does not
  exceed the application-tolerated stale-read rate (ASR), the paper's
  Eq. (8):

  ``Xn >= N * (D - ASR * lambda_r * lambda_w) / D``   with
  ``D = (1 - exp(-lambda_r * Tp)) * (1 + lambda_r * lambda_w)``.

Both are clamped to their meaningful ranges (probabilities to ``[0, 1]``,
replica counts to ``[1, N]``); :class:`StaleEstimate` keeps the raw values.

A **scope** is what one estimate is made against: the cluster-wide view (key
``None``, the global replication factor -- what the paper's loop consumes)
or one datacenter (its local factor under ``NetworkTopologyStrategy`` -- what
the per-DC policies consume, reads at LOCAL levels only involving local
replicas).

Beyond the paper's read-side model, the estimator also answers the
**write-aware** question the adaptive-write policy needs: if writes are
acknowledged by ``W`` replicas synchronously (instead of the paper's 1) and
reads involve ``X``, what is the stale-read probability?  The closed form's
``(N - X) / N`` factor is the probability that a read of one replica misses
the single synchronously-written one; its hypergeometric generalization
``C(N-W, X) / C(N, X)`` (PBS, Bailis et al., VLDB 2012) is the probability
that *none* of the ``X`` read replicas is among the ``W`` written ones.  For
``W = 1`` the two coincide, so :meth:`StalenessEstimator.stale_probability_rw`
is a strict superset of the paper's model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.control.monitor import MonitoringSample

__all__ = ["StaleEstimate", "StalenessEstimator"]

#: Below this rate (ops/s) the workload is considered idle and the estimate
#: is the trivial one (no reads or no writes => nothing can be stale).
MIN_RATE = 1e-9


@dataclass(frozen=True)
class StaleEstimate:
    """Output of one model evaluation.

    Attributes
    ----------
    probability:
        Estimated stale-read probability, clamped to ``[0, 1]``.
    raw_probability:
        The uncapped closed-form value (can exceed 1 under extreme rates;
        kept for analysis and tests).
    required_replicas:
        Minimal integer number of replicas whose involvement keeps the
        estimate at or below the tolerated rate (1..N).
    raw_required_replicas:
        The real-valued right-hand side of Eq. (8) before ceiling/clamping.
    read_rate / write_interarrival / propagation:
        The inputs used (``lambda_r``, ``lambda_w``, ``Tp``), echoed for
        traceability.
    """

    probability: float
    raw_probability: float
    required_replicas: int
    raw_required_replicas: float
    read_rate: float
    write_interarrival: float
    propagation: float


class StalenessEstimator:
    """The closed-form stale-read model over one or more scopes.

    Parameters
    ----------
    factors:
        Scope -> replication factor.  Use ``None`` as the scope key for the
        cluster-wide view and datacenter names for per-DC views; scopes with
        a factor below 1 are dropped (a site holding no replicas has nothing
        to estimate against).
    """

    def __init__(self, factors: Mapping[Optional[str], int]) -> None:
        #: Scope -> ``N``, replica-holding scopes only.
        self.factors: Dict[Optional[str], int] = {
            scope: int(rf) for scope, rf in factors.items() if rf >= 1
        }
        if not self.factors:
            raise ValueError("estimator needs at least one scope with replicas")

    def replication_factor(self, scope: Optional[str] = None) -> int:
        """``N`` of one scope."""
        n = self.factors.get(scope)
        if n is None:
            raise ValueError(f"scope {scope!r} holds no replicas")
        return n

    # ------------------------------------------------------------------
    # The closed form (Eq. 1-8)
    # ------------------------------------------------------------------
    def estimate(
        self,
        read_rate: float,
        write_rate: float,
        propagation_time: float,
        *,
        read_replicas: int = 1,
        tolerated_stale_rate: float = 0.0,
        scope: Optional[str] = None,
    ) -> StaleEstimate:
        """Evaluate the probability and ``Xn`` in one pass.

        ``write_rate`` is in writes per second; ``read_replicas`` is ``X``
        (1 for basic eventual consistency).
        """
        n = self.replication_factor(scope)
        lambda_r = float(read_rate)
        if write_rate < 0:
            raise ValueError(f"write rate must be non-negative, got {write_rate!r}")
        lambda_w = float("inf") if write_rate <= MIN_RATE else 1.0 / float(write_rate)
        tp = float(propagation_time)
        x = int(read_replicas)
        asr = float(tolerated_stale_rate)
        if lambda_r < 0:
            raise ValueError(f"read rate must be non-negative, got {read_rate!r}")
        if tp < 0:
            raise ValueError(f"propagation time must be non-negative, got {tp!r}")
        if not 1 <= x <= n:
            raise ValueError(f"read_replicas must be in [1, {n}], got {read_replicas!r}")
        if not 0.0 <= asr <= 1.0:
            raise ValueError(f"tolerated stale rate must be in [0, 1], got {asr!r}")

        # Degenerate workloads: with (practically) no reads or no writes the
        # next read cannot be stale and a single replica suffices.
        if lambda_r <= MIN_RATE or math.isinf(lambda_w):
            return StaleEstimate(
                probability=0.0,
                raw_probability=0.0,
                required_replicas=1,
                raw_required_replicas=1.0,
                read_rate=lambda_r,
                write_interarrival=lambda_w,
                propagation=tp,
            )

        product = lambda_r * lambda_w  # dimensionless: reads per write interval
        window = 1.0 - math.exp(-lambda_r * tp)
        d = window * (1.0 + product)

        # Raw probability for a read involving x replicas: (N - x)/N * D / (lr*lw).
        if product <= 0.0:
            raw_probability = float("inf") if d > 0 else 0.0
        else:
            raw_probability = (n - x) / n * d / product
        probability = min(1.0, max(0.0, raw_probability))

        # Xn from Eq. (8); when D == 0 the window is empty and one replica is
        # always enough.
        if d <= 0.0:
            raw_required = 1.0
        else:
            raw_required = n * (d - asr * product) / d
        required = int(math.ceil(raw_required - 1e-12))
        required = max(1, min(n, required))
        # The paper's decision scheme short-circuits: when the tolerated rate
        # already covers the (clamped) eventual-consistency estimate, a single
        # replica suffices.  Applying the same rule here keeps
        # required_replicas consistent with the probability even in the
        # regime where the raw closed form exceeds 1.
        if asr >= probability:
            required = 1
        return StaleEstimate(
            probability=probability,
            raw_probability=raw_probability,
            required_replicas=required,
            raw_required_replicas=raw_required,
            read_rate=lambda_r,
            write_interarrival=lambda_w,
            propagation=tp,
        )

    # ------------------------------------------------------------------
    # The paper's decision scheme (Section III, steps 2-4)
    # ------------------------------------------------------------------
    def evaluate(
        self, sample: MonitoringSample, tolerated_stale_rate: float, scope: Optional[str] = None
    ) -> StaleEstimate:
        """Run the closed form on one monitoring sample."""
        return self.estimate(
            read_rate=sample.read_rate,
            write_rate=sample.write_rate,
            propagation_time=sample.propagation_time,
            tolerated_stale_rate=tolerated_stale_rate,
            scope=scope,
        )

    def decide_replicas(
        self, sample: MonitoringSample, tolerated_stale_rate: float, scope: Optional[str] = None
    ) -> Tuple[StaleEstimate, int]:
        """Estimate plus the read-replica count of the paper's decision rule.

        If the tolerated rate covers the eventual-consistency estimate, one
        replica suffices; otherwise the count is ``Xn`` from Eq. (8).
        """
        estimate = self.evaluate(sample, tolerated_stale_rate, scope)
        if tolerated_stale_rate >= estimate.probability:
            return estimate, 1
        return estimate, estimate.required_replicas

    # ------------------------------------------------------------------
    # Write-aware generalization (adaptive write levels)
    # ------------------------------------------------------------------
    def stale_probability_rw(
        self,
        sample: MonitoringSample,
        read_replicas: int,
        write_replicas: int,
        scope: Optional[str] = None,
    ) -> float:
        """Stale-read probability with ``X`` read and ``W`` written replicas.

        Clamped to ``[0, 1]``; zero whenever every possible read set must
        intersect the written set (``X > N - W``).
        """
        n = self.replication_factor(scope)
        x = int(read_replicas)
        w = int(write_replicas)
        if not 1 <= x <= n:
            raise ValueError(f"read_replicas must be in [1, {n}], got {read_replicas!r}")
        if not 1 <= w <= n:
            raise ValueError(f"write_replicas must be in [1, {n}], got {write_replicas!r}")
        if x > n - w:
            return 0.0
        miss = math.comb(n - w, x) / math.comb(n, x)
        return min(1.0, miss * self._window_term(sample, scope))

    def _window_term(self, sample: MonitoringSample, scope: Optional[str]) -> float:
        """The rate/propagation part of the closed form, without the replica factor.

        ``T = (1 - exp(-lambda_r * Tp)) * (1 + lambda_r * lambda_w) / (lambda_r * lambda_w)``
        -- the raw probability is ``miss_probability * T``.  Recovered from a
        single-replica evaluation so the degenerate-workload handling stays
        in one place (idle scopes report 0.0).
        """
        n = self.replication_factor(scope)
        if n == 1:
            # One replica: reads always hit the written replica.
            return 0.0
        estimate = self.estimate(
            read_rate=sample.read_rate,
            write_rate=sample.write_rate,
            propagation_time=sample.propagation_time,
            scope=scope,
        )
        return estimate.raw_probability * n / (n - 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        scopes = ", ".join(f"{scope or 'cluster'}:N={n}" for scope, n in self.factors.items())
        return f"StalenessEstimator({scopes})"
