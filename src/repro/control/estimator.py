"""Scope-parameterized staleness estimation for the control plane.

The paper's probabilistic model (:mod:`repro.core.model`) estimates the
stale-read probability from coarse run-time measurements.  Before the control
plane existed, each controller owned its own :class:`StaleReadModel` instances
and re-implemented the decision shortcut (paper Section III step 3/4) around
them; the :class:`StalenessEstimator` packages both once, parameterized by
*scope*:

* the **cluster-wide** scope (key ``None``) evaluates against the global
  replication factor -- what the single-site Harmony controller consumes;
* one scope **per datacenter** evaluates against that site's local
  replication factor under ``NetworkTopologyStrategy`` -- what the per-DC
  controllers consume (reads at LOCAL levels only involve local replicas).

Beyond the paper's read-side model, the estimator also answers the
**write-aware** question the adaptive-write policy needs: if writes are
acknowledged by ``W`` replicas synchronously (instead of the paper's 1) and
reads involve ``X``, what is the stale-read probability?  The closed form's
``(N - X) / N`` factor is the probability that a read of one replica misses
the single synchronously-written one; its hypergeometric generalization
``C(N-W, X) / C(N, X)`` is the probability that *none* of the ``X`` read
replicas is among the ``W`` written ones.  For ``W = 1`` the two coincide, so
:meth:`stale_probability_rw` is a strict superset of the paper's model.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional, Tuple

from repro.core.model import StaleEstimate, StaleReadModel
from repro.core.monitor import MonitoringSample

__all__ = ["StalenessEstimator"]

#: Scope key of the cluster-wide view (per-DC scopes use the DC name).
CLUSTER_SCOPE: Optional[str] = None


class StalenessEstimator:
    """One stale-read model per scope, plus the paper's decision shortcut.

    Parameters
    ----------
    factors:
        Scope -> replication factor.  Use ``None`` as the scope key for the
        cluster-wide view and datacenter names for per-DC views; scopes with
        a factor below 1 are dropped (a site holding no replicas has nothing
        to estimate against).
    """

    def __init__(self, factors: Mapping[Optional[str], int]) -> None:
        self.models: Dict[Optional[str], StaleReadModel] = {
            scope: StaleReadModel(rf) for scope, rf in factors.items() if rf >= 1
        }
        if not self.models:
            raise ValueError("estimator needs at least one scope with replicas")

    # ------------------------------------------------------------------
    def replication_factor(self, scope: Optional[str] = None) -> int:
        """``N`` of one scope."""
        return self._model(scope).replication_factor

    def scopes(self) -> list:
        """All configured scopes (``None`` = cluster-wide)."""
        return list(self.models)

    def _model(self, scope: Optional[str]) -> StaleReadModel:
        model = self.models.get(scope)
        if model is None:
            raise ValueError(f"scope {scope!r} holds no replicas")
        return model

    # ------------------------------------------------------------------
    # The paper's decision scheme (Section III, steps 2-4)
    # ------------------------------------------------------------------
    def evaluate(
        self, sample: MonitoringSample, tolerated_stale_rate: float, scope: Optional[str] = None
    ) -> StaleEstimate:
        """Run the closed-form model on one monitoring sample."""
        return self._model(scope).estimate(
            read_rate=sample.read_rate,
            write_rate=sample.write_rate,
            propagation_time=sample.propagation_time,
            tolerated_stale_rate=tolerated_stale_rate,
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
        n = self._model(scope).replication_factor
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
        single-replica model evaluation so the degenerate-workload handling
        stays in one place (idle scopes report 0.0).
        """
        model = self._model(scope)
        n = model.replication_factor
        if n == 1:
            # One replica: reads always hit the written replica.
            return 0.0
        estimate = model.estimate(
            read_rate=sample.read_rate,
            write_rate=sample.write_rate,
            propagation_time=sample.propagation_time,
        )
        return estimate.raw_probability * n / (n - 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        scopes = ", ".join(
            f"{scope or 'cluster'}:N={model.replication_factor}"
            for scope, model in self.models.items()
        )
        return f"StalenessEstimator({scopes})"
