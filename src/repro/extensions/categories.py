"""Consistency categories: clustering keys by access pattern (paper future work).

Harmony as published applies one tolerated stale-read rate to the whole
keyspace.  The paper's future-work section proposes letting the system divide
the data into *consistency categories* automatically, each with its own
appropriate consistency handling.  This module implements that idea:

* :class:`KeyAccessTracker` accumulates per-key read/write counts (cheap,
  observer-based -- it plugs into ``SimulatedCluster.add_operation_observer``
  or is fed by the executor);
* :class:`ConsistencyCategorizer` clusters keys by their access features
  (write rate, read rate, write fraction) with a small k-means implementation
  (NumPy only) and assigns each category a tolerated stale-read rate
  interpolated between a strict and a relaxed bound: write-hot categories get
  stricter tolerances because stale reads are both more likely and more
  consequential there;
* :class:`CategorizedHarmonyPolicy` is the Harmony read loop answering
  ``level_for_key(key)`` per category, so cold archival keys keep
  reading at level ONE while hot, update-heavy keys are read with larger
  partial quorums.

The workload executor asks level policies ``read_level(datacenter)`` (no
key); the categorized policy answers that with its default tolerance and
exposes the per-key method to the category-aware example and tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.consistency import ConsistencyLevel, level_for_replicas
from repro.cluster.coordinator import OperationResult
from repro.control.policies import HarmonyConfig, HarmonyReadPolicy

__all__ = [
    "KeyAccessStats",
    "KeyAccessTracker",
    "ConsistencyCategory",
    "ConsistencyCategorizer",
    "CategorizedHarmonyPolicy",
]


@dataclass
class KeyAccessStats:
    """Read/write counts for a single key."""

    reads: int = 0
    writes: int = 0

    @property
    def total(self) -> int:
        return self.reads + self.writes

    @property
    def write_fraction(self) -> float:
        """Fraction of accesses that are writes (0.0 for an untouched key)."""
        return self.writes / self.total if self.total else 0.0


class KeyAccessTracker:
    """Accumulates per-key access statistics from completed operations."""

    def __init__(self) -> None:
        self._stats: Dict[str, KeyAccessStats] = {}
        self.operations_observed = 0

    # -- collection ----------------------------------------------------
    def observe(self, result: OperationResult) -> None:
        """Record one completed operation (pluggable as a cluster observer)."""
        stats = self._stats.setdefault(result.key, KeyAccessStats())
        if result.op_type == "read":
            stats.reads += 1
        else:
            stats.writes += 1
        self.operations_observed += 1

    def observe_raw(self, key: str, *, is_write: bool) -> None:
        """Record an access without an :class:`OperationResult` (tests, replays)."""
        stats = self._stats.setdefault(key, KeyAccessStats())
        if is_write:
            stats.writes += 1
        else:
            stats.reads += 1
        self.operations_observed += 1

    # -- access --------------------------------------------------------
    def stats_for(self, key: str) -> KeyAccessStats:
        """Statistics of one key (zeros if never seen)."""
        return self._stats.get(key, KeyAccessStats())

    def keys(self) -> List[str]:
        return list(self._stats)

    def __len__(self) -> int:
        return len(self._stats)

    def feature_matrix(self, keys: Optional[Sequence[str]] = None) -> Tuple[List[str], np.ndarray]:
        """Per-key feature rows ``[log1p(reads), log1p(writes), write_fraction]``.

        Log-scaled counts keep hot keys from dominating the euclidean metric
        entirely while still separating hot from cold.
        """
        selected = list(keys) if keys is not None else self.keys()
        features = np.zeros((len(selected), 3), dtype=float)
        for row, key in enumerate(selected):
            stats = self.stats_for(key)
            features[row, 0] = np.log1p(stats.reads)
            features[row, 1] = np.log1p(stats.writes)
            features[row, 2] = stats.write_fraction
        return selected, features


@dataclass(frozen=True)
class ConsistencyCategory:
    """One cluster of keys sharing a consistency treatment.

    Attributes
    ----------
    index:
        Category identifier (0-based; ordering follows increasing write
        intensity).
    tolerated_stale_rate:
        The ASR assigned to this category.
    centroid:
        Cluster centroid in feature space (log reads, log writes, write frac).
    size:
        Number of keys assigned to the category.
    """

    index: int
    tolerated_stale_rate: float
    centroid: Tuple[float, float, float]
    size: int


def _kmeans(features: np.ndarray, k: int, *, iterations: int = 50, seed: int = 0) -> np.ndarray:
    """Tiny k-means (Lloyd's algorithm); returns the label of each row.

    Deterministic for a fixed seed; empty clusters are re-seeded with the
    point farthest from its assigned centroid, which keeps ``k`` effective
    clusters whenever the data supports them.
    """
    n = features.shape[0]
    if n == 0:
        return np.zeros(0, dtype=int)
    k = min(k, n)
    rng = np.random.default_rng(seed)
    centroids = features[rng.choice(n, size=k, replace=False)].copy()
    labels = np.zeros(n, dtype=int)
    for _ in range(iterations):
        distances = np.linalg.norm(features[:, None, :] - centroids[None, :, :], axis=2)
        new_labels = distances.argmin(axis=1)
        for cluster in range(k):
            members = features[new_labels == cluster]
            if len(members) == 0:
                farthest = distances[np.arange(n), new_labels].argmax()
                centroids[cluster] = features[farthest]
                new_labels[farthest] = cluster
            else:
                centroids[cluster] = members.mean(axis=0)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels


class ConsistencyCategorizer:
    """Clusters keys into consistency categories and assigns per-category ASRs.

    Parameters
    ----------
    n_categories:
        Number of categories (k of the k-means).
    strict_asr / relaxed_asr:
        Tolerated stale-read rates assigned to the most write-intensive and
        the least write-intensive category respectively; intermediate
        categories are interpolated linearly.
    seed:
        Seed of the k-means initialisation.
    """

    def __init__(
        self,
        n_categories: int = 3,
        *,
        strict_asr: float = 0.05,
        relaxed_asr: float = 0.8,
        seed: int = 0,
    ) -> None:
        if n_categories < 1:
            raise ValueError("n_categories must be >= 1")
        if not 0.0 <= strict_asr <= 1.0 or not 0.0 <= relaxed_asr <= 1.0:
            raise ValueError("ASR bounds must be in [0, 1]")
        if strict_asr > relaxed_asr:
            raise ValueError("strict_asr must not exceed relaxed_asr")
        self.n_categories = int(n_categories)
        self.strict_asr = float(strict_asr)
        self.relaxed_asr = float(relaxed_asr)
        self.seed = int(seed)
        self._assignment: Dict[str, int] = {}
        self._categories: List[ConsistencyCategory] = []

    # -- fitting ---------------------------------------------------------
    def fit(self, tracker: KeyAccessTracker) -> List[ConsistencyCategory]:
        """Cluster the tracked keys and compute per-category tolerances."""
        keys, features = tracker.feature_matrix()
        if not keys:
            self._assignment = {}
            self._categories = []
            return []
        labels = _kmeans(features, self.n_categories, seed=self.seed)
        # Identical feature rows can leave some clusters empty; compress the
        # labels so every category index refers to a non-empty cluster.
        used = sorted(set(int(label) for label in labels))
        remap = {old: new for new, old in enumerate(used)}
        labels = np.array([remap[int(label)] for label in labels], dtype=int)
        # Order clusters by "write intensity": write_fraction weighted by
        # write volume, so the most update-heavy data gets the strictest ASR.
        actual_k = labels.max() + 1
        intensity = np.zeros(actual_k)
        for cluster in range(actual_k):
            members = features[labels == cluster]
            intensity[cluster] = float(members[:, 1].mean() * (members[:, 2].mean() + 1e-9))
        order = np.argsort(-intensity)  # most write-intensive first
        rank_of = {int(cluster): rank for rank, cluster in enumerate(order)}

        categories: List[ConsistencyCategory] = []
        for cluster in range(actual_k):
            rank = rank_of[cluster]
            if actual_k == 1:
                asr = self.relaxed_asr
            else:
                asr = self.strict_asr + (self.relaxed_asr - self.strict_asr) * (
                    rank / (actual_k - 1)
                )
            members = features[labels == cluster]
            categories.append(
                ConsistencyCategory(
                    index=cluster,
                    tolerated_stale_rate=round(float(asr), 6),
                    centroid=tuple(float(x) for x in members.mean(axis=0)),
                    size=int(len(members)),
                )
            )
        self._categories = categories
        self._assignment = {key: int(label) for key, label in zip(keys, labels)}
        return categories

    # -- lookup ----------------------------------------------------------
    @property
    def categories(self) -> List[ConsistencyCategory]:
        return list(self._categories)

    def category_of(self, key: str) -> Optional[ConsistencyCategory]:
        """The category of ``key`` (None for keys never seen during fit)."""
        index = self._assignment.get(key)
        if index is None:
            return None
        return self._categories[index]

    def tolerated_stale_rate_for(self, key: str, default: float = 0.4) -> float:
        """The ASR that applies to ``key`` (``default`` for unknown keys)."""
        category = self.category_of(key)
        return category.tolerated_stale_rate if category is not None else default

    def summary(self) -> List[Dict[str, object]]:
        """Report rows: one per category."""
        return [
            {
                "category": category.index,
                "keys": category.size,
                "tolerated_stale_rate": category.tolerated_stale_rate,
                "mean_log_reads": round(category.centroid[0], 3),
                "mean_log_writes": round(category.centroid[1], 3),
                "mean_write_fraction": round(category.centroid[2], 3),
            }
            for category in sorted(self._categories, key=lambda c: c.tolerated_stale_rate)
        ]


class CategorizedHarmonyPolicy(HarmonyReadPolicy):
    """Harmony with per-category tolerated stale-read rates.

    The one Harmony read loop monitors the cluster (rates, latency) exactly
    as in base Harmony; the per-key decision then applies the *key's
    category* tolerance to the loop's latest sample, so different data
    receives different consistency levels under the same system conditions.

    ``read_level(datacenter)`` -- what the standard executor asks -- answers
    with ``default_asr``; the category-aware example drives
    :meth:`level_for_key` directly.
    """

    def __init__(
        self,
        categorizer: ConsistencyCategorizer,
        *,
        default_asr: float = 0.4,
        config: Optional[HarmonyConfig] = None,
        write: ConsistencyLevel = ConsistencyLevel.ONE,
    ) -> None:
        if not 0.0 <= default_asr <= 1.0:
            raise ValueError("default_asr must be in [0, 1]")
        super().__init__(config or HarmonyConfig(tolerated_stale_rate=default_asr), write=write)
        self.categorizer = categorizer
        self.default_asr = float(default_asr)
        self.label = "harmony-categorized"

    def read_level(self, datacenter: Optional[str] = None) -> ConsistencyLevel:
        """Keyless answer: the level for the default tolerance."""
        return self._level_for_asr(self.default_asr)

    def level_for_key(self, key: str) -> ConsistencyLevel:
        """The consistency level for a read of ``key`` under its category's ASR."""
        asr = self.categorizer.tolerated_stale_rate_for(key, default=self.default_asr)
        return self._level_for_asr(asr)

    def _level_for_asr(self, asr: float) -> ConsistencyLevel:
        if self.last_sample is None:
            return ConsistencyLevel.ONE
        _estimate, replicas = self.estimator.decide_replicas(self.last_sample, asr)
        return level_for_replicas(replicas, self.estimator.replication_factor())
