"""Unit tests for the consistency-category extension (paper future work #1)."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import ClusterConfig, SimulatedCluster
from repro.cluster.consistency import ConsistencyLevel
from repro.control.plane import ControlPlane
from repro.control.policies import HarmonyConfig
from repro.extensions.categories import (
    CategorizedHarmonyPolicy,
    ConsistencyCategorizer,
    KeyAccessTracker,
)


def build_tracker() -> KeyAccessTracker:
    """Three clearly distinct key populations: hot read-write, read-mostly, cold."""
    tracker = KeyAccessTracker()
    for i in range(5):  # hot, update-heavy keys
        for _ in range(200):
            tracker.observe_raw(f"hot{i}", is_write=True)
        for _ in range(200):
            tracker.observe_raw(f"hot{i}", is_write=False)
    for i in range(10):  # read-mostly keys
        for _ in range(150):
            tracker.observe_raw(f"warm{i}", is_write=False)
        for _ in range(5):
            tracker.observe_raw(f"warm{i}", is_write=True)
    for i in range(20):  # cold archival keys, reads only
        for _ in range(3):
            tracker.observe_raw(f"cold{i}", is_write=False)
    return tracker


class TestKeyAccessTracker:
    def test_counts_accumulate(self):
        tracker = KeyAccessTracker()
        tracker.observe_raw("k", is_write=True)
        tracker.observe_raw("k", is_write=False)
        tracker.observe_raw("k", is_write=False)
        stats = tracker.stats_for("k")
        assert stats.writes == 1
        assert stats.reads == 2
        assert stats.write_fraction == pytest.approx(1 / 3)
        assert tracker.operations_observed == 3
        assert len(tracker) == 1

    def test_unknown_key_has_zero_stats(self):
        tracker = KeyAccessTracker()
        assert tracker.stats_for("missing").total == 0
        assert tracker.stats_for("missing").write_fraction == 0.0

    def test_observe_from_operation_results(self):
        cluster = SimulatedCluster(ClusterConfig(n_nodes=4, replication_factor=3, seed=1))
        tracker = KeyAccessTracker()
        cluster.add_operation_observer(tracker.observe)
        cluster.write_sync("a", "v", ConsistencyLevel.ONE)
        cluster.read_sync("a", ConsistencyLevel.ONE)
        assert tracker.stats_for("a").writes == 1
        assert tracker.stats_for("a").reads == 1

    def test_feature_matrix_shape(self):
        tracker = build_tracker()
        keys, features = tracker.feature_matrix()
        assert features.shape == (len(keys), 3)
        assert (features >= 0).all()


class TestConsistencyCategorizer:
    def test_fit_produces_requested_number_of_categories(self):
        categorizer = ConsistencyCategorizer(n_categories=3, seed=1)
        categories = categorizer.fit(build_tracker())
        assert len(categories) == 3
        assert sum(category.size for category in categories) == 35

    def test_write_heavy_keys_get_the_strictest_tolerance(self):
        categorizer = ConsistencyCategorizer(
            n_categories=3, strict_asr=0.05, relaxed_asr=0.8, seed=1
        )
        categorizer.fit(build_tracker())
        hot = categorizer.tolerated_stale_rate_for("hot0")
        warm = categorizer.tolerated_stale_rate_for("warm0")
        cold = categorizer.tolerated_stale_rate_for("cold0")
        assert hot <= warm <= cold
        assert hot == pytest.approx(0.05)
        assert cold == pytest.approx(0.8)

    def test_all_keys_in_one_population_yield_one_effective_category(self):
        tracker = KeyAccessTracker()
        for i in range(10):
            tracker.observe_raw(f"k{i}", is_write=False)
        categorizer = ConsistencyCategorizer(n_categories=3, seed=0)
        categories = categorizer.fit(tracker)
        # Identical feature rows collapse; tolerances stay within bounds.
        assert all(0.0 <= c.tolerated_stale_rate <= 1.0 for c in categories)

    def test_unknown_key_uses_the_default(self):
        categorizer = ConsistencyCategorizer(n_categories=2, seed=0)
        categorizer.fit(build_tracker())
        assert categorizer.tolerated_stale_rate_for("never-seen", default=0.33) == 0.33
        assert categorizer.category_of("never-seen") is None

    def test_empty_tracker_fits_to_nothing(self):
        categorizer = ConsistencyCategorizer()
        assert categorizer.fit(KeyAccessTracker()) == []
        assert categorizer.categories == []

    def test_summary_rows_sorted_by_tolerance(self):
        categorizer = ConsistencyCategorizer(n_categories=3, seed=1)
        categorizer.fit(build_tracker())
        rows = categorizer.summary()
        tolerances = [row["tolerated_stale_rate"] for row in rows]
        assert tolerances == sorted(tolerances)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ConsistencyCategorizer(n_categories=0)
        with pytest.raises(ValueError):
            ConsistencyCategorizer(strict_asr=0.9, relaxed_asr=0.1)
        with pytest.raises(ValueError):
            ConsistencyCategorizer(strict_asr=-0.1)


class TestCategorizedHarmonyPolicy:
    @pytest.fixture
    def cluster(self) -> SimulatedCluster:
        return SimulatedCluster(ClusterConfig(n_nodes=6, replication_factor=5, seed=3))

    @pytest.fixture
    def policy(self) -> CategorizedHarmonyPolicy:
        categorizer = ConsistencyCategorizer(
            n_categories=3, strict_asr=0.0, relaxed_asr=1.0, seed=1
        )
        categorizer.fit(build_tracker())
        return CategorizedHarmonyPolicy(
            categorizer,
            default_asr=0.4,
            config=HarmonyConfig(tolerated_stale_rate=0.4, monitoring_interval=0.05),
        )

    def test_before_attach_every_key_reads_at_one(self, policy):
        assert policy.level_for_key("hot0") is ConsistencyLevel.ONE
        assert policy.read_level() is ConsistencyLevel.ONE

    def test_categories_receive_different_levels_under_load(self, cluster, policy):
        plane = ControlPlane(cluster)
        plane.add(policy)
        plane.start()
        # Drive enough traffic that the shared estimate is clearly non-zero.
        for i in range(400):
            cluster.write(f"hot{i % 5}", "v", ConsistencyLevel.ONE)
            cluster.read(f"hot{i % 5}", ConsistencyLevel.ONE)
        cluster.engine.run_until(cluster.engine.now + 0.2)
        strict_level = policy.level_for_key("hot0")      # ASR = 0.0
        relaxed_level = policy.level_for_key("cold0")    # ASR = 1.0
        plane.stop()
        assert relaxed_level is ConsistencyLevel.ONE
        assert strict_level.blocked_for(5) > 1
        assert strict_level.blocked_for(5) >= relaxed_level.blocked_for(5)

    def test_unknown_keys_fall_back_to_the_default_asr(self, cluster, policy):
        plane = ControlPlane(cluster)
        plane.add(policy)
        plane.start()
        cluster.engine.run_until(cluster.engine.now + 0.1)
        level = policy.level_for_key("brand-new-key")
        plane.stop()
        assert level.blocked_for(5) >= 1

    def test_a_pinned_client_is_not_mistaken_for_a_key(self, cluster, policy):
        """``read_level`` takes a datacenter; the per-key method has its own name."""
        ControlPlane(cluster).add(policy)
        assert policy.read_level("dc1") is policy.read_level() is ConsistencyLevel.ONE

    def test_default_asr_validation(self):
        categorizer = ConsistencyCategorizer()
        with pytest.raises(ValueError):
            CategorizedHarmonyPolicy(categorizer, default_asr=1.5)
