"""Unit tests for the YCSB-style key choosers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.workload.distributions import (
    LatestKeyChooser,
    ScrambledZipfianKeyChooser,
    UniformKeyChooser,
    ZipfianGenerator,
    fnv1a_64,
    make_key_chooser,
)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def draw(chooser, rng, n=5000):
    return np.array([chooser.next_index(rng) for _ in range(n)])


class TestUniform:
    def test_range_and_rough_uniformity(self, rng):
        chooser = UniformKeyChooser(100)
        samples = draw(chooser, rng, 20_000)
        assert samples.min() >= 0
        assert samples.max() < 100
        counts = np.bincount(samples, minlength=100)
        assert counts.min() > 100  # every key hit a reasonable number of times

    def test_item_count_validation(self):
        with pytest.raises(ValueError):
            UniformKeyChooser(0)


class TestZipfian:
    def test_low_indices_are_most_popular(self, rng):
        chooser = ZipfianGenerator(1000, theta=0.99)
        samples = draw(chooser, rng, 20_000)
        counts = np.bincount(samples, minlength=1000)
        assert counts[0] == counts.max()
        # The head of the distribution carries a large share of the traffic.
        assert counts[:10].sum() > 0.3 * len(samples)

    def test_all_samples_within_range(self, rng):
        chooser = ZipfianGenerator(50)
        samples = draw(chooser, rng, 5000)
        assert samples.min() >= 0
        assert samples.max() < 50

    def test_lower_theta_is_less_skewed(self, rng):
        skewed = ZipfianGenerator(500, theta=0.99)
        flat = ZipfianGenerator(500, theta=0.5)
        top_skewed = np.bincount(draw(skewed, rng, 10_000), minlength=500)[0]
        top_flat = np.bincount(draw(flat, rng, 10_000), minlength=500)[0]
        assert top_skewed > top_flat

    def test_theta_validation(self):
        with pytest.raises(ValueError):
            ZipfianGenerator(10, theta=1.0)
        with pytest.raises(ValueError):
            ZipfianGenerator(10, theta=0.0)

    def test_grow_extends_the_range(self, rng):
        chooser = ZipfianGenerator(10)
        chooser.grow(1000)
        samples = draw(chooser, rng, 5000)
        assert samples.max() > 9  # new keys are reachable

    def test_grow_cannot_shrink(self):
        chooser = ZipfianGenerator(10)
        with pytest.raises(ValueError):
            chooser.grow(5)


class TestScrambledZipfian:
    def test_popularity_is_spread_across_the_key_space(self, rng):
        chooser = ScrambledZipfianKeyChooser(1000)
        samples = draw(chooser, rng, 20_000)
        counts = np.bincount(samples, minlength=1000)
        hottest = int(np.argmax(counts))
        # The hottest key is skewed (zipfian) but not necessarily index 0.
        assert counts[hottest] > 5 * np.median(counts[counts > 0])
        # Hot keys are spread out: the top-5 keys are not all in the first 10 indices.
        top5 = np.argsort(counts)[-5:]
        assert not np.all(top5 < 10)

    def test_within_range(self, rng):
        chooser = ScrambledZipfianKeyChooser(77)
        samples = draw(chooser, rng, 3000)
        assert samples.min() >= 0
        assert samples.max() < 77


class TestLatest:
    def test_newest_keys_are_most_popular(self, rng):
        chooser = LatestKeyChooser(1000)
        samples = draw(chooser, rng, 20_000)
        counts = np.bincount(samples, minlength=1000)
        assert counts[-1] == counts.max()
        assert counts[-10:].sum() > counts[:10].sum()

    def test_grow_shifts_popularity_to_new_keys(self, rng):
        chooser = LatestKeyChooser(100)
        chooser.grow(200)
        samples = draw(chooser, rng, 10_000)
        counts = np.bincount(samples, minlength=200)
        assert counts[199] == counts.max()


class TestFactoryAndHash:
    def test_factory_builds_each_kind(self):
        for name, cls in (
            ("uniform", UniformKeyChooser),
            ("zipfian", ScrambledZipfianKeyChooser),
            ("zipfian_clustered", ZipfianGenerator),
            ("latest", LatestKeyChooser),
        ):
            assert isinstance(make_key_chooser(name, 10), cls)

    def test_factory_rejects_unknown_names(self):
        with pytest.raises(ValueError):
            make_key_chooser("nope", 10)

    def test_fnv_hash_is_deterministic_and_64bit(self):
        assert fnv1a_64(12345) == fnv1a_64(12345)
        assert fnv1a_64(1) != fnv1a_64(2)
        assert 0 <= fnv1a_64(999) < 2**64
