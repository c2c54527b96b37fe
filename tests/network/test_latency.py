"""Unit tests for the latency models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.network.latency import (
    ConstantLatency,
    EC2LikeLatency,
    Grid5000LikeLatency,
    LogNormalLatency,
    SpikyLatency,
)


@pytest.fixture
def rng():
    return np.random.default_rng(123)


def test_constant_latency_always_returns_the_same_value(rng):
    model = ConstantLatency(0.005)
    assert model.sample(rng) == 0.005
    assert model.mean() == 0.005
    assert np.all(model.sample_many(rng, 10) == 0.005)


def test_constant_latency_rejects_negative_values():
    with pytest.raises(ValueError):
        ConstantLatency(-1.0)


def test_lognormal_latency_positive_and_floor_respected(rng):
    model = LogNormalLatency(median=0.001, sigma=0.5, floor=0.0005)
    samples = model.sample_many(rng, 2000)
    assert np.all(samples >= 0.0005)
    # The sample mean should be in the vicinity of the analytic mean.
    assert np.mean(samples) == pytest.approx(model.mean(), rel=0.15)


def test_lognormal_rejects_bad_parameters():
    with pytest.raises(ValueError):
        LogNormalLatency(median=0.0)
    with pytest.raises(ValueError):
        LogNormalLatency(median=0.001, sigma=-1)


def test_spiky_latency_mean_accounts_for_spikes(rng):
    base = ConstantLatency(0.001)
    model = SpikyLatency(base, spike_probability=0.5, spike_factor=3.0)
    assert model.mean() == pytest.approx(0.001 * (0.5 + 0.5 * 3.0))
    samples = [model.sample(rng) for _ in range(2000)]
    spikes = sum(1 for s in samples if s > 0.002)
    assert 800 < spikes < 1200  # roughly half


def test_spiky_latency_validates_parameters():
    base = ConstantLatency(0.001)
    with pytest.raises(ValueError):
        SpikyLatency(base, spike_probability=1.5)
    with pytest.raises(ValueError):
        SpikyLatency(base, spike_factor=0.5)


def test_ec2_preset_is_roughly_five_times_grid5000():
    ratio = EC2LikeLatency.DEFAULT_MEDIAN / Grid5000LikeLatency.DEFAULT_MEDIAN
    assert ratio == pytest.approx(5.0)


def test_ec2_preset_has_higher_mean_than_grid5000():
    assert EC2LikeLatency().mean() > Grid5000LikeLatency().mean()


def test_describe_mentions_mean():
    text = ConstantLatency(0.004).describe()
    assert "4.000ms" in text


class TestSampleManyIsVectorised:
    """Every shipped distribution must implement a true vectorised
    ``sample_many`` -- the fabric's latency pools call it in blocks, and a
    per-element fallback through ``sample`` would put one Python/NumPy call
    per message back on the hot path."""

    @staticmethod
    def _shipped_models():
        return [
            ConstantLatency(0.005),
            LogNormalLatency(median=0.001, sigma=0.3),
            SpikyLatency(LogNormalLatency(median=0.001), spike_probability=0.05),
            Grid5000LikeLatency(),
            EC2LikeLatency(),
        ]

    def test_no_per_element_sample_calls(self, rng, monkeypatch):
        models = self._shipped_models()
        # Poison every shipped class's scalar path: if any sample_many
        # implementation falls back to the base per-element loop, it raises.
        def poisoned(self, rng):  # pragma: no cover - the assertion itself
            raise AssertionError(
                f"{type(self).__name__}.sample_many fell back to per-element sample()"
            )

        seen = set()
        for model in models:
            stack = [type(model)]
            while stack:
                cls = stack.pop()
                if cls in seen or cls is object:
                    continue
                seen.add(cls)
                if "sample" in cls.__dict__:
                    monkeypatch.setattr(cls, "sample", poisoned)
                stack.extend(cls.__mro__[1:2])
        for model in models:
            values = model.sample_many(rng, 257)
            assert values.shape == (257,)
            assert np.all(values >= 0.0)

    def test_sample_many_matches_scalar_distribution(self):
        for model in self._shipped_models():
            r1 = np.random.default_rng(9)
            r2 = np.random.default_rng(9)
            loop = np.array([model.sample(r1) for _ in range(4000)])
            vec = model.sample_many(r2, 4000)
            assert vec.mean() == pytest.approx(loop.mean(), rel=0.15)

    def test_base_class_fallback_still_works_for_third_party_models(self, rng):
        from repro.network.latency import LatencyModel

        class Custom(LatencyModel):
            def sample(self, rng):
                return 0.007

            def mean(self):
                return 0.007

        values = Custom().sample_many(rng, 5)
        assert np.all(values == 0.007)
