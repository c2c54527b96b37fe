"""Unit tests for the latency histogram."""

from __future__ import annotations

import ast
import inspect

import numpy as np
import pytest

from repro.metrics import histogram as histogram_module
from repro.metrics.histogram import LatencyHistogram


def test_empty_histogram_reports_zeros():
    hist = LatencyHistogram()
    assert hist.count == 0
    assert hist.mean() == 0.0
    assert hist.p99() == 0.0
    assert hist.min() == 0.0
    assert hist.max() == 0.0
    assert hist.stddev() == 0.0


def test_basic_statistics():
    hist = LatencyHistogram()
    hist.record_many([0.001, 0.002, 0.003, 0.004])
    assert hist.count == 4
    assert hist.mean() == pytest.approx(0.0025)
    assert hist.min() == pytest.approx(0.001)
    assert hist.max() == pytest.approx(0.004)
    assert hist.total == pytest.approx(0.01)


def test_percentiles_match_numpy():
    values = list(np.linspace(0.001, 0.1, 500))
    hist = LatencyHistogram()
    hist.record_many(values)
    assert hist.percentile(50) == pytest.approx(float(np.percentile(values, 50)))
    assert hist.p99() == pytest.approx(float(np.percentile(values, 99)))
    assert hist.p95() == pytest.approx(float(np.percentile(values, 95)))


def test_percentile_bounds_validation():
    hist = LatencyHistogram()
    hist.record(0.001)
    with pytest.raises(ValueError):
        hist.percentile(-1)
    with pytest.raises(ValueError):
        hist.percentile(101)


def test_negative_latency_rejected():
    hist = LatencyHistogram()
    with pytest.raises(ValueError):
        hist.record(-0.001)


def test_summary_and_summary_ms():
    hist = LatencyHistogram()
    hist.record_many([0.010, 0.020])
    summary = hist.summary()
    assert summary["count"] == 2
    assert summary["mean"] == pytest.approx(0.015)
    summary_ms = hist.summary_ms()
    assert summary_ms["mean"] == pytest.approx(15.0)
    assert summary_ms["count"] == 2  # counts are not scaled


def test_merge_combines_samples():
    a = LatencyHistogram()
    a.record_many([0.001, 0.002])
    b = LatencyHistogram()
    b.record_many([0.003, 0.004])
    a.merge(b)
    assert a.count == 4
    assert a.max() == pytest.approx(0.004)
    assert a.mean() == pytest.approx(0.0025)


def test_stddev_of_constant_samples_is_zero():
    hist = LatencyHistogram()
    hist.record_many([0.005] * 10)
    assert hist.stddev() == pytest.approx(0.0)


def test_len_matches_count():
    hist = LatencyHistogram()
    hist.record_many([0.001] * 7)
    assert len(hist) == 7


def test_constructor_takes_no_reservoir_options():
    # Every sample is kept: there is no sampling mode to configure.
    with pytest.raises(TypeError):
        LatencyHistogram(reservoir_size=8)
    with pytest.raises(TypeError):
        LatencyHistogram(rng=np.random.default_rng(0))


def test_module_imports_no_numpy():
    tree = ast.parse(inspect.getsource(histogram_module))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module.split(".")[0])
    assert "numpy" not in imported


def test_sorted_samples_are_sorted_once_per_growth():
    hist = LatencyHistogram()
    hist.record_many([0.003, 0.001, 0.002])
    first = hist.sorted_samples()
    assert first.tolist() == [0.001, 0.002, 0.003]
    assert hist.sorted_samples() is first  # no growth: the same sorted array
    hist.record(0.0005)
    grown = hist.sorted_samples()
    assert grown.tolist() == [0.0005, 0.001, 0.002, 0.003]
    assert hist.percentile(0) == 0.0005
    other = LatencyHistogram()
    other.record(0.009)
    hist.merge(other)
    assert hist.sorted_samples().tolist() == [0.0005, 0.001, 0.002, 0.003, 0.009]
    assert hist.p99() == pytest.approx(float(np.percentile([0.0005, 0.001, 0.002, 0.003, 0.009], 99)))


@pytest.mark.parametrize("q", [0.0, 12.5, 50.0, 99.0, 100.0])
def test_a_single_sample_is_every_percentile(q):
    hist = LatencyHistogram()
    hist.record(0.042)
    assert hist.percentile(q) == 0.042
