"""Unit tests for the time series container."""

from __future__ import annotations

import numpy as np
import pytest

from repro.metrics.series import TimeSeries


def test_append_and_iterate():
    series = TimeSeries("x")
    series.append(0.0, 1.0)
    series.append(1.0, 2.0)
    assert len(series) == 2
    assert list(series) == [(0.0, 1.0), (1.0, 2.0)]
    assert series.last() == (1.0, 2.0)


def test_times_must_be_non_decreasing():
    series = TimeSeries()
    series.append(1.0, 0.5)
    with pytest.raises(ValueError):
        series.append(0.5, 0.7)
    series.append(1.0, 0.9)  # equal timestamps are allowed


def test_extend():
    series = TimeSeries()
    series.extend([(0.0, 1.0), (2.0, 3.0)])
    assert len(series) == 2


def test_statistics():
    series = TimeSeries()
    series.extend([(0.0, 1.0), (1.0, 3.0), (2.0, 5.0)])
    assert series.mean() == pytest.approx(3.0)
    assert series.max() == pytest.approx(5.0)
    assert series.min() == pytest.approx(1.0)


def test_empty_series_statistics_are_zero():
    series = TimeSeries()
    assert series.mean() == 0.0
    assert series.max() == 0.0
    assert series.min() == 0.0
    assert series.last() is None
    assert series.time_weighted_mean() == 0.0


def test_time_weighted_mean_weights_by_holding_time():
    series = TimeSeries()
    # value 0.0 holds for 9 seconds, value 1.0 for 1 second, last sample has
    # no holding period.
    series.extend([(0.0, 0.0), (9.0, 1.0), (10.0, 2.0)])
    assert series.time_weighted_mean() == pytest.approx((0.0 * 9 + 1.0 * 1) / 10)


def test_arrays():
    series = TimeSeries("y")
    series.extend([(0.0, 1.0), (1.0, 2.0)])
    assert isinstance(series.times, np.ndarray)
    assert series.values.tolist() == [1.0, 2.0]
