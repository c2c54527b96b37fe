"""Property-based tests for the latency histogram and time series."""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.metrics.histogram import LatencyHistogram
from repro.metrics.series import TimeSeries

latencies = st.lists(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=300,
)


@given(values=latencies)
@settings(max_examples=150, deadline=None)
def test_histogram_summary_invariants(values):
    hist = LatencyHistogram()
    hist.record_many(values)
    # A tiny epsilon absorbs last-ulp float accumulation error in the running
    # mean (total / count) relative to the exact min/max.
    eps = 1e-9 * max(1.0, max(values))
    assert hist.count == len(values)
    assert hist.min() - eps <= hist.mean() <= hist.max() + eps
    assert hist.min() - eps <= hist.p50() <= hist.p99() <= hist.max() + eps
    assert np.isclose(hist.mean() * hist.count, sum(values))


@given(values=latencies, q1=st.floats(0, 100), q2=st.floats(0, 100))
@settings(max_examples=150, deadline=None)
def test_percentiles_are_monotone_in_q(values, q1, q2):
    hist = LatencyHistogram()
    hist.record_many(values)
    low, high = sorted((q1, q2))
    assert hist.percentile(low) <= hist.percentile(high) + 1e-12


# Few distinct values, so samples repeat; and q's ends, integers and fractions.
repeated_latencies = st.lists(
    st.sampled_from([0.0, 1e-3, 2.5e-3, 0.1, 7.0]) | st.floats(0.0, 10.0),
    min_size=1,
    max_size=60,
)
percentiles = (
    st.sampled_from([0.0, 50.0, 95.0, 99.0, 100.0]) | st.integers(0, 100) | st.floats(0, 100)
)


@given(values=latencies | repeated_latencies, q=percentiles)
@example(values=[0.25], q=0.0)
@example(values=[0.25], q=37.5)
@example(values=[0.25], q=100.0)
@example(values=[0.1, 0.1, 0.1, 0.3], q=62.5)
@example(values=[0.0, 1.0, 2.0, 3.0], q=10.0)  # 3 * (10 / 100), not 3 * 10 / 100
@settings(max_examples=400, deadline=None)
def test_percentile_is_numpys_linear_rule_to_the_bit(values, q):
    hist = LatencyHistogram()
    hist.record_many(values)
    assert hist.percentile(q) == float(np.percentile(values, q))


@given(a=latencies, b=latencies, q=percentiles)
@settings(max_examples=100, deadline=None)
def test_recording_and_merging_after_a_query_are_seen_by_the_next(a, b, q):
    hist = LatencyHistogram()
    hist.record_many(a)
    assert hist.percentile(q) == float(np.percentile(a, q))
    other = LatencyHistogram()
    other.record_many(b)
    hist.merge(other)
    assert hist.percentile(q) == float(np.percentile(a + b, q))
    hist.record(b[0])
    assert hist.percentile(q) == float(np.percentile(a + b + b[:1], q))


@given(a=latencies, b=latencies)
@settings(max_examples=100, deadline=None)
def test_merging_is_equivalent_to_recording_everything(a, b):
    merged = LatencyHistogram()
    merged.record_many(a)
    other = LatencyHistogram()
    other.record_many(b)
    merged.merge(other)

    reference = LatencyHistogram()
    reference.record_many(a + b)
    assert merged.count == reference.count
    assert np.isclose(merged.mean(), reference.mean())
    assert np.isclose(merged.p99(), reference.p99())


@given(
    values=st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=1000, allow_nan=False),
            st.floats(min_value=-100, max_value=100, allow_nan=False),
        ),
        min_size=1,
        max_size=100,
    )
)
@settings(max_examples=100, deadline=None)
def test_time_series_statistics_are_bounded_by_extremes(values):
    samples = sorted(values, key=lambda pair: pair[0])
    series = TimeSeries("prop")
    series.extend(samples)
    # Absorb last-ulp float error for pathological values (e.g. subnormals).
    span = max(1e-12, abs(series.max()), abs(series.min()))
    eps = 1e-9 * span
    assert series.min() - eps <= series.mean() <= series.max() + eps
    assert series.min() - eps <= series.time_weighted_mean() <= series.max() + eps
    assert len(series) == len(samples)
