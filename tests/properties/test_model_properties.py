"""Property-based tests (hypothesis) for the stale-read estimation model.

The closed form of paper Eq. (6)/(8) has clean mathematical properties:
probabilities stay in [0, 1]; the estimate is monotone in the propagation
time, the write rate and (inversely) the number of read replicas; the
required replica count stays within [1, N] and is monotone (inversely) in
the tolerated rate.  Hypothesis explores the parameter space for violations.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control.estimator import StalenessEstimator
from repro.control.monitor import propagation_time

# Parameter ranges representative of the simulation and of the paper's
# platforms (rates up to tens of thousands of ops/s, propagation times up to
# hundreds of milliseconds, replication factors up to 9).
rates = st.floats(min_value=0.0, max_value=50_000.0, allow_nan=False, allow_infinity=False)
positive_rates = st.floats(min_value=0.01, max_value=50_000.0, allow_nan=False)
propagation_times = st.floats(min_value=0.0, max_value=0.5, allow_nan=False)
replication_factors = st.integers(min_value=1, max_value=9)
tolerated = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@given(n=replication_factors, lr=rates, wr=rates, tp=propagation_times)
@settings(max_examples=300, deadline=None)
def test_probability_is_always_a_probability(n, lr, wr, tp):
    model = StalenessEstimator({None: n})
    p = model.estimate(lr, wr, tp).probability
    assert 0.0 <= p <= 1.0
    assert not math.isnan(p)


@given(n=replication_factors, lr=positive_rates, wr=positive_rates, tp=propagation_times,
       asr=tolerated)
@settings(max_examples=300, deadline=None)
def test_required_replicas_always_within_bounds(n, lr, wr, tp, asr):
    model = StalenessEstimator({None: n})
    xn = model.estimate(lr, wr, tp, tolerated_stale_rate=asr).required_replicas
    assert 1 <= xn <= n


@given(n=replication_factors, lr=positive_rates, wr=positive_rates,
       tp1=propagation_times, tp2=propagation_times)
@settings(max_examples=200, deadline=None)
def test_probability_monotone_in_propagation_time(n, lr, wr, tp1, tp2):
    model = StalenessEstimator({None: n})
    low, high = sorted((tp1, tp2))
    assert model.estimate(lr, wr, low).probability <= model.estimate(
        lr, wr, high
    ).probability + 1e-12


@given(n=replication_factors, lr=positive_rates, wr1=positive_rates, wr2=positive_rates,
       tp=propagation_times)
@settings(max_examples=200, deadline=None)
def test_probability_monotone_in_write_rate(n, lr, wr1, wr2, tp):
    model = StalenessEstimator({None: n})
    low, high = sorted((wr1, wr2))
    assert model.estimate(lr, low, tp).probability <= model.estimate(
        lr, high, tp
    ).probability + 1e-12


@given(n=st.integers(min_value=2, max_value=9), lr=positive_rates, wr=positive_rates,
       tp=propagation_times)
@settings(max_examples=200, deadline=None)
def test_probability_decreases_as_more_replicas_are_read(n, lr, wr, tp):
    model = StalenessEstimator({None: n})
    values = [
        model.estimate(lr, wr, tp, read_replicas=x).probability for x in range(1, n + 1)
    ]
    for earlier, later in zip(values, values[1:]):
        assert later <= earlier + 1e-12
    assert values[-1] == 0.0  # reading every replica can never be stale


@given(n=replication_factors, lr=positive_rates, wr=positive_rates, tp=propagation_times,
       asr1=tolerated, asr2=tolerated)
@settings(max_examples=200, deadline=None)
def test_required_replicas_monotone_in_tolerance(n, lr, wr, tp, asr1, asr2):
    model = StalenessEstimator({None: n})
    low, high = sorted((asr1, asr2))
    assert model.estimate(
        lr, wr, tp, tolerated_stale_rate=high
    ).required_replicas <= model.estimate(lr, wr, tp, tolerated_stale_rate=low).required_replicas


@given(n=replication_factors, lr=positive_rates, wr=positive_rates, tp=propagation_times)
@settings(max_examples=200, deadline=None)
def test_decision_rule_consistency(n, lr, wr, tp):
    """If the tolerance is at least the estimate, one replica suffices; with
    zero tolerance under real load, every replica is required."""
    model = StalenessEstimator({None: n})
    estimate = model.estimate(lr, wr, tp, tolerated_stale_rate=0.0)
    if estimate.probability > 0:
        assert estimate.required_replicas == n
    covering = model.estimate(
        lr, wr, tp, tolerated_stale_rate=min(1.0, estimate.probability)
    ).required_replicas
    assert covering == 1


@given(n=replication_factors, lr=positive_rates, wr=positive_rates, tp=propagation_times,
       asr=tolerated)
@settings(max_examples=200, deadline=None)
def test_reading_xn_replicas_meets_the_tolerance(n, lr, wr, tp, asr):
    """Plugging Xn back into the probability formula satisfies the target."""
    model = StalenessEstimator({None: n})
    xn = model.estimate(lr, wr, tp, tolerated_stale_rate=asr).required_replicas
    achieved = model.estimate(lr, wr, tp, read_replicas=xn).probability
    # Clamping the X=1 probability to 1.0 can make the short-circuit branch
    # (asr >= probability -> one replica) slightly optimistic; outside that
    # branch the guarantee is exact.
    if xn > 1 or asr >= 1.0 or model.estimate(lr, wr, tp).probability <= asr:
        assert achieved <= asr + 1e-9


@given(lat=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
       size=st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
       overhead=st.floats(min_value=0.0, max_value=0.1, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_propagation_time_is_nonnegative_and_additive(lat, size, overhead):
    tp = propagation_time(lat, avg_write_size=size, overhead=overhead)
    assert tp >= lat
    assert tp >= overhead
    assert tp == propagation_time(lat) + size / 125_000_000.0 + overhead
