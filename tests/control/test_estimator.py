"""Unit tests for the staleness estimator: Eq. 1-8, scopes, the write-aware form."""

from __future__ import annotations

import math

import pytest

from repro.control.estimator import StalenessEstimator
from repro.control.monitor import propagation_time

from tests.control.conftest import make_sample


def closed_form(n, read_rate, write_rate, tp, **kwargs):
    """One cluster-scope evaluation of the closed form."""
    return StalenessEstimator({None: n}).estimate(read_rate, write_rate, tp, **kwargs)


def stale_probability(n, read_rate, write_rate, tp, **kwargs):
    return closed_form(n, read_rate, write_rate, tp, **kwargs).probability


def required_replicas(n, read_rate, write_rate, tp, asr):
    return closed_form(n, read_rate, write_rate, tp, tolerated_stale_rate=asr).required_replicas


class TestPropagationTime:
    def test_pure_latency(self):
        assert propagation_time(0.001) == pytest.approx(0.001)

    def test_write_size_adds_transfer_time(self):
        # 125000 bytes at 1 Gbit/s is one millisecond.
        assert propagation_time(0.001, avg_write_size=125_000) == pytest.approx(0.002)

    def test_overhead_is_added(self):
        assert propagation_time(0.001, overhead=0.0005) == pytest.approx(0.0015)

    def test_validation(self):
        with pytest.raises(ValueError):
            propagation_time(-0.001)
        with pytest.raises(ValueError):
            propagation_time(0.001, avg_write_size=-1)
        with pytest.raises(ValueError):
            propagation_time(0.001, bandwidth_bytes_per_s=0)
        with pytest.raises(ValueError):
            propagation_time(0.001, overhead=-1)


class TestStaleReadProbability:
    def test_matches_closed_form_equation_6(self):
        """Direct check against the paper's Eq. (6)."""
        n, lambda_r, write_rate, tp = 5, 200.0, 100.0, 0.005
        lambda_w = 1.0 / write_rate
        expected = ((n - 1) * (1 - math.exp(-lambda_r * tp)) * (1 + lambda_r * lambda_w)) / (
            n * lambda_r * lambda_w
        )
        assert stale_probability(n, lambda_r, write_rate, tp) == pytest.approx(min(1.0, expected))

    def test_probability_is_clamped_to_one(self):
        estimate = closed_form(5, 100_000, 100_000, 0.5)
        assert estimate.probability == 1.0
        assert estimate.raw_probability > 1.0

    def test_no_reads_means_no_stale_reads(self):
        assert stale_probability(3, 0.0, 100.0, 0.01) == 0.0

    def test_no_writes_means_no_stale_reads(self):
        assert stale_probability(3, 100.0, 0.0, 0.01) == 0.0

    def test_zero_propagation_time_means_no_stale_reads(self):
        assert stale_probability(3, 100.0, 100.0, 0.0) == 0.0

    def test_single_replica_never_stale(self):
        assert stale_probability(1, 1000.0, 1000.0, 0.1) == 0.0

    def test_reading_all_replicas_never_stale(self):
        assert stale_probability(5, 1000.0, 1000.0, 0.1, read_replicas=5) == 0.0

    def test_probability_increases_with_propagation_time(self):
        probabilities = [
            stale_probability(5, 200.0, 100.0, tp) for tp in (0.0001, 0.001, 0.01, 0.05)
        ]
        assert probabilities == sorted(probabilities)

    def test_probability_increases_with_write_rate(self):
        probabilities = [stale_probability(5, 200.0, wr, 0.002) for wr in (10, 50, 200, 1000)]
        assert probabilities == sorted(probabilities)

    def test_probability_decreases_with_read_replicas(self):
        probabilities = [
            stale_probability(5, 500.0, 500.0, 0.002, read_replicas=x) for x in (1, 2, 3, 4, 5)
        ]
        assert probabilities == sorted(probabilities, reverse=True)
        assert probabilities[-1] == 0.0

    def test_high_read_rate_limit_approaches_n_minus_1_over_n(self):
        # One write every 10 s against a million reads per second.
        assert stale_probability(5, 1e6, 0.1, 0.01) == pytest.approx(4 / 5, rel=0.01)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            stale_probability(3, -1.0, 10.0, 0.01)
        with pytest.raises(ValueError):
            stale_probability(3, 1.0, -10.0, 0.01)
        with pytest.raises(ValueError):
            stale_probability(3, 1.0, 10.0, -0.01)
        with pytest.raises(ValueError):
            stale_probability(3, 1.0, 10.0, 0.01, read_replicas=0)
        with pytest.raises(ValueError):
            stale_probability(3, 1.0, 10.0, 0.01, read_replicas=4)
        with pytest.raises(ValueError):
            StalenessEstimator({None: 0})


class TestRequiredReplicas:
    def test_zero_tolerance_requires_all_replicas(self):
        assert required_replicas(5, 200.0, 100.0, 0.01, asr=0.0) == 5

    def test_full_tolerance_requires_one_replica(self):
        assert required_replicas(5, 200.0, 100.0, 0.01, asr=1.0) == 1

    def test_idle_workload_requires_one_replica(self):
        assert required_replicas(5, 0.0, 0.0, 0.01, asr=0.0) == 1

    def test_required_replicas_monotone_in_tolerance(self):
        values = [
            required_replicas(5, 500.0, 400.0, 0.005, asr=asr)
            for asr in (0.0, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0)
        ]
        assert values == sorted(values, reverse=True)

    def test_required_replicas_bounded_by_replication_factor(self):
        for n in (1, 3, 5, 7):
            for asr in (0.0, 0.3, 0.9):
                xn = required_replicas(n, 1000.0, 1000.0, 0.05, asr=asr)
                assert 1 <= xn <= n

    def test_consistency_between_xn_and_probability(self):
        """Setting the tolerance exactly at the X=1 estimate yields Xn == 1."""
        p1 = stale_probability(5, 300.0, 200.0, 0.004)
        assert required_replicas(5, 300.0, 200.0, 0.004, asr=p1 + 1e-9) == 1

    def test_matches_closed_form_equation_8(self):
        n, lambda_r, write_rate, tp, asr = 5, 400.0, 250.0, 0.003, 0.25
        lambda_w = 1.0 / write_rate
        d = (1 - math.exp(-lambda_r * tp)) * (1 + lambda_r * lambda_w)
        expected_raw = n * (d - asr * lambda_r * lambda_w) / d
        estimate = closed_form(n, lambda_r, write_rate, tp, tolerated_stale_rate=asr)
        assert estimate.raw_required_replicas == pytest.approx(expected_raw)
        assert estimate.required_replicas == max(1, min(n, math.ceil(expected_raw - 1e-12)))

    def test_invalid_tolerance_rejected(self):
        with pytest.raises(ValueError):
            required_replicas(3, 1.0, 1.0, 0.1, asr=1.5)


class TestEstimateObject:
    def test_estimate_echoes_inputs(self):
        estimate = closed_form(3, 100.0, 50.0, 0.002, tolerated_stale_rate=0.3)
        assert estimate.read_rate == 100.0
        assert estimate.write_interarrival == pytest.approx(1 / 50.0)
        assert estimate.propagation == 0.002
        assert 0.0 <= estimate.probability <= 1.0
        assert 1 <= estimate.required_replicas <= 3


class TestScopes:
    def test_cluster_and_per_dc_scopes(self):
        estimator = StalenessEstimator({None: 5, "rennes": 3, "sophia": 2})
        assert estimator.replication_factor() == 5
        assert estimator.replication_factor("rennes") == 3
        assert estimator.replication_factor("sophia") == 2

    def test_replica_less_scope_dropped(self):
        estimator = StalenessEstimator({None: 5, "empty": 0})
        with pytest.raises(ValueError, match="no replicas"):
            estimator.evaluate(make_sample(10.0, 10.0, 0.001), 0.2, scope="empty")

    def test_no_scopes_rejected(self):
        with pytest.raises(ValueError):
            StalenessEstimator({"empty": 0})


class TestDecisionShortcut:
    def test_matches_the_closed_form_on_the_sample(self):
        estimator = StalenessEstimator({None: 5})
        sample = make_sample(3000.0, 2000.0, 0.0004)
        estimate, replicas = estimator.decide_replicas(sample, 0.25)
        expected = estimator.estimate(
            read_rate=sample.read_rate,
            write_rate=sample.write_rate,
            propagation_time=sample.propagation_time,
            tolerated_stale_rate=0.25,
        )
        assert estimate.probability == expected.probability
        if 0.25 >= expected.probability:
            assert replicas == 1
        else:
            assert replicas == expected.required_replicas

    def test_tolerant_application_reads_one_replica(self):
        estimator = StalenessEstimator({None: 3})
        _, replicas = estimator.decide_replicas(make_sample(5000.0, 5000.0, 0.01), 1.0)
        assert replicas == 1

    def test_zero_tolerance_under_load_reads_all(self):
        estimator = StalenessEstimator({None: 3})
        _, replicas = estimator.decide_replicas(make_sample(2000.0, 2000.0, 0.01), 0.0)
        assert replicas == 3


class TestWriteAwareGeneralization:
    def test_w1_matches_paper_closed_form(self):
        """With one written replica the generalization IS the paper's model."""
        estimator = StalenessEstimator({None: 5})
        sample = make_sample(800.0, 600.0, 0.004)
        for x in range(1, 6):
            general = estimator.stale_probability_rw(sample, read_replicas=x, write_replicas=1)
            paper = estimator.estimate(
                read_rate=sample.read_rate,
                write_rate=sample.write_rate,
                propagation_time=sample.propagation_time,
                read_replicas=x,
            ).probability
            assert general == pytest.approx(paper, rel=1e-12)

    def test_more_written_replicas_lower_staleness(self):
        estimator = StalenessEstimator({None: 5})
        sample = make_sample(800.0, 600.0, 0.004)
        probs = [
            estimator.stale_probability_rw(sample, read_replicas=1, write_replicas=w)
            for w in range(1, 6)
        ]
        assert all(a >= b for a, b in zip(probs, probs[1:]))

    def test_guaranteed_overlap_is_never_stale(self):
        """X + W > N forces the read set to intersect the written set."""
        estimator = StalenessEstimator({None: 5})
        sample = make_sample(8000.0, 8000.0, 0.05)  # extreme load
        assert estimator.stale_probability_rw(sample, read_replicas=3, write_replicas=3) == 0.0
        assert estimator.stale_probability_rw(sample, read_replicas=5, write_replicas=1) == 0.0

    def test_hypergeometric_factor_exact(self):
        """p(X, W) / p(1, 1) equals C(N-W, X)/C(N, X) / ((N-1)/N)."""
        estimator = StalenessEstimator({None: 5})
        sample = make_sample(50.0, 40.0, 0.001)  # mild load: probabilities unclamped
        base = estimator.stale_probability_rw(sample, read_replicas=1, write_replicas=1)
        p22 = estimator.stale_probability_rw(sample, read_replicas=2, write_replicas=2)
        expected_ratio = (math.comb(3, 2) / math.comb(5, 2)) / (4 / 5)
        assert p22 / base == pytest.approx(expected_ratio, rel=1e-9)

    def test_single_replica_scope_never_stale(self):
        estimator = StalenessEstimator({"tiny": 1})
        sample = make_sample(5000.0, 5000.0, 0.01, datacenter="tiny")
        assert (
            estimator.stale_probability_rw(
                sample, read_replicas=1, write_replicas=1, scope="tiny"
            )
            == 0.0
        )

    def test_idle_workload_never_stale(self):
        estimator = StalenessEstimator({None: 5})
        sample = make_sample(0.0, 0.0, 0.01)
        assert estimator.stale_probability_rw(sample, read_replicas=1, write_replicas=1) == 0.0

    def test_out_of_range_replicas_rejected(self):
        estimator = StalenessEstimator({None: 3})
        sample = make_sample(10.0, 10.0, 0.001)
        with pytest.raises(ValueError):
            estimator.stale_probability_rw(sample, read_replicas=0, write_replicas=1)
        with pytest.raises(ValueError):
            estimator.stale_probability_rw(sample, read_replicas=1, write_replicas=4)
