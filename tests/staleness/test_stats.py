"""Unit tests for the quantitative staleness aggregates (t-visibility,
k-staleness) and the auditor's per-read quantification feeding them."""

from __future__ import annotations

import pytest

from repro.staleness.auditor import StalenessAuditor
from repro.staleness.stats import StalenessStats

from tests.staleness.test_auditor import read_result, write_result


class TestStalenessStats:
    def test_empty_stats_are_all_zero(self):
        stats = StalenessStats()
        assert stats.stale_rate() == 0.0
        assert stats.stale_beyond(0.0) == 0.0
        assert stats.t_visibility(0.0) == 1.0
        assert stats.age_percentile(99) == 0.0
        assert stats.k_histogram() == {}
        assert stats.max_k() == 0
        assert stats.mean_k() == 0.0

    def test_stale_beyond_at_zero_equals_stale_rate(self):
        stats = StalenessStats()
        for _ in range(6):
            stats.record_fresh()
        stats.record_stale(0.010, 1)
        stats.record_stale(0.030, 2)
        assert stats.stale_rate() == pytest.approx(0.25)
        assert stats.stale_beyond(0.0) == pytest.approx(0.25)

    def test_stale_beyond_counts_strictly_greater_ages(self):
        stats = StalenessStats()
        stats.record_fresh()
        stats.record_stale(0.010, 1)
        stats.record_stale(0.020, 1)
        stats.record_stale(0.040, 1)
        # Age exactly at t does not count as "beyond t".
        assert stats.stale_beyond(0.010) == pytest.approx(2 / 4)
        assert stats.stale_beyond(0.020) == pytest.approx(1 / 4)
        assert stats.stale_beyond(0.040) == 0.0

    def test_visibility_curve_is_monotone_and_reaches_one(self):
        stats = StalenessStats()
        for age in (0.003, 0.007, 0.007, 0.050):
            stats.record_stale(age, 1)
        for _ in range(4):
            stats.record_fresh()
        curve = stats.visibility_curve((0.0, 0.005, 0.010, 0.100))
        values = [row["visibility"] for row in curve]
        assert values == sorted(values)
        assert values[0] == pytest.approx(0.5)  # only fresh reads visible at t=0
        assert values[-1] == 1.0  # past the max age everything is visible

    def test_violations_beyond_matches_manual_count(self):
        stats = StalenessStats()
        for age in (0.001, 0.040, 0.060, 0.200):
            stats.record_stale(age, 1)
        assert stats.violations_beyond(0.050) == 2
        assert stats.violations_beyond(0.0) == 4
        assert stats.violations_beyond(1.0) == 0

    def test_age_percentile_nearest_rank_with_fresh_zeros(self):
        stats = StalenessStats()
        for _ in range(8):
            stats.record_fresh()
        stats.record_stale(0.010, 1)
        stats.record_stale(0.100, 2)
        # 10 judged reads: ranks 1..8 are the fresh zeros, 9 -> 10ms, 10 -> 100ms.
        assert stats.age_percentile(50) == 0.0
        assert stats.age_percentile(80) == 0.0
        assert stats.age_percentile(90) == pytest.approx(0.010)
        assert stats.age_percentile(99) == pytest.approx(0.100)
        assert stats.age_percentile(100) == pytest.approx(0.100)

    def test_age_percentile_rejects_out_of_range(self):
        stats = StalenessStats()
        stats.record_fresh()
        with pytest.raises(ValueError):
            stats.age_percentile(101)
        with pytest.raises(ValueError):
            stats.age_percentile(-1)

    def test_record_stale_clamps_degenerate_inputs(self):
        stats = StalenessStats()
        stats.record_stale(-0.5, 0)  # clock skew / caller bug: clamp, don't corrupt
        assert stats.stale_reads == 1
        assert stats.k_histogram() == {1: 1}
        assert stats.age_percentile(100) == 0.0

    def test_k_histogram_mixes_fresh_and_stale(self):
        stats = StalenessStats()
        stats.record_fresh()
        stats.record_fresh()
        stats.record_stale(0.01, 1)
        stats.record_stale(0.01, 3)
        assert stats.k_histogram() == {0: 2, 1: 1, 3: 1}
        assert stats.max_k() == 3
        assert stats.mean_k() == pytest.approx(1.0)

    def test_summary_is_flat_and_json_safe(self):
        stats = StalenessStats()
        stats.record_fresh()
        stats.record_stale(0.020, 2)
        summary = stats.summary()
        assert summary["judged"] == 2
        assert summary["stale"] == 1
        assert summary["stale_rate"] == pytest.approx(0.5)
        assert summary["k_max"] == 2
        assert all(isinstance(v, (int, float)) for v in summary.values())


    def test_summary_keys_are_the_report_contract(self):
        # Reports, benchmark JSON and the scorecard read these keys by name.
        assert list(StalenessStats().summary()) == [
            "judged",
            "stale",
            "stale_rate",
            "age_p50_ms",
            "age_p95_ms",
            "age_p99_ms",
            "age_max_ms",
            "stale_age_mean_ms",
            "k_max",
            "k_mean",
        ]

    def test_unknown_reads_stay_out_of_every_rate_and_aggregate(self):
        stats = StalenessStats()
        for _ in range(3):
            stats.record_unknown()
        stats.record_fresh()
        stats.record_stale(0.020, 2)
        assert (stats.unknown_reads, stats.judged_reads, stats.stale_reads) == (3, 2, 1)
        assert stats.stale_rate() == 0.5
        assert stats.stale_beyond(0.0) == 0.5
        assert stats.k_histogram() == {0: 1, 2: 1}
        assert stats.mean_k() == 1.0
        assert stats.age_percentile(50) == 0.0
        assert stats.age_percentile(100) == pytest.approx(0.020)
        assert stats.summary()["judged"] == 2

    def test_merge_adds_every_count_and_keeps_rates_over_judged_reads(self):
        a = StalenessStats()
        a.record_unknown()
        a.record_fresh()
        a.record_stale(0.030, 1)
        b = StalenessStats()
        b.record_unknown()
        b.record_unknown()
        b.record_stale(0.010, 3)
        a.merge(b)
        assert (a.unknown_reads, a.judged_reads, a.stale_reads) == (3, 3, 2)
        assert a.stale_rate() == 2 / 3
        assert a.k_histogram() == {0: 1, 1: 1, 3: 1}
        assert a.stale_age_histogram.sorted_samples().tolist() == [0.010, 0.030]
        assert a.violations_beyond(0.020) == 1


class TestAuditorQuantification:
    """The auditor must feed exact ages and version lags into the stats."""

    def test_stale_age_is_read_start_minus_missed_ack(self):
        auditor = StalenessAuditor()
        auditor.observe_write(write_result("k", ts=1.0, vid=0, completed_at=1.0))
        auditor.observe_write(write_result("k", ts=2.0, vid=1, completed_at=2.0))
        auditor.judge("k", read_result("k", 1.0, 0, started_at=2.25))
        assert auditor.stats.stale_reads == 1
        # Newest missed write (v1) acked at 2.0; read started at 2.25.
        assert auditor.stats.age_percentile(100) == pytest.approx(0.25)

    def test_version_lag_counts_acknowledged_newer_versions(self):
        auditor = StalenessAuditor()
        for vid in range(4):
            auditor.observe_write(
                write_result("k", ts=float(vid + 1), vid=vid, completed_at=float(vid + 1))
            )
        # Returned v0 while v1..v3 were acked before the read: k = 3.
        auditor.judge("k", read_result("k", 1.0, 0, started_at=5.0))
        assert auditor.stats.k_histogram() == {3: 1}

    def test_miss_counts_every_acknowledged_version(self):
        auditor = StalenessAuditor()
        auditor.observe_write(write_result("k", ts=1.0, vid=0, completed_at=1.0))
        auditor.observe_write(write_result("k", ts=2.0, vid=1, completed_at=2.0))
        auditor.judge("k", read_result("k", None, None, started_at=3.0))
        assert auditor.stats.k_histogram() == {2: 1}

    def test_fresh_reads_record_k_zero_and_unknown_reads_only_their_count(self):
        auditor = StalenessAuditor()
        auditor.judge("k", read_result("k", None, None, started_at=0.5))  # unknown
        auditor.observe_write(write_result("k", ts=1.0, vid=0, completed_at=1.0))
        auditor.judge("k", read_result("k", 1.0, 0, started_at=2.0))  # fresh
        assert auditor.stats.judged_reads == 1
        assert auditor.stats.unknown_reads == 1
        assert auditor.stats.k_histogram() == {0: 1}
        assert auditor.stats.stale_rate() == 0.0

    def test_per_dc_stats_split_by_coordinator_datacenter(self):
        auditor = StalenessAuditor()
        auditor.observe_write(write_result("k", ts=1.0, vid=0, completed_at=1.0))
        auditor.observe_write(write_result("k", ts=2.0, vid=1, completed_at=2.0))
        stale = read_result("k", 1.0, 0, started_at=3.0)
        stale.datacenter = "rennes"
        fresh = read_result("k", 2.0, 1, started_at=3.0)
        fresh.datacenter = "sophia"
        auditor.judge("k", stale)
        auditor.judge("k", fresh)
        assert auditor.stats.judged_reads == 2
        assert auditor.stats_by_dc["rennes"].stale_reads == 1
        assert auditor.stats_by_dc["sophia"].stale_reads == 0
        assert auditor.stats_by_dc["sophia"].judged_reads == 1

    def test_a_site_scope_is_created_at_its_first_read_whatever_the_verdict(self):
        auditor = StalenessAuditor()
        unknown = read_result("k", None, None, started_at=0.5)
        unknown.datacenter = "sophia"
        auditor.judge("k", unknown)
        auditor.observe_write(write_result("k", ts=1.0, vid=0, completed_at=1.0))
        fresh = read_result("k", 1.0, 0, started_at=2.0)
        fresh.datacenter = "rennes"
        auditor.judge("k", fresh)
        assert list(auditor.stats_by_dc) == ["sophia", "rennes"]
        sophia = auditor.stats_by_dc["sophia"]
        assert (sophia.judged_reads, sophia.unknown_reads) == (0, 1)
        assert sophia.summary() == StalenessStats().summary()
