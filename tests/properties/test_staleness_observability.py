"""Property tests for the quantitative staleness observables on real runs.

These pin the relationships the observability layer is supposed to
guarantee, measured on actual (small) simulated runs rather than synthetic
aggregates:

* t-visibility is a CDF: monotone non-decreasing in ``t``, bounded by the
  stale rate at ``t = 0`` and reaching 1 past the largest staleness age;
* a quorum/quorum configuration collapses k-staleness to ``k = 0`` exactly
  (overlap is a theorem, not a tendency);
* the per-DC aggregates are consistent with both the cluster-wide ones and
  the :class:`~repro.faults.timeline.FaultTimeline`'s windowed view of the
  same run -- two independent recording paths must tell one story.
"""

from __future__ import annotations

import math

import pytest

from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import GRID5000_3SITES, GRID5000_3SITES_FAULTS
from repro.workload.workloads import WORKLOAD_A

WORKLOAD = WORKLOAD_A.scaled(record_count=60, operation_count=500)


@pytest.fixture(scope="module")
def eventual_run():
    return run_experiment(
        GRID5000_3SITES,
        WORKLOAD,
        "eventual",
        10,
        seed=19,
        datacenters=GRID5000_3SITES.datacenter_names,
    )


@pytest.fixture(scope="module")
def fault_run():
    return run_experiment(
        GRID5000_3SITES_FAULTS,
        WORKLOAD,
        "eventual",
        10,
        seed=19,
        datacenters=GRID5000_3SITES_FAULTS.datacenter_names,
    )


class TestTVisibilityIsACDF:
    def test_monotone_non_decreasing(self, eventual_run):
        stats = eventual_run.metrics.staleness
        assert stats.judged_reads > 100  # the run produced a real sample
        grid = [0.0, 1e-4, 1e-3, 2e-3, 5e-3, 1e-2, 5e-2, 1e-1, 1.0]
        values = [stats.t_visibility(t) for t in grid]
        assert values == sorted(values)
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_anchored_at_stale_rate_and_one(self, eventual_run):
        stats = eventual_run.metrics.staleness
        assert stats.t_visibility(0.0) == pytest.approx(1.0 - stats.stale_rate())
        assert stats.t_visibility(math.inf) == 1.0

    def test_ages_are_strictly_positive_and_bounded_by_the_run(self, eventual_run):
        stats = eventual_run.metrics.staleness
        assert stats.stale_reads > 0  # eventual consistency on a WAN: staleness exists
        assert stats.age_percentile(100) > 0.0
        assert stats.age_percentile(100) <= eventual_run.metrics.duration

    def test_per_dc_curves_are_cdfs_too(self, eventual_run):
        by_dc = eventual_run.metrics.staleness_by_dc
        assert set(by_dc) == set(GRID5000_3SITES.datacenter_names)
        for stats in by_dc.values():
            values = [stats.t_visibility(t) for t in (0.0, 1e-3, 1e-2, 1e-1)]
            assert values == sorted(values)


class TestQuorumCollapsesStaleness:
    def test_k_staleness_is_exactly_zero(self):
        result = run_experiment(
            GRID5000_3SITES,
            WORKLOAD,
            "quorum",
            10,
            seed=19,
            datacenters=GRID5000_3SITES.datacenter_names,
        )
        stats = result.metrics.staleness
        assert stats.judged_reads > 100
        assert stats.stale_reads == 0
        assert stats.max_k() == 0
        assert set(stats.k_histogram()) <= {0}
        assert stats.t_visibility(0.0) == 1.0


class TestScopesAgree:
    def test_per_dc_stats_partition_the_cluster_stats(self, eventual_run):
        stats = eventual_run.metrics.staleness
        by_dc = eventual_run.metrics.staleness_by_dc
        assert sum(s.judged_reads for s in by_dc.values()) == stats.judged_reads
        assert sum(s.stale_reads for s in by_dc.values()) == stats.stale_reads
        merged = {}
        for dc_stats in by_dc.values():
            for k, count in dc_stats.k_histogram().items():
                merged[k] = merged.get(k, 0) + count
        assert merged == stats.k_histogram()

    def test_per_dc_stats_match_the_fault_timeline(self, fault_run):
        """Fault runs audit through a FaultTimeline; its event log and the
        per-DC aggregates are filled by independent code paths and must
        report identical per-DC stale rates."""
        timeline = fault_run.auditor
        by_dc = timeline.stats_by_dc
        assert by_dc  # the run judged reads in at least one datacenter
        # Timeline timestamps are absolute engine time (the load phase runs
        # first), so bound the window by the log itself.
        horizon = max(time for time, _, _ in timeline.read_events) + 1.0
        for dc, stats in by_dc.items():
            windowed = timeline.stale_rate_in(0.0, horizon, datacenter=dc)
            assert windowed == pytest.approx(stats.stale_rate())

    def test_windowed_rates_compose_to_the_total(self, fault_run):
        """Chopping the run into windows and re-aggregating the timeline's
        verdicts must reproduce the auditor's overall stale rate."""
        timeline = fault_run.auditor
        horizon = max(time for time, _, _ in timeline.read_events) + 1.0
        width = horizon / 20.0
        stale = judged = 0
        start = 0.0
        while start < horizon:
            for time, _, verdict in timeline.read_events:
                if verdict is None or not start <= time < start + width:
                    continue
                judged += 1
                stale += bool(verdict)
            start += width
        assert judged == timeline.stats.judged_reads
        assert stale / judged == pytest.approx(timeline.stats.stale_rate())
