"""Worker-count equivalence: the shard count fixes the simulation.

``workers`` only maps shards onto OS processes; the merged summary and the
per-shard trace hashes must therefore be byte-identical between the
in-process backend (``workers=1``) and forked workers (``workers=N``) --
the sharded engine's headline determinism property, here pinned on the two
scenario families the paper sweeps (single-site scale ring and the 3-site
Grid'5000 geo ring).
"""

from __future__ import annotations

import json

import pytest

from repro.metrics.counters import OperationCounters
from repro.sim.parallel import merge_run_metrics, run_parallel_experiment
from repro.staleness.stats import StalenessStats
from repro.workload.executor import RunMetrics
from repro.workload.workloads import WORKLOAD_A

SMALL = WORKLOAD_A.scaled(record_count=60, operation_count=240)


def _canonical(result) -> str:
    return json.dumps(result.summary(), sort_keys=True, default=str)


@pytest.mark.parametrize(
    "scenario,shards", [("scale_100", 4), ("grid5000_3sites", 3), ("scale_300", 4)]
)
def test_workers_1_and_workers_4_are_byte_identical(scenario, shards):
    solo = run_parallel_experiment(
        scenario, SMALL, "quorum", 8, seed=11, shards=shards, workers=1
    )
    forked = run_parallel_experiment(
        scenario, SMALL, "quorum", 8, seed=11, shards=shards, workers=4
    )
    assert solo.workers == 1 and forked.workers > 1
    assert forked.trace_sha256 == solo.trace_sha256
    assert _canonical(forked) == _canonical(solo)
    assert forked.rounds == solo.rounds
    assert forked.cross_messages == solo.cross_messages
    # All issued operations completed, across all shards.
    assert solo.metrics.counters.total == SMALL.operation_count


def test_workers_clamp_to_shard_count():
    result = run_parallel_experiment(
        "scale_100", SMALL, "quorum", 8, seed=11, shards=2, workers=16
    )
    assert result.workers == 2


class TestMerge:
    def test_merged_counters_are_shard_sums(self):
        result = run_parallel_experiment(
            "scale_100", SMALL, "quorum", 8, seed=5, shards=4, workers=1
        )
        parts = result.shard_metrics
        assert result.metrics.counters.total == sum(p.counters.total for p in parts)
        assert result.metrics.counters.reads == sum(p.counters.reads for p in parts)
        assert result.metrics.counters.writes == sum(p.counters.writes for p in parts)
        assert result.metrics.threads == sum(p.threads for p in parts)
        # Virtual duration is a max (shards run the same virtual clock),
        # never a sum.
        assert result.metrics.duration == max(p.duration for p in parts)

    def test_merge_is_shard_order_sensitive_fold(self):
        result = run_parallel_experiment(
            "scale_100", SMALL, "quorum", 8, seed=5, shards=4, workers=1
        )
        merged_again = merge_run_metrics(result.shard_metrics)
        assert json.dumps(merged_again.summary(), sort_keys=True, default=str) == json.dumps(
            result.metrics.summary(), sort_keys=True, default=str
        )

    def test_merge_rejects_empty(self):
        with pytest.raises(ValueError):
            merge_run_metrics([])

    def test_merge_folds_hand_built_staleness_accounts(self):
        def part(dc, unknown, fresh, stale_ages):
            metrics = RunMetrics(policy_name="eventual", workload_name="A", threads=2)
            by_dc = metrics.staleness_by_dc[dc] = StalenessStats()
            for stats in (metrics.staleness, by_dc):
                for _ in range(unknown):
                    stats.record_unknown()
                for _ in range(fresh):
                    stats.record_fresh()
                for age in stale_ages:
                    stats.record_stale(age, 2)
            return metrics

        merged = merge_run_metrics(
            [part("rennes", 3, 4, [0.02]), part("sophia", 1, 0, [0.01, 0.03])]
        )
        staleness = merged.staleness
        assert (staleness.unknown_reads, staleness.judged_reads, staleness.stale_reads) == (4, 7, 3)
        assert staleness.stale_rate() == 3 / 7
        assert staleness.k_histogram() == {0: 4, 2: 3}
        assert staleness.stale_age_histogram.sorted_samples().tolist() == [0.01, 0.02, 0.03]
        assert list(merged.staleness_by_dc) == ["rennes", "sophia"]
        sophia = merged.staleness_by_dc["sophia"]
        assert (sophia.unknown_reads, sophia.judged_reads, sophia.stale_reads) == (1, 2, 2)


def test_ops_per_second_is_completed_ops_over_the_run_phase():
    empty = RunMetrics(policy_name="eventual", workload_name="A", threads=1)
    empty.counters = OperationCounters(reads=5, writes=2)
    assert empty.ops_per_second() == 0.0  # no window: duration 0
    parts = []
    for reads, writes, unavailable, duration in ((30, 10, 4, 2.0), (50, 10, 0, 4.0)):
        part = RunMetrics(policy_name="eventual", workload_name="A", threads=1)
        part.counters = OperationCounters(reads=reads, writes=writes, unavailable_reads=unavailable)
        part.duration = duration
        parts.append(part)
    assert parts[0].ops_per_second() == 40 / 2.0  # rejections are not throughput
    # Shards share one clock: the merged rate is every shard's ops over the longest shard.
    assert merge_run_metrics(parts).ops_per_second() == 100 / 4.0
