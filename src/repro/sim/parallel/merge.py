"""Merging per-shard :class:`~repro.workload.executor.RunMetrics`.

The merge is a plain fold in shard order -- no floats are recomputed from
scratch, only summed or maxed -- so the merged summary is a pure function of
the per-shard metrics.  Because each shard's metrics are themselves
deterministic (per-shard seed streams + canonical cross-shard delivery
order), the merged summary is byte-identical between ``workers=1`` and
``workers=N``.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.metrics.histogram import LatencyHistogram
from repro.staleness.stats import StalenessStats
from repro.workload.executor import RunMetrics

__all__ = ["merge_run_metrics"]

_COUNTER_FIELDS = (
    "reads",
    "writes",
    "read_timeouts",
    "write_timeouts",
    "read_misses",
    "unavailable_reads",
    "unavailable_writes",
    "retries",
    "downgrades",
)


def _merge_count_dict(target: Dict[str, int], source: Dict[str, int]) -> None:
    for key, count in source.items():
        target[key] = target.get(key, 0) + count


def merge_run_metrics(parts: Sequence[RunMetrics]) -> RunMetrics:
    """Fold per-shard run metrics into one cluster-wide view.

    ``parts`` must be in shard order: dict key insertion order (consistency
    levels, datacenters, downgrade routes) follows the fold order, and JSON
    byte-identity of the merged summary depends on it.
    """
    if not parts:
        raise ValueError("merge_run_metrics needs at least one shard's metrics")
    first = parts[0]
    merged = RunMetrics(
        policy_name=first.policy_name,
        workload_name=first.workload_name,
        threads=sum(p.threads for p in parts),
    )
    for part in parts:
        merged.read_latency.merge(part.read_latency)
        merged.write_latency.merge(part.write_latency)
        merged.overall_latency.merge(part.overall_latency)
        for name in _COUNTER_FIELDS:
            setattr(
                merged.counters, name, getattr(merged.counters, name) + getattr(part.counters, name)
            )
        merged.staleness.merge(part.staleness)
        _merge_count_dict(merged.consistency_level_usage, part.consistency_level_usage)
        _merge_count_dict(merged.downgrade_usage, part.downgrade_usage)
        _merge_count_dict(merged.control_decisions, part.control_decisions)
        for dc, histogram in part.read_latency_by_dc.items():
            target = merged.read_latency_by_dc.get(dc)
            if target is None:
                target = merged.read_latency_by_dc[dc] = LatencyHistogram()
            target.merge(histogram)
        for dc, stats in part.staleness_by_dc.items():
            target = merged.staleness_by_dc.get(dc)
            if target is None:
                target = merged.staleness_by_dc[dc] = StalenessStats()
            target.merge(stats)
        # Every shard starts at the same aligned instant, so the merged run
        # phase (and the throughput window) is the longest shard's.
        merged.duration = max(merged.duration, part.duration)
    return merged
