"""Shared guards for the recorded result files.

* ``write_benchmark_json`` -- the one way ``SCORECARD.json``,
  ``BENCH_fabric.json`` and the perf ledger are persisted: it refuses
  placeholder values, so a half-finished benchmark can never masquerade as
  a recorded result again (a ``PLACEHOLDER`` baseline label once survived a
  whole PR in ``BENCH_fabric.json``);
* ``trace_signature`` -- folds a sharded run's per-shard trace hashes into
  one scalar for ``bench_fabric.py``;
* ``percentile`` -- the nearest-rank percentile the subsystem benchmarks
  report latencies with.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Dict, List, Optional

#: Substrings that mark a value as "not actually measured".  Matching is
#: case-sensitive on purpose: these appear as deliberate ALL-CAPS markers.
PLACEHOLDER_TOKENS = ("PLACEHOLDER", "TBD", "FIXME", "CHANGEME")


class PlaceholderValueError(ValueError):
    """A benchmark result contained a placeholder instead of a measurement."""


def assert_no_placeholders(value: object, path: str = "$") -> None:
    """Recursively reject placeholder strings and non-finite numbers.

    Benchmark JSON is the repo's performance memory; a placeholder that
    lands there silently becomes "the recorded baseline" for every later
    comparison.  Raises :class:`PlaceholderValueError` naming the offending
    path.
    """
    if isinstance(value, str):
        for token in PLACEHOLDER_TOKENS:
            if token in value:
                raise PlaceholderValueError(
                    f"placeholder marker {token!r} at {path}: {value!r}"
                )
    elif isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            raise PlaceholderValueError(f"non-finite number at {path}: {value!r}")
    elif isinstance(value, dict):
        for key, item in value.items():
            assert_no_placeholders(key, f"{path}.{key}")
            assert_no_placeholders(item, f"{path}.{key}")
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            assert_no_placeholders(item, f"{path}[{index}]")


def percentile(values: List[float], pct: float) -> Optional[float]:
    """Nearest-rank ``pct``-th percentile of ``values``; ``None`` when empty."""
    if not values:
        return None
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(pct / 100.0 * (len(ordered) - 1))))
    return ordered[index]


class RepetitionMismatchError(ValueError):
    """A benchmark's ``repetitions`` field disagrees with its per-rep lists."""


def trace_signature(trace_sha256: object) -> str:
    """Collapse a run's trace hash into one scalar signature.

    Single-engine runs record one ``trace_sha256`` string; sharded runs
    record one hash *per shard* (the shard is the unit of reproducibility).
    Comparisons and merged reports want a single scalar either way, so a
    list is folded order-sensitively: the merged signature is the SHA-256
    of the newline-joined per-shard hashes.  A one-element list therefore
    deliberately differs from its bare scalar -- the shapes mean different
    things (a sharded run of one shard is not the unsharded run).
    """
    if isinstance(trace_sha256, str):
        return trace_sha256
    if isinstance(trace_sha256, (list, tuple)):
        if not trace_sha256 or not all(isinstance(item, str) for item in trace_sha256):
            raise TypeError(
                f"per-shard trace hashes must be a non-empty list of strings, "
                f"got {trace_sha256!r}"
            )
        return hashlib.sha256("\n".join(trace_sha256).encode("utf-8")).hexdigest()
    raise TypeError(f"trace_sha256 must be a string or list of strings, got {trace_sha256!r}")


def assert_repetitions_consistent(report: Dict[str, object], path: str = "$") -> None:
    """Check that ``repetitions`` matches the length of every ``*all_reps*`` list.

    ``BENCH_fabric.json`` once claimed ``"repetitions": 3`` while recording
    four entries in ``optimized_all_reps_ops_per_wall_s`` -- metadata that
    lies about its own sample count poisons every later comparison.  The
    check recurses into nested dicts *and* lists of dicts (parallel reports
    carry per-run sections inside lists).  Plain value lists that are not
    ``*all_reps*`` samples -- e.g. a sharded run's per-shard ``trace_sha256``
    list, whose length is the shard count, not the repetition count -- are
    left alone.
    """
    if not isinstance(report, dict):
        return
    repetitions = report.get("repetitions")
    for key, value in report.items():
        if isinstance(value, dict):
            assert_repetitions_consistent(value, f"{path}.{key}")
        elif isinstance(value, (list, tuple)):
            for index, item in enumerate(value):
                if isinstance(item, dict):
                    assert_repetitions_consistent(item, f"{path}.{key}[{index}]")
            if (
                isinstance(key, str)
                and "all_reps" in key
                and isinstance(repetitions, int)
                and len(value) != repetitions
            ):
                raise RepetitionMismatchError(
                    f"{path}.{key} has {len(value)} entries but {path}.repetitions "
                    f"says {repetitions}"
                )


def write_benchmark_json(path: str, report: Dict[str, object]) -> None:
    """Validate and persist one recorded result file."""
    assert_no_placeholders(report)
    assert_repetitions_consistent(report)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, default=str)
        handle.write("\n")
