"""Shared guards for the recorded result files.

* ``write_benchmark_json`` -- the one way ``SCORECARD.json`` and the perf
  ledger are persisted: it refuses placeholder values and ``repetitions``
  counts that disagree with their samples, so a half-finished benchmark can
  never masquerade as a recorded result;
* ``percentile`` -- the nearest-rank percentile the subsystem benchmarks
  report latencies with.
"""

from __future__ import annotations

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


def assert_repetitions_consistent(report: Dict[str, object], path: str = "$") -> None:
    """Check that ``repetitions`` matches the length of every ``*all_reps*`` list.

    Metadata that lies about its own sample count poisons every later
    comparison.  The check recurses into nested dicts *and* lists of dicts;
    plain value lists that are not ``*all_reps*`` samples are left alone.
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
