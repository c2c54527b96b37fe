#!/usr/bin/env python
"""Trend guard: fail CI when the sharded engine's recorded claim stops holding.

Compares one freshly measured ``bench_fabric.py`` report (``--parallel-fresh``)
against the recorded ``BENCH_fabric.json`` at the repository root
(``--parallel-baseline``).  What CI compares is machine-independent -- a
determinism flag and ratios of CPU times over one simulated schedule -- so a
runner reproduces what the recording host saw: the fresh smoke run must be
deterministic across worker counts, and the recorded baseline section must
keep its acceptance floors (workers >= 4, aggregate >= 40k ops per
bottleneck-worker CPU second, >= 2x the workers=1 aggregate, >= 3x
single-process).

The simulated-fidelity claims (repair, control, staleness, elasticity) are
exact for a seed and live in the committed ``SCORECARD.json``, which CI
regenerates and diffs (``python -m benchmarks.scorecard``).  Host speed
(simulated ops per wall-second) is not guarded here either: the perf ledger
(``benchmarks/perf/``, ``BENCHMARK.json``) measures it end to end.

A run that selects no guard fails loudly (a guard that silently compares
nothing guards nothing).

Usage::

    python tools/check_perf_trend.py --parallel-fresh BENCH_fabric_fresh.json \
        [--parallel-baseline BENCH_fabric.json] [--max-regression 0.25]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(path: str) -> Dict[str, object]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _parallel_section(doc: Dict[str, object]) -> Optional[Dict[str, object]]:
    """Find the sharded-engine report in a BENCH JSON document.

    ``bench_fabric.py`` either writes its report as the whole file or
    merges it under a section key (``--update-section``); accept both shapes.
    """
    if doc.get("benchmark") == "bench_fabric_parallel":
        return doc
    for value in doc.values():
        if isinstance(value, dict) and value.get("benchmark") == "bench_fabric_parallel":
            return value
    return None


def compare_parallel(
    fresh: Dict[str, object], baseline: Dict[str, object], max_regression: float
) -> Tuple[List[str], List[str]]:
    """Guard the sharded conservative-PDES engine.

    Two kinds of checks, both machine-independent:

    * the **fresh** (CI smoke) run must be deterministic -- ``workers=1``
      and ``workers=N`` produced byte-identical per-shard trace hashes and
      merged summaries through a real fork/pipe round trip;
    * the **recorded baseline** entry must keep the acceptance floors of
      the sharded engine: at least 4 workers, aggregate throughput of at
      least 40,000 ops per bottleneck-worker CPU second, at least 2x the
      ``workers=1`` aggregate and at least 3x the single-process run.  The
      worker ratio divides two CPU-time figures for the *same* simulated
      schedule, so it cancels machine speed; re-asserting the floors here
      stops a regressed baseline from ever being committed quietly.

    When fresh and baseline were measured with the same configuration the
    aggregate itself is also compared under ``max_regression``.
    """
    lines: List[str] = []
    failures: List[str] = []

    fresh_section = _parallel_section(fresh)
    if fresh_section is None:
        failures.append("no parallel (bench_fabric_parallel) section in the fresh report")
    else:
        deterministic = fresh_section.get("deterministic")
        cfg = fresh_section.get("config", {})
        lines.append(
            f"parallel smoke: scenario={fresh_section.get('scenario')} "
            f"shards={cfg.get('shards')} workers={cfg.get('workers')} "
            f"deterministic={deterministic}"
        )
        if deterministic is not True:
            failures.append(
                "parallel smoke: workers=1 and workers=N diverged (per-shard "
                "trace hashes or merged summary differ)"
            )

    base_section = _parallel_section(baseline)
    if base_section is None:
        failures.append("no parallel (bench_fabric_parallel) section in the baseline report")
        return lines, failures

    base_cfg = base_section.get("config", {})
    workers = base_cfg.get("workers", 0)
    aggregate = float(
        base_section.get("workers_n", {}).get("aggregate_ops_per_busy_s", 0.0)
    )
    ratio_w1 = float(base_section.get("speedup_aggregate_vs_workers_1", 0.0))
    ratio_single = float(base_section.get("speedup_vs_single_process", 0.0))
    lines.append(
        f"parallel baseline: workers={workers} aggregate={aggregate:.0f} ops/s "
        f"speedup_vs_workers_1={ratio_w1:.2f}x vs_single_process={ratio_single:.2f}x"
    )
    if base_section.get("deterministic") is not True:
        failures.append("parallel baseline entry is not marked deterministic")
    if not isinstance(workers, int) or workers < 4:
        failures.append(f"parallel baseline used workers={workers!r} (floor: 4)")
    if aggregate < 40000.0:
        failures.append(
            f"parallel baseline aggregate {aggregate:.0f} ops/s fell under the 40,000 floor"
        )
    if ratio_w1 < 2.0:
        failures.append(
            f"parallel speedup vs workers=1 is {ratio_w1:.2f}x (floor: 2x)"
        )
    if ratio_single < 3.0:
        failures.append(
            f"parallel speedup vs single-process is {ratio_single:.2f}x (floor: 3x)"
        )

    if fresh_section is not None and fresh_section.get("config") == base_section.get("config"):
        fresh_aggregate = float(
            fresh_section.get("workers_n", {}).get("aggregate_ops_per_busy_s", 0.0)
        )
        change = fresh_aggregate / aggregate - 1.0 if aggregate > 0 else 0.0
        lines.append(
            f"parallel aggregate ops/s: fresh={fresh_aggregate:.0f} "
            f"baseline={aggregate:.0f} ({change:+.1%})"
        )
        if change < -max_regression:
            failures.append(
                f"parallel aggregate regressed {-change:.1%} "
                f"(> {max_regression:.0%} allowed)"
            )
    else:
        lines.append("parallel configs differ -- skipping the aggregate comparison")
    return lines, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="maximum tolerated fractional regression (default 0.25)",
    )
    parser.add_argument(
        "--parallel-fresh",
        default=None,
        help="freshly measured bench_fabric.py report; runs the guard",
    )
    parser.add_argument(
        "--parallel-baseline",
        default=os.path.join(REPO_ROOT, "BENCH_fabric.json"),
        help="recorded baseline (default BENCH_fabric.json)",
    )
    args = parser.parse_args(argv)
    if not 0 < args.max_regression < 1:
        parser.error("--max-regression must be in (0, 1)")

    if args.parallel_fresh is None:
        print("FAIL: no guard selected: pass a --parallel-fresh report", file=sys.stderr)
        return 1
    lines, failures = compare_parallel(
        _load(args.parallel_fresh), _load(args.parallel_baseline), args.max_regression
    )
    for line in lines:
        print(line)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("perf trend OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
