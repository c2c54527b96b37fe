#!/usr/bin/env python
"""Trend guards: fail CI when a recorded benchmark claim stops holding.

Each guard compares one freshly-measured ``bench_*.py`` report against its
recorded ``BENCH_*.json`` baseline at the repository root, and runs when its
``--*-fresh`` report is given (``--*-baseline`` defaults to the recorded
file).  What CI compares is machine-independent -- a byte count, a
virtual-time measurement, a determinism flag or a ratio of CPU times over one
simulated schedule -- so a runner reproduces what the recording host saw;
figures that depend on the run's size are compared only when the fresh run
used the recorded configuration:

* ``--parallel-fresh`` -- the sharded engine: the fresh smoke run must be
  deterministic across worker counts, and the recorded baseline section must
  keep its acceptance floors (workers >= 4, aggregate >= 40k ops per
  bottleneck-worker CPU second, >= 2x the workers=1 aggregate, >= 3x
  single-process);
* ``--repair-fresh`` -- steady-state repair bytes per session and the
  bandwidth-contention claims;
* ``--staleness-fresh`` -- the staleness claims and the estimator's error;
* ``--elasticity-fresh`` -- adaptive ring beats every static size.

Host speed (simulated ops per wall-second) is not guarded here: the perf
ledger (``benchmarks/perf/``, ``BENCHMARK.json``) measures it end to end.

A run that selects no guard fails loudly (a guard that silently compares
nothing guards nothing).

Usage::

    python tools/check_perf_trend.py --repair-fresh BENCH_repair_fresh.json \
        [--repair-baseline BENCH_repair.json] [--max-regression 0.25]
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


def _steady_state_bytes(report: Dict[str, object]) -> Optional[float]:
    """Per-session steady-state repair bytes of one BENCH_repair report."""
    steady = report.get("steady_state")
    if not isinstance(steady, dict):
        return None
    value = steady.get("incremental", {}).get("bytes_per_session")
    return float(value) if value is not None else None


def _steady_state_reduction(report: Dict[str, object]) -> Optional[float]:
    steady = report.get("steady_state")
    if not isinstance(steady, dict):
        return None
    value = steady.get("full_vs_incremental_bytes_ratio")
    return float(value) if value is not None else None


def compare_repair(
    fresh: Dict[str, object], baseline: Dict[str, object], max_regression: float
) -> Tuple[List[str], List[str]]:
    """Guard the repair benchmark's steady-state session bytes.

    Both metrics are byte counts over deterministic sessions, so they are
    machine-independent: a fresh run on any hardware must reproduce the
    committed steady-state economics.  ``bytes_per_session`` may not grow
    more than ``max_regression`` over the baseline, and the full-keyspace
    vs incremental reduction ratio may not shrink below 5x (the recorded
    acceptance floor) or ``max_regression`` under the baseline's ratio.

    The fresh report must also carry the ``bandwidth_contention`` section
    with every claim holding: bandwidth-on shows measurable contention
    (foreground read p99 inflated over the bandwidth-off arm during the
    repair storm) and the ``wan_budget_bytes_per_s`` throttle bounds that
    inflation while recovery still completes in every arm.  These are
    virtual-time measurements of a deterministic simulation, so any
    hardware reproduces them.
    """
    lines: List[str] = []
    failures: List[str] = []
    contention = fresh.get("bandwidth_contention")
    if not isinstance(contention, dict):
        failures.append("bandwidth_contention section missing from the fresh repair report")
    else:
        claims = contention.get("claims", {})
        summary = " ".join(f"{name}={bool(value)}" for name, value in sorted(claims.items()))
        lines.append(f"bandwidth contention claims: {summary or '(none)'}")
        if not claims:
            failures.append("bandwidth_contention.claims missing from the fresh repair report")
        for name, value in sorted(claims.items()):
            if value is not True:
                failures.append(f"bandwidth contention claim failed: {name}")
    fresh_bytes = _steady_state_bytes(fresh)
    base_bytes = _steady_state_bytes(baseline)
    if fresh_bytes is None or base_bytes is None:
        failures.append("steady_state.incremental.bytes_per_session missing from a report")
        return lines, failures
    growth = fresh_bytes / base_bytes - 1.0 if base_bytes > 0 else 0.0
    lines.append(
        f"steady-state repair bytes/session: fresh={fresh_bytes:.0f} "
        f"baseline={base_bytes:.0f} ({growth:+.1%})"
    )
    if growth > max_regression:
        failures.append(
            f"steady-state repair bytes/session grew {growth:.1%} "
            f"(> {max_regression:.0%} allowed)"
        )
    fresh_ratio = _steady_state_reduction(fresh)
    base_ratio = _steady_state_reduction(baseline)
    if fresh_ratio is not None and base_ratio is not None:
        lines.append(
            f"full-vs-incremental byte reduction: fresh={fresh_ratio:.1f}x "
            f"baseline={base_ratio:.1f}x"
        )
        if fresh_ratio < 5.0:
            failures.append(
                f"full-vs-incremental reduction {fresh_ratio:.1f}x fell under the 5x floor"
            )
        elif fresh_ratio < base_ratio * (1.0 - max_regression):
            failures.append(
                f"full-vs-incremental reduction shrank to {fresh_ratio:.1f}x "
                f"(baseline {base_ratio:.1f}x)"
            )
    return lines, failures


def compare_staleness(
    fresh: Dict[str, object], baseline: Dict[str, object], max_regression: float
) -> Tuple[List[str], List[str]]:
    """Guard the staleness benchmark's machine-independent invariants.

    The staleness bench records claims that hold on any hardware (the
    simulation is deterministic, so a fresh run reproduces the physics, not
    the wall-clock): quorum reads measure exactly zero staleness,
    t-visibility is monotone, the write-aware estimator upper-bounds every
    measurement, and same-seed runs are byte-identical.  A fresh report
    must re-establish all of them.  When the fresh run used the same
    configuration as the baseline, the estimator's worst-case relative
    error additionally may not grow by more than ``max_regression`` --
    catching silent drift in the closed-form model or the auditor.
    """
    lines: List[str] = []
    failures: List[str] = []
    if "claims_hold" not in fresh or "deterministic" not in fresh:
        failures.append("staleness report is missing claims_hold/deterministic")
        return lines, failures
    lines.append(
        f"staleness claims_hold={fresh['claims_hold']} "
        f"deterministic={fresh['deterministic']}"
    )
    if not fresh["deterministic"]:
        failures.append("staleness bench: same-seed runs diverged")
    if not fresh["claims_hold"]:
        failures.append(
            "staleness bench: a machine-independent claim failed "
            "(quorum overlap, t-visibility monotonicity, write-quorum "
            "direction, or estimator conservativeness)"
        )
    fresh_error = fresh.get("eventual_max_relative_error")
    base_error = baseline.get("eventual_max_relative_error")
    if fresh.get("config") == baseline.get("config"):
        if fresh_error is not None and base_error is not None:
            growth = float(fresh_error) - float(base_error)
            lines.append(
                f"estimator max relative error: fresh={float(fresh_error):.4f} "
                f"baseline={float(base_error):.4f} ({growth:+.4f})"
            )
            if growth > max_regression:
                failures.append(
                    f"estimator max relative error grew {growth:.4f} "
                    f"(> {max_regression:.2f} allowed)"
                )
    else:
        lines.append(
            "staleness configs differ -- skipping the estimator-error comparison"
        )
    return lines, failures


def compare_elasticity(
    fresh: Dict[str, object], baseline: Dict[str, object], max_regression: float
) -> Tuple[List[str], List[str]]:
    """Guard the elasticity benchmark's machine-independent claims.

    Every headline quantity in ``BENCH_elasticity.json`` is virtual-time or
    a deterministic count, so a fresh run on any hardware must reproduce
    the economics exactly:

    * ``adaptive_beats_all_static`` -- the demand-driven arm's cost x p99
      score beats every static ring size it can reach;
    * ``deterministic`` -- two same-seed adaptive runs were byte-identical
      (decisions, transitions and scores included);
    * ``zero_pending_read_violations`` -- no read ever contacted a
      pending-range node mid-bootstrap/decommission.

    When fresh and baseline share a configuration, the adaptive score
    (lower is better) additionally may not grow by more than
    ``max_regression`` over the recorded baseline.
    """
    lines: List[str] = []
    failures: List[str] = []
    for claim in ("adaptive_beats_all_static", "deterministic", "zero_pending_read_violations"):
        value = fresh.get(claim)
        lines.append(f"elasticity {claim}={value}")
        if value is not True:
            failures.append(f"elasticity bench: {claim} does not hold in the fresh run")
    fresh_score = fresh.get("adaptive", {}).get("score")
    base_score = baseline.get("adaptive", {}).get("score")
    if fresh.get("config") == baseline.get("config"):
        if fresh_score is not None and base_score is not None and float(base_score) > 0:
            growth = float(fresh_score) / float(base_score) - 1.0
            lines.append(
                f"elasticity adaptive score: fresh={float(fresh_score):.4f} "
                f"baseline={float(base_score):.4f} ({growth:+.1%})"
            )
            if growth > max_regression:
                failures.append(
                    f"elasticity adaptive score grew {growth:.1%} "
                    f"(> {max_regression:.0%} allowed; lower is better)"
                )
        else:
            failures.append("elasticity report is missing adaptive.score")
    else:
        lines.append("elasticity configs differ -- skipping the score comparison")
    return lines, failures


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


#: The guards: flag stem -> (comparison, recorded baseline at the repo root).
GUARDS = {
    "parallel": (compare_parallel, "BENCH_fabric.json"),
    "repair": (compare_repair, "BENCH_repair.json"),
    "staleness": (compare_staleness, "BENCH_staleness.json"),
    "elasticity": (compare_elasticity, "BENCH_elasticity.json"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="maximum tolerated fractional regression (default 0.25)",
    )
    for name, (_compare, recorded) in GUARDS.items():
        parser.add_argument(
            f"--{name}-fresh",
            default=None,
            help=f"freshly measured report; runs the {name} guard",
        )
        parser.add_argument(
            f"--{name}-baseline",
            default=os.path.join(REPO_ROOT, recorded),
            help=f"recorded baseline of the {name} guard (default {recorded})",
        )
    args = parser.parse_args(argv)
    if not 0 < args.max_regression < 1:
        parser.error("--max-regression must be in (0, 1)")

    lines: List[str] = []
    failures: List[str] = []
    selected = [name for name in GUARDS if getattr(args, f"{name}_fresh") is not None]
    if not selected:
        failures.append("no guard selected: pass at least one --*-fresh report")
    for name in selected:
        guard_lines, guard_failures = GUARDS[name][0](
            _load(getattr(args, f"{name}_fresh")),
            _load(getattr(args, f"{name}_baseline")),
            args.max_regression,
        )
        lines.extend(guard_lines)
        failures.extend(guard_failures)
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
