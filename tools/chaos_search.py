#!/usr/bin/env python
"""Chaos search: sweep generated fault schedules, shrink and emit failures.

For every seed in ``--seed-range``, draws a fault schedule from
:class:`repro.chaos.ScheduleGenerator`, runs it through
:func:`repro.chaos.run_chaos` and checks the invariant suite.  A failing
seed is shrunk to a 1-minimal reproducer (``--no-shrink`` skips that) and,
with ``--emit-corpus DIR``, written as JSON into ``DIR``.  Nothing is written
without it: a reproducer becomes a regression test only when it is moved
into ``tests/chaos/corpus/`` on purpose (``tests/chaos/test_corpus_replay.py``
replays every entry there and requires it to pass).

Exit status: 0 when all seeds pass, 1 when any invariant was violated
(CI fails the build and uploads the emitted reproducers as artifacts),
2 on usage errors.

Examples::

    python tools/chaos_search.py --seed-range 0:200
    python tools/chaos_search.py --seed-range 0:40 --budget 8 --scenario grid5000_3sites
    python tools/chaos_search.py --seed-range 0:100000 --time-budget 60 --keep-going \
        --emit-corpus chaos-found
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
sys.path.insert(0, REPO_ROOT)

from repro.chaos import (  # noqa: E402  (path bootstrap above)
    ChaosConfig,
    Reproducer,
    ScheduleGenerator,
    run_chaos,
    shrink,
    write_reproducer,
)
from repro.chaos.shrink import NondeterministicReplayError  # noqa: E402
from repro.experiments.scenarios import ScenarioRegistry  # noqa: E402


def parse_seed_range(raw: str):
    try:
        start_s, end_s = raw.split(":", 1)
        start, end = int(start_s), int(end_s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed range must be START:END, got {raw!r}")
    if end <= start:
        raise argparse.ArgumentTypeError(f"empty seed range {raw!r}")
    return range(start, end)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--seed-range",
        type=parse_seed_range,
        default=range(0, 50),
        metavar="START:END",
        help="half-open seed interval to sweep (default 0:50)",
    )
    parser.add_argument(
        "--scenario",
        default="grid5000_3sites",
        help="scenario name from the registry (default grid5000_3sites)",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=6,
        help="fault actions per generated schedule (default 6)",
    )
    parser.add_argument(
        "--horizon",
        type=float,
        default=12.0,
        help="fault-schedule horizon in virtual seconds (default 12)",
    )
    parser.add_argument(
        "--ops", type=int, default=420, help="workload operations per run (default 420)"
    )
    parser.add_argument(
        "--records", type=int, default=60, help="records loaded per run (default 60)"
    )
    parser.add_argument(
        "--threads", type=int, default=6, help="client threads per run (default 6)"
    )
    parser.add_argument(
        "--policy",
        default=None,
        help="consistency policy (default: local_quorum multi-DC, quorum otherwise)",
    )
    parser.add_argument(
        "--emit-corpus",
        metavar="DIR",
        help="write each failing seed's reproducer into DIR (default: write nothing)",
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="emit failing schedules unminimized (faster triage)",
    )
    parser.add_argument(
        "--keep-going",
        action="store_true",
        help="continue sweeping after a failure instead of stopping",
    )
    parser.add_argument(
        "--time-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stop starting new seeds after this much wall time",
    )
    parser.add_argument(
        "--max-shrink-runs",
        type=int,
        default=400,
        help="replay budget per shrink (default 400)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = ScenarioRegistry.get(args.scenario)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    generator = ScheduleGenerator(scenario, horizon=args.horizon)
    config = ChaosConfig(
        scenario=args.scenario,
        record_count=args.records,
        operation_count=args.ops,
        threads=args.threads,
        policy=args.policy,
        horizon=args.horizon,
    )

    started = time.time()
    swept = 0
    failures = 0
    for seed in args.seed_range:
        if args.time_budget is not None and time.time() - started > args.time_budget:
            print(f"time budget exhausted after {swept} seeds")
            break
        schedule = generator.generate(seed, args.budget)
        run_config = dataclasses.replace(config, seed=seed)
        report = run_chaos(schedule, run_config)
        swept += 1
        if not report.failed():
            if swept % 25 == 0:
                rate = swept / (time.time() - started)
                print(f"  ... {swept} seeds clean ({rate:.1f} seeds/s)")
            continue

        failures += 1
        print(f"seed {seed}: {len(schedule.events)} events violate "
              f"{', '.join(report.violated_invariants())}")
        for violation in report.violations[:6]:
            print(f"    {violation}")

        emitted = schedule
        source = f"chaos_search --scenario {args.scenario} --budget {args.budget} (unminimized)"
        if not args.no_shrink:
            try:
                result = shrink(
                    schedule,
                    lambda s: run_chaos(s, run_config),
                    max_runs=args.max_shrink_runs,
                )
                emitted = result.schedule
                source = (
                    f"chaos_search --scenario {args.scenario} --budget {args.budget}, "
                    f"shrunk {len(schedule.events)}->{len(emitted.events)} events "
                    f"in {result.runs} runs"
                )
                print(f"    shrunk to {len(emitted.events)} events ({result.runs} runs)")
            except NondeterministicReplayError as exc:
                print(f"    SHRINK ABORTED (nondeterministic replay): {exc}")
                source += " [shrink aborted: nondeterministic replay]"

        if args.emit_corpus is not None:
            reproducer = Reproducer(
                schedule=emitted,
                scenario=args.scenario,
                seed=seed,
                description=(
                    f"seed {seed} violates {', '.join(report.violated_invariants())} "
                    f"on {args.scenario}"
                ),
                source=source,
                config=run_config.overrides(),
                expected_violations=list(report.violated_invariants()),
            )
            path = os.path.join(args.emit_corpus, f"found_{args.scenario}_seed{seed}.json")
            write_reproducer(path, reproducer)
            print(f"    reproducer written to {os.path.relpath(path, REPO_ROOT)}")
        if not args.keep_going:
            break

    elapsed = time.time() - started
    print(
        f"swept {swept} seeds in {elapsed:.1f}s "
        f"({swept / elapsed:.1f} seeds/s): {failures} failing"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
