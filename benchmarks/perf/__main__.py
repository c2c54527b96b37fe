"""``PYTHONPATH=src python -m benchmarks.perf``: the whole ledger, for a person.

    python -m benchmarks.perf [--quick] [--seed S] [--workload NAME ...] [--out PATH]
    python -m benchmarks.perf compare A.json B.json

The first form measures each workload as the pipeline's ``run.py`` does (for
``run_seconds``, through the same scheduler, rounds interleaved across the
workloads), adds one traced run each, prints every metric by name with unit,
direction and bound, checks the outputs, writes the ledger to ``--out`` and
exits non-zero if any correctness check failed.
"""

from __future__ import annotations

import argparse
import os
import platform
import subprocess
import sys
import time
from typing import Dict, List

from benchmarks.perf import compare, harness, spec

DEFAULT_OUT = os.path.join(harness.RESULTS_DIR, "perf_ledger.json")


def _write_json(path: str, document: Dict[str, object]) -> None:
    """Through the repo's one guarded writer: no placeholders, no NaN or inf."""
    if harness.SOURCE_DIR not in sys.path:
        sys.path.insert(0, harness.SOURCE_DIR)  # _shared imports repro
    from benchmarks._shared import write_benchmark_json

    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    write_benchmark_json(path, document)


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=harness.REPO_ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "not a git checkout"


def ledger(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--quick", action="store_true",
                        help="about 2 %% of each workload's ops, one repetition")
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--workload", action="append", choices=[w.name for w in spec.WORKLOADS])
    parser.add_argument("--out", default=DEFAULT_OUT)
    options = parser.parse_args(argv)

    chosen = [w for w in spec.WORKLOADS if not options.workload or w.name in options.workload]
    started = time.perf_counter()
    # --quick is a smoke run: one repetition of the first input, no time to fill.
    seconds, at_least = (0.0, 1) if options.quick else (spec.RUN_SECONDS, spec.INPUTS_PER_SEED)
    reports = harness.measure(
        chosen, options.seed, seconds, at_least=at_least, quick=options.quick
    )
    rows = {}
    for workload in chosen:
        traced = harness.measure_traced(workload, options.seed, quick=options.quick)
        row = harness.summarise(workload.sized(options.quick), reports[workload.name], traced)
        rows[workload.name] = row
        print(f"== {workload.name}")
        print("\n".join(harness.render_end_to_end(row) + harness.render_per_layer(row)))
        for failure in row["checks"]:
            print(f"   CHECK FAILED: {failure}")
    _write_json(options.out, {
        "provenance": {
            "commit": _commit(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "seed": options.seed,
            "run_seconds": seconds,
            "repetitions": {name: len(made) for name, made in reports.items()},
            "quick": options.quick,
            "total_wall_s": time.perf_counter() - started,
        },
        "workloads": rows,
    })
    failed = [failure for row in rows.values() for failure in row["checks"]]
    print(f"ledger written to {options.out}; {len(failed)} correctness checks failed")
    return 1 if failed else 0


def main(argv: List[str]) -> int:
    if argv[:1] == ["compare"]:
        return compare.main(argv[1:])
    return ledger(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
