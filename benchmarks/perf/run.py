"""The pipeline's entry point: one workload, one seed, one JSON line.

``python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the root of a checkout.  ``--trace 0`` repeats the workload for about
``S`` seconds and prints every end-to-end metric (medians, with the digest and
the per-input simulated values beside them); ``--trace 1`` makes one plain and
one profiled repetition of the same input and prints every per-layer metric.
The last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, REPO_ROOT)

from benchmarks.perf import harness, spec  # noqa: E402  (needs the path above)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w.name for w in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    options = parser.parse_args()
    if not os.path.isdir(os.path.join(harness.SOURCE_DIR, "repro")):
        print(f"nothing to measure: {harness.SOURCE_DIR}/repro is not there", file=sys.stderr)
        return 2

    workload = spec.workload(options.workload)
    if options.trace:  # one plain repetition for the traced one to be held against
        reports = harness.measure([workload], options.seed, 0.0, at_least=1)[workload.name]
        row = harness.summarise(workload, reports, harness.measure_traced(workload, options.seed))
        print("\n".join(harness.render_per_layer(row)))
        metrics = {m.name: {"value": row["per_layer"][m.name], "unit": m.unit}
                   for m in spec.PER_LAYER}
    else:
        reports = harness.measure(
            [workload], options.seed, options.seconds, at_least=spec.INPUTS_PER_SEED
        )[workload.name]
        row = harness.summarise(workload, reports)
        print("\n".join(harness.render_end_to_end(row)))
        metrics = {m.name: {"value": row["end_to_end"][m.name]["median"], "unit": m.unit}
                   for m in spec.END_TO_END}
    for failure in row["checks"]:
        print(f"   CHECK FAILED: {failure}")
    # The contract fixes the result's keys, so the digest and the per-input
    # simulated values are the lines above, not fields of it.
    print(json.dumps({
        "correct": not row["checks"],
        "attempted": row["attempted"],
        "failed": row["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
