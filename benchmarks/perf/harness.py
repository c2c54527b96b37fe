"""Make runs, gather repetitions, judge them.

A *repetition* is one fresh child process (:mod:`benchmarks.perf.probe`):
``PYTHONHASHSEED=0``, GC on, one at a time.  A *row* is what the ledger
keeps per workload: every end-to-end metric as median / quartiles / n over
the repetitions, the per-layer table of the first input, the digest, and the
list of correctness checks that failed.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Dict, List, Optional, Sequence

from benchmarks.perf import spec

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SOURCE_DIR = os.path.join(REPO_ROOT, "src")
#: Git-ignored; also where the figure benches put their reports.
RESULTS_DIR = os.path.join(REPO_ROOT, "benchmarks", "results")

#: A child that has not answered by then is stuck (the slowest, a traced one, takes ~10 s).
CHILD_TIMEOUT_S = 170


def trace_path(workload: str) -> str:
    return os.path.join(RESULTS_DIR, f"perf_trace_{workload}.json")


def run_child(
    workload: str, input_seed: int, *, quick: bool = False, trace_out: Optional[str] = None
) -> Dict[str, object]:
    """One repetition in a fresh interpreter; returns the probe's report."""
    command = [
        sys.executable, "-m", "benchmarks.perf.probe",
        "--workload", workload, "--seed", str(input_seed),
    ]
    if quick:
        command.append("--quick")
    if trace_out is not None:
        command += ["--trace-out", trace_out]
    inherited = os.environ.get("PYTHONPATH")
    environment = dict(
        os.environ,
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join(
            [SOURCE_DIR, REPO_ROOT] + ([inherited] if inherited else [])
        ),
    )
    finished = subprocess.run(
        command,
        cwd=REPO_ROOT,
        env=environment,
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    return json.loads(finished.stdout.splitlines()[-1])


def spread(values: Sequence[float]) -> Dict[str, object]:
    """Median, quartiles and n of one metric's repetitions."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "values": list(values),
    }


def workload_checks(workload: spec.Workload, report: Dict[str, object]) -> List[str]:
    """What must hold of one repetition because of what the workload *is*."""
    layer = report["layers"]
    failures: List[str] = []

    def require(holds: bool, message: str) -> None:
        if not holds:
            failures.append(f"{workload.name}: {message}")

    if workload.policy == "quorum":
        require(layer["staleness.stale_reads"] == 0,
                f"{layer['staleness.stale_reads']} stale reads at QUORUM/QUORUM (R + W > N)")
    if workload.policy.startswith("harmony-"):
        tolerated = float(workload.policy.split("-", 1)[1])
        require(layer["staleness.stale_rate"] <= tolerated,
                f"stale rate {layer['staleness.stale_rate']:.4f} above the tolerated {tolerated}")
        require(layer["control.levels_used"] > 1, "the adaptive policy never changed read level")
    if workload.virtual_span_s is not None:  # the fault timeline ran
        require(layer["coordinator.unavailable"] == 0, "LOCAL_ONE ops were refused as Unavailable")
        require(any(entry.startswith("deisolate") for entry in report["injector_log"]),
                "the run ended before the WAN isolation healed")
        require(layer["repair.sessions_completed"] > 0, "no repair session completed")
        require(layer["network.transfers_completed"] > 0, "no bandwidth transfer completed")
    return failures


def summarise(
    workload: spec.Workload,
    reports: Sequence[Dict[str, object]],
    traced: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Fold a workload's repetitions (and its traced run) into one ledger row."""
    checks: List[str] = []
    by_input: Dict[int, Dict[str, object]] = {}  # each input's first repetition
    for report in reports:
        checks += report["checks"] + workload_checks(workload, report)
        first = by_input.setdefault(report["seed"], report)
        if first["digest"] != report["digest"]:
            checks.append(f"{workload.name}: input {report['seed']} gave two different sim_digests")
    attempted = sum(int(r["layers"]["workload.ops_requested"]) for r in reports)
    failed = sum(int(r["layers"]["workload.ops_failed"]) for r in reports)
    if failed:  # no workload is meant to lose an op: any failure is a regression
        checks.append(f"{workload.name}: {failed} of {attempted} ops failed")

    end_to_end = {}
    for metric in spec.END_TO_END:
        # Simulated results are exact per input: one value per input, however
        # many repetitions the host had time for.
        source = by_input.values() if metric.clock == "sim" else reports
        end_to_end[metric.name] = spread([r["end_to_end"][metric.name] for r in source])

    # The layer table describes the first input: the one the traced run repeats.
    described = [r["layers"] for r in reports if r["seed"] == reports[0]["seed"]]
    per_layer = {
        metric.name: statistics.median(layer[metric.name] for layer in described)
        for metric in spec.PER_LAYER
    }
    if traced is not None:
        checks += traced["checks"]
        if traced["digest"] != by_input[traced["seed"]]["digest"]:
            checks.append(f"{workload.name}: traced sim_digest differs from the untraced one")
        per_layer.update(traced["profiled"])
        per_layer["trace.overhead_ratio"] = (
            traced["end_to_end"]["wall_s"] / end_to_end["wall_s"]["median"]
        )

    ordered = "\n".join(by_input[seed]["digest"] for seed in sorted(by_input))
    return {
        "sizes": workload.sizes(),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "sim_digest": hashlib.sha256(ordered.encode("utf-8")).hexdigest(),
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
    }


def render_end_to_end(row: Dict[str, object]) -> List[str]:
    """One line per end-to-end metric: median, quartiles, n, unit, direction, bound."""
    lines = [
        f"   sim_digest {row['sim_digest']}",
        f"   {row['attempted']} ops attempted, {row['failed']} failed",
    ]
    for metric in spec.END_TO_END:
        cell = row["end_to_end"][metric.name]
        line = (
            f"   {metric.name:<24}{cell['median']:>14.6g} {metric.unit:<6}"
            f"[{cell['q1']:.6g}, {cell['q3']:.6g}] n={cell['n']}  "
            f"{metric.clock}, {metric.better} is better, may worsen by {metric.bound:.0%}"
        )
        if metric.clock == "sim":  # exact per input: a speed-up must leave these as they are
            line += "  per input " + " ".join(f"{value:.10g}" for value in cell["values"])
        lines.append(line)
    return lines


def render_per_layer(row: Dict[str, object]) -> List[str]:
    return [
        f"   {metric.name:<34}{row['per_layer'][metric.name]:>16.6g} {metric.unit:<6}"
        f"{metric.better} is better"
        for metric in spec.PER_LAYER
    ]


def measure(
    workloads: Sequence[spec.Workload],
    seed: int,
    seconds: float,
    *,
    at_least: int,
    quick: bool = False,
) -> Dict[str, List[Dict[str, object]]]:
    """Untraced repetitions of each workload for about ``seconds``, round-robin.

    Every command measures through here, so a median means the same thing
    whoever asked for it.  Rounds go across the workloads (machine drift
    spreads evenly over them); a workload leaves the rotation once it has
    ``at_least`` repetitions and its own children's time has landed nearest
    ``seconds``: another repetition is made only while half of it still fits.
    Repetitions cycle through the seed's inputs.
    """
    inputs = spec.input_seeds(seed)
    reports: Dict[str, List[Dict[str, object]]] = {w.name: [] for w in workloads}
    spent = {w.name: 0.0 for w in workloads}
    owed = list(workloads)
    while owed:
        for workload in list(owed):
            mine = reports[workload.name]
            started = perf_counter()
            mine.append(run_child(workload.name, inputs[len(mine) % len(inputs)], quick=quick))
            spent[workload.name] += perf_counter() - started
            total = spent[workload.name]
            if len(mine) >= at_least and total + total / len(mine) / 2 >= seconds:
                owed.remove(workload)
    return reports


def measure_traced(workload: spec.Workload, seed: int, *, quick: bool = False):
    """The traced run of the first input (``None`` on the sharded row: forked
    workers are out of the profiler's sight)."""
    if workload.sharded:
        return None
    return run_child(
        workload.name,
        spec.input_seeds(seed)[0],
        quick=quick,
        trace_out=trace_path(workload.name),
    )
