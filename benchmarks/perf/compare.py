"""``python -m benchmarks.perf compare A.json B.json``: two ledgers, row by row.

One row per (workload, end-to-end metric): both medians with quartiles, how
much worse B is than A as a share of A, the metric's bound, and a verdict.
Simulated rows, the ``sim_digest`` and the per-layer counts repeat exactly for
a seed, so anything but equality is reported as ``CHANGED``.  A host-time row whose own repetitions spread wider
than the bound cannot tell a regression from noise and reads ``unresolved``,
never ``unchanged``.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Tuple

from benchmarks.perf import spec

#: Per-layer units whose values are counts made by the program: exact for a seed.
_EXACT_UNITS = ("count", "bytes")

FAILING = ("REGRESSED", "CHANGED")


def relative_spread(cell: Dict[str, float]) -> float:
    """Distance between the quartiles as a share of the median."""
    return (cell["q3"] - cell["q1"]) / cell["median"] if cell["median"] else 0.0


def worsening(metric: spec.Metric, before: float, after: float) -> float:
    """How much worse ``after`` is than ``before``, as a share of ``before``."""
    change = (after - before) / before
    return change if metric.better == "lower" else -change


def judge(metric: spec.Metric, a: Dict[str, float], b: Dict[str, float]) -> Tuple[float, str]:
    worse = worsening(metric, a["median"], b["median"])
    if metric.clock == "sim":
        same = a["values"] == b["values"]
        return worse, "identical" if same else "CHANGED"
    if max(relative_spread(a), relative_spread(b)) > metric.bound:
        return worse, "unresolved"
    if worse > metric.bound:
        return worse, "REGRESSED"
    if worse < -metric.bound:
        return worse, "improved"
    return worse, "unchanged"


def compare(ledger_a: Dict[str, object], ledger_b: Dict[str, object]) -> List[Dict[str, object]]:
    """The comparison's rows, for every workload both ledgers hold."""
    rows: List[Dict[str, object]] = []
    for name, row_a in ledger_a["workloads"].items():
        row_b = ledger_b["workloads"].get(name)
        if row_b is None:
            continue
        for metric in spec.END_TO_END:
            a, b = row_a["end_to_end"][metric.name], row_b["end_to_end"][metric.name]
            worse, verdict = judge(metric, a, b)
            rows.append({
                "workload": name, "metric": metric.name, "unit": metric.unit,
                "a": a, "b": b, "worse_by": worse, "bound": metric.bound, "verdict": verdict,
            })
        differing = ["sim_digest"] if row_a["sim_digest"] != row_b["sim_digest"] else []
        differing += [
            m.name for m in spec.PER_LAYER
            if m.unit in _EXACT_UNITS and row_a["per_layer"][m.name] != row_b["per_layer"][m.name]
        ]
        rows.append({
            "workload": name, "metric": "digest and counts", "differing": differing,
            "verdict": "CHANGED" if differing else "identical",
        })
    return rows


def render(rows: List[Dict[str, object]]) -> str:
    lines = [
        f"{'workload':<20}{'metric':<22}{'A median [q1, q3]':>40}{'B median [q1, q3]':>40}"
        f"{'worse by':>10}{'bound':>7}  verdict"
    ]

    def cell(c: Dict[str, float]) -> str:
        return f"{c['median']:.5g} [{c['q1']:.5g}, {c['q3']:.5g}]"

    for row in rows:
        if "differing" in row:
            detail = ", ".join(row["differing"]) or "all equal"
            lines.append(f"{row['workload']:<20}{row['metric']:<22}{detail}  {row['verdict']}")
            continue
        lines.append(
            f"{row['workload']:<20}{row['metric']:<22}{cell(row['a']):>40}{cell(row['b']):>40}"
            f"{row['worse_by']:>+10.1%}{row['bound']:>7.0%}  {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: python -m benchmarks.perf compare A.json B.json", file=sys.stderr)
        return 2
    ledgers = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            ledgers.append(json.load(handle))
    rows = compare(*ledgers)
    print(render(rows))
    failing = [row for row in rows if row["verdict"] in FAILING]
    print(f"{len(rows)} rows, {len(failing)} failing "
          f"({sum(row['verdict'] == 'unresolved' for row in rows)} unresolved)")
    return 1 if failing else 0
