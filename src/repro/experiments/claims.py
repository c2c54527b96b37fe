"""Headline-claim experiments.

The abstract and introduction of the paper make two quantitative claims for
workload A:

1. compared with static eventual consistency, Harmony with a 20% tolerated
   stale-read rate cuts the number of stale reads by roughly 80% while adding
   only minimal read latency;
2. compared with strong consistency, Harmony improves throughput by roughly
   45% while still meeting the application's consistency requirement.

:func:`headline_claims` runs the three policies involved (eventual, strong,
Harmony at the restrictive setting) under identical conditions and reports
the measured reduction/improvement factors next to the paper's numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.experiments.figures import DEFAULTS, FigureDefaults
from repro.experiments.scenarios import GRID5000, Scenario
from repro.metrics.report import MetricsReport
from repro.workload.workloads import WORKLOAD_A, WorkloadConfig

__all__ = [
    "MIN_STALE_READ_REDUCTION",
    "MIN_THROUGHPUT_IMPROVEMENT",
    "ClaimOutcome",
    "headline_claims",
]

#: A claim holds when the measurement reaches this clear fraction of the
#: paper's magnitude (direction and rough size; the paper reports 0.80 and
#: 0.45 on its hardware testbeds).  The scorecard judges with these too.
MIN_STALE_READ_REDUCTION = 0.5
MIN_THROUGHPUT_IMPROVEMENT = 0.15


@dataclass(frozen=True)
class ClaimOutcome:
    """Measured value vs the paper's reported value for one claim."""

    claim: str
    paper_value: float
    measured_value: float
    holds: bool
    detail: str


def headline_claims(
    scenario: Scenario = GRID5000,
    defaults: FigureDefaults = DEFAULTS,
    workload: WorkloadConfig = WORKLOAD_A,
    threads: int = 70,
    restrictive_asr: Optional[float] = None,
    lenient_asr: Optional[float] = None,
) -> tuple[MetricsReport, List[ClaimOutcome]]:
    """Evaluate the two headline claims and return (report, outcomes).

    Claim 1 (stale-read reduction with minimal added latency) references the
    restrictive Harmony setting (20% on Grid'5000); claim 2 (throughput
    improvement over strong consistency while meeting the requirement) is
    evaluated with the lenient setting (40% on Grid'5000), which is the
    configuration the paper's Fig. 5(c)/(d) show tracking eventual-consistency
    throughput.  Both defaults follow ``scenario.harmony_stale_rates``.
    """
    lenient = lenient_asr if lenient_asr is not None else scenario.harmony_stale_rates[0]
    restrictive = (
        restrictive_asr if restrictive_asr is not None else scenario.harmony_stale_rates[1]
    )
    eventual, strong, harmony_restrictive, harmony_lenient = (
        defaults.run(scenario, workload, policy, threads)
        for policy in ("eventual", "strong", f"harmony-{restrictive}", f"harmony-{lenient}")
    )

    # Claim 1: stale-read reduction vs eventual consistency (restrictive ASR).
    eventual_stale = eventual.row["stale_reads"]
    harmony_stale = harmony_restrictive.row["stale_reads"]
    if eventual_stale > 0:
        reduction = 1.0 - harmony_stale / eventual_stale
    else:
        reduction = 0.0
    added_latency_ms = (harmony_restrictive.read_p99 - eventual.read_p99) * 1e3
    claim1 = ClaimOutcome(
        claim="stale-read reduction vs eventual consistency",
        paper_value=0.80,
        measured_value=round(reduction, 4),
        holds=reduction >= MIN_STALE_READ_REDUCTION,
        detail=(
            f"eventual={eventual_stale} stale reads, "
            f"{harmony_restrictive.row['policy']}={harmony_stale}; "
            f"p99 latency added: {added_latency_ms:.3f} ms"
        ),
    )

    # Claim 2: throughput improvement vs strong consistency (lenient ASR).
    strong_tp = strong.throughput
    harmony_tp = harmony_lenient.throughput
    improvement = (harmony_tp - strong_tp) / strong_tp if strong_tp > 0 else 0.0
    claim2 = ClaimOutcome(
        claim="throughput improvement vs strong consistency",
        paper_value=0.45,
        measured_value=round(improvement, 4),
        holds=improvement >= MIN_THROUGHPUT_IMPROVEMENT,
        detail=(
            f"strong={strong_tp:.1f} ops/s, "
            f"{harmony_lenient.row['policy']}={harmony_tp:.1f} ops/s, "
            f"harmony stale rate={harmony_lenient.stale_rate:.3f} "
            f"(ASR={lenient})"
        ),
    )

    report = MetricsReport(title=f"Headline claims ({scenario.name}, {workload.name}, {threads} threads)")
    report.add_section(
        "policy comparison",
        [
            record.columns("policy", "throughput_ops_s", "read_p99_ms", "stale_reads", "stale_rate")
            for record in (eventual, strong, harmony_restrictive, harmony_lenient)
        ],
    )
    report.add_section(
        "claims",
        [
            {
                "claim": outcome.claim,
                "paper": outcome.paper_value,
                "measured": outcome.measured_value,
                "holds (direction & magnitude)": outcome.holds,
                "detail": outcome.detail,
            }
            for outcome in (claim1, claim2)
        ],
    )
    report.add_note(
        "The paper's exact percentages (80% / 45%) come from its hardware testbeds; "
        "the reproduction checks direction and rough magnitude on the simulated platform."
    )
    return report, [claim1, claim2]
