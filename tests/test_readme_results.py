"""README's results table says what ``SCORECARD.json`` says.

The table quotes five scorecard rows.  Each quoted number is rendered here
from the committed scorecard at the table's rounding and compared with the
README cell, so a scorecard that moves fails this test until the README
moves with it.
"""

from __future__ import annotations

import json
import os
import re
from typing import Callable, Dict, List

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HEADER = "| id | the paper | measured | verdict |"


def readme_rows() -> Dict[str, List[str]]:
    """Row id -> the row's cells, for the table under ``HEADER``."""
    with open(os.path.join(REPO_ROOT, "README.md"), "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    rows: Dict[str, List[str]] = {}
    for line in lines[lines.index(HEADER) + 2:]:
        if not line.startswith("|"):
            break
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        rows[cells[0].strip("`")] = cells
    return rows


def load_scorecard() -> dict:
    with open(os.path.join(REPO_ROOT, "SCORECARD.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def scorecard_row(card: dict, row_id: str) -> dict:
    (row,) = [row for row in card["rows"] if row["id"] == row_id]
    return row


def by_policy(rows: List[dict]) -> Dict[str, dict]:
    return {row["policy"]: row for row in rows}


def ops(value: float) -> str:
    return f"{value:,.0f}"


def stale_read_reduction(card: dict) -> str:
    table = card["tables"]["claims"]
    threads = re.search(r"(\d+) threads", table["title"]).group(1)
    policies = by_policy(table["sections"]["policy comparison"])
    eventual, harmony = policies["eventual"], policies["harmony-20%"]
    reduction = scorecard_row(card, "claims.stale_read_reduction")["measured"]["reduction"]
    added = harmony["read_p99_ms"] - eventual["read_p99_ms"]
    return (
        f"−{reduction * 100:.1f} % ({eventual['stale_reads']} → {harmony['stale_reads']} "
        f"stale reads at {threads} threads, +{added:.1f} ms read p99)"
    )


def throughput_improvement(card: dict) -> str:
    policies = by_policy(card["tables"]["claims"]["sections"]["policy comparison"])
    strong, harmony = policies["strong"], policies["harmony-40%"]
    improvement = scorecard_row(card, "claims.throughput_improvement")["measured"]["improvement"]
    return (
        f"+{improvement * 100:.1f} % ({ops(strong['throughput_ops_s'])} → "
        f"{ops(harmony['throughput_ops_s'])} ops/s; stale rate {harmony['stale_rate'] * 100:g} %)"
    )


def harmony_gain_over_strong(card: dict) -> str:
    rows = card["tables"]["fig5_grid5000"]["sections"]["overall throughput (Fig. 5c/5d)"]
    widest = max(row["threads"] for row in rows)
    policies = by_policy([row for row in rows if row["threads"] == widest])
    measured = scorecard_row(card, "fig5c.harmony_gain_over_strong")["measured"]
    assert measured["harmony-40%"] == policies["harmony-40%"]["throughput_ops_s"]
    return (
        f"{ops(measured['harmony-40%'])} vs {ops(policies['strong']['throughput_ops_s'])} "
        f"ops/s (eventual {ops(policies['eventual']['throughput_ops_s'])})"
    )


def harmony_cuts_staleness(card: dict) -> str:
    measured = scorecard_row(card, "fig6a.harmony_cuts_staleness")["measured"]
    return f"{measured['harmony-20%']} vs {measured['eventual']} stale reads over the thread sweep"


def estimator_upper_bounds_measurement(card: dict) -> str:
    measured = scorecard_row(card, "staleness.estimator_upper_bounds_measurement")["measured"]
    pairs = []
    for scenario in ("grid5000_3sites", "ec2_multiregion", "scale_100"):
        predicted, observed = re.fullmatch(
            r"predicted (\S+) vs measured (\S+)", measured[f"{scenario}.eventual"]
        ).groups()
        pairs.append((float(predicted), float(observed), scenario))
    first, *rest = pairs
    parts = [f"predicted {first[0]:.3f} vs measured {first[1]:.3f} (`{first[2]}`)"]
    parts += [f"{p:.3f} vs {m:.3f} (`{scenario}`)" for p, m, scenario in rest]
    return ", ".join(parts) + " at eventual consistency"


RENDER: Dict[str, Callable[[dict], str]] = {
    "claims.stale_read_reduction": stale_read_reduction,
    "claims.throughput_improvement": throughput_improvement,
    "fig5c.harmony_gain_over_strong": harmony_gain_over_strong,
    "fig6a.harmony_cuts_staleness": harmony_cuts_staleness,
    "staleness.estimator_upper_bounds_measurement": estimator_upper_bounds_measurement,
}


def test_the_table_quotes_the_rendered_rows():
    assert set(readme_rows()) == set(RENDER)


def test_every_measured_cell_is_the_scorecard_at_the_tables_rounding():
    card = load_scorecard()
    rows = readme_rows()
    wrong = {
        row_id: (rows[row_id][2], render(card))
        for row_id, render in RENDER.items()
        if rows[row_id][2] != render(card)
    }
    assert not wrong, f"README cell vs SCORECARD.json: {wrong}"


def test_every_verdict_is_the_scorecards():
    card = load_scorecard()
    for row_id, cells in readme_rows().items():
        assert cells[3].startswith(scorecard_row(card, row_id)["verdict"]), row_id
