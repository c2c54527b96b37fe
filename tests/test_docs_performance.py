"""``docs/performance.md``'s budgets table names tests that exist.

Each row of the table says which test asserts it, as
``tests/<path>.py::<name>[::<name>]``.  A cited test that is renamed or
deleted would leave the row claiming a guard that no longer runs, and a
budget test without a row would be a guard the page does not describe.
"""

from __future__ import annotations

import ast
import os
import re
from typing import List, Set

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOC = os.path.join(REPO_ROOT, "docs", "performance.md")
OP_BUDGET = "tests/integration/test_op_budget.py"
CITATION = re.compile(r"`(tests/[\w/]+\.py)(?:::([\w:]+))?`")


def budget_rows() -> List[str]:
    """The body rows of the table under the ``## 2. Budgets`` heading."""
    with open(DOC, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    start = lines.index("## 2. Budgets")
    rows = []
    for line in lines[start + 1:]:
        if line.startswith("## "):
            break
        if line.startswith("|") and not line.startswith("| ---"):
            rows.append(line)
    return rows[1:]  # the header


def resolves(path: str, name: str) -> bool:
    """Whether ``name`` (``Class``, ``function`` or ``Class::method``) is defined in ``path``."""
    with open(os.path.join(REPO_ROOT, path), "r", encoding="utf-8") as handle:
        scope: List[ast.stmt] = ast.parse(handle.read()).body
    for part in name.split("::"):
        found = [
            node
            for node in scope
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == part
        ]
        if not found:
            return False
        scope = found[0].body
    return True


def op_budget_tests() -> Set[str]:
    """Every ``Class::test_*`` and module-level ``test_*`` in ``test_op_budget.py``."""
    with open(os.path.join(REPO_ROOT, OP_BUDGET), "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    names = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test_"):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef) and node.name.startswith("Test"):
            names.update(
                f"{node.name}::{item.name}"
                for item in node.body
                if isinstance(item, ast.FunctionDef) and item.name.startswith("test_")
            )
    return names


def test_every_row_cites_a_test():
    rows = budget_rows()
    assert rows and [row for row in rows if not CITATION.search(row)] == []


def test_every_cited_test_exists():
    missing = []
    for row in budget_rows():
        for path, name in CITATION.findall(row):
            if not os.path.isfile(os.path.join(REPO_ROOT, path)):
                missing.append(path)
            elif name and not resolves(path, name):
                missing.append(f"{path}::{name}")
    assert missing == []


def test_every_op_budget_test_has_a_row():
    cited = {
        name
        for row in budget_rows()
        for path, name in CITATION.findall(row)
        if path == OP_BUDGET
    }
    assert op_budget_tests() - cited == set()
