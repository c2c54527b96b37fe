"""Unit tests for the ground-truth staleness auditor."""

from __future__ import annotations

import pytest

from repro.cluster.consistency import ConsistencyLevel
from repro.cluster.coordinator import OperationResult
from repro.cluster.storage import Cell
from repro.staleness.auditor import StalenessAuditor


def write_result(key: str, ts: float, vid: int, completed_at: float) -> OperationResult:
    return OperationResult(
        op_type="write",
        key=key,
        cell=Cell(timestamp=ts, value_id=vid, key=key, value=f"v{vid}", size_bytes=8),
        consistency_level=ConsistencyLevel.ONE,
        blocked_for=1,
        started_at=completed_at - 0.001,
        completed_at=completed_at,
    )


def read_result(key: str, ts, vid, started_at: float) -> OperationResult:
    cell = None
    if ts is not None:
        cell = Cell(timestamp=ts, value_id=vid, key=key, value="v", size_bytes=8)
    return OperationResult(
        op_type="read",
        key=key,
        cell=cell,
        consistency_level=ConsistencyLevel.ONE,
        blocked_for=1,
        started_at=started_at,
        completed_at=started_at + 0.001,
    )


def test_read_with_no_prior_write_is_unknown():
    auditor = StalenessAuditor()
    verdict = auditor.judge("k", read_result("k", None, None, started_at=1.0))
    assert verdict is None
    assert auditor.stats.unknown_reads == 1
    assert auditor.stats.judged_reads == 0
    assert auditor.stats.stale_rate() == 0.0


def test_fresh_read_of_the_acknowledged_version():
    auditor = StalenessAuditor()
    auditor.observe_write(write_result("k", ts=1.0, vid=0, completed_at=1.0))
    verdict = auditor.judge("k", read_result("k", 1.0, 0, started_at=2.0))
    assert verdict is False
    assert (auditor.stats.judged_reads, auditor.stats.stale_reads) == (1, 0)


def test_stale_read_returns_older_version():
    auditor = StalenessAuditor()
    auditor.observe_write(write_result("k", ts=1.0, vid=0, completed_at=1.0))
    auditor.observe_write(write_result("k", ts=2.0, vid=1, completed_at=2.0))
    verdict = auditor.judge("k", read_result("k", 1.0, 0, started_at=3.0))
    assert verdict is True
    assert auditor.stats.stale_reads == 1
    assert auditor.stats.stale_rate() == 1.0


def test_write_acked_after_read_start_does_not_count():
    auditor = StalenessAuditor()
    auditor.observe_write(write_result("k", ts=1.0, vid=0, completed_at=1.0))
    # A newer write is acknowledged at t=5, but the read started at t=4.
    auditor.observe_write(write_result("k", ts=4.5, vid=1, completed_at=5.0))
    verdict = auditor.judge("k", read_result("k", 1.0, 0, started_at=4.0))
    assert verdict is False


def test_read_returning_newer_unacknowledged_data_is_fresh():
    auditor = StalenessAuditor()
    auditor.observe_write(write_result("k", ts=1.0, vid=0, completed_at=1.0))
    # The replica was ahead of the acknowledged state: still fresh.
    verdict = auditor.judge("k", read_result("k", 7.0, 3, started_at=2.0))
    assert verdict is False


def test_read_missing_value_after_acknowledged_write_is_stale():
    auditor = StalenessAuditor()
    auditor.observe_write(write_result("k", ts=1.0, vid=0, completed_at=1.0))
    verdict = auditor.judge("k", read_result("k", None, None, started_at=2.0))
    assert verdict is True


def test_verdicts_are_independent_of_completion_order():
    """Two concurrent reads of the same key must each be judged against the
    acknowledged state at their own start time, whatever order they complete in."""
    auditor = StalenessAuditor()
    auditor.observe_write(write_result("k", ts=1.0, vid=0, completed_at=1.0))
    read_before = read_result("k", 1.0, 0, started_at=1.5)   # newest ack is v0
    auditor.observe_write(write_result("k", ts=2.0, vid=1, completed_at=2.0))
    read_after = read_result("k", 1.0, 0, started_at=2.5)    # newest ack is v1

    # Completion order reversed relative to issue order.
    assert auditor.judge("k", read_after) is True
    assert auditor.judge("k", read_before) is False


def test_slow_old_write_ack_does_not_roll_back_expectations():
    auditor = StalenessAuditor()
    auditor.observe_write(write_result("k", ts=5.0, vid=2, completed_at=6.0))
    # An older write acked later must not lower the expected version.
    auditor.observe_write(write_result("k", ts=1.0, vid=0, completed_at=7.0))
    assert auditor.newest_acknowledged("k") == (5.0, 2)
    verdict = auditor.judge("k", read_result("k", 1.0, 0, started_at=8.0))
    assert verdict is True


def test_write_without_cell_is_ignored():
    auditor = StalenessAuditor()
    result = read_result("k", None, None, started_at=1.0)
    result = OperationResult(
        op_type="write",
        key="k",
        cell=None,
        consistency_level=ConsistencyLevel.ONE,
        blocked_for=1,
        started_at=0.0,
        completed_at=1.0,
    )
    auditor.observe_write(result)
    assert auditor.writes_observed == 0
    assert auditor.newest_acknowledged("k") is None


def test_counters_and_keys_are_independent():
    auditor = StalenessAuditor()
    auditor.observe_write(write_result("a", 1.0, 0, 1.0))
    auditor.observe_write(write_result("b", 1.0, 0, 1.0))
    auditor.observe_write(write_result("a", 2.0, 1, 2.0))
    assert auditor.judge("a", read_result("a", 1.0, 0, started_at=3.0)) is True
    assert auditor.judge("b", read_result("b", 1.0, 0, started_at=3.0)) is False
    assert auditor.stats.judged_reads == 2
    assert auditor.stats.unknown_reads == 0
    assert auditor.stats.stale_rate() == pytest.approx(0.5)
