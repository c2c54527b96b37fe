"""Unit tests for the operation counters."""

from __future__ import annotations

from repro.metrics.counters import OperationCounters


class TestOperationCounters:
    def test_total_and_dict(self):
        counters = OperationCounters(reads=3, writes=2, read_misses=1)
        assert counters.total == 5
        data = counters.as_dict()
        assert data["total"] == 5
        assert data["read_misses"] == 1
