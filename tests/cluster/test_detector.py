"""Unit tests for the shared failure detector."""

from __future__ import annotations

from repro.cluster.detector import FailureDetector
from repro.network.topology import NodeAddress


def addr(i: int) -> NodeAddress:
    return NodeAddress("dc1", "r1", i)


class TestFailureDetector:
    def test_initially_everything_is_up(self):
        detector = FailureDetector()
        assert not detector.any_down
        assert detector.is_up(addr(0))
        assert detector.down_nodes() == set()

    def test_mark_down_and_up(self):
        detector = FailureDetector()
        detector.mark_down(addr(1))
        assert detector.any_down
        assert not detector.is_up(addr(1))
        assert detector.is_up(addr(2))
        detector.mark_up(addr(1))
        assert not detector.any_down
        assert detector.is_up(addr(1))

    def test_mark_up_unknown_node_is_a_noop(self):
        detector = FailureDetector()
        detector.mark_up(addr(9))
        assert not detector.any_down

    def test_live_count(self):
        detector = FailureDetector()
        nodes = [addr(i) for i in range(5)]
        assert detector.live_count(nodes) == 5
        detector.mark_down(nodes[0])
        detector.mark_down(nodes[3])
        assert detector.live_count(nodes) == 3

    def test_down_nodes_returns_a_copy(self):
        detector = FailureDetector()
        detector.mark_down(addr(1))
        snapshot = detector.down_nodes()
        snapshot.clear()
        assert detector.any_down
