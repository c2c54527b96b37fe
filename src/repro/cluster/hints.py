"""Hinted handoff: buffering writes destined for unavailable replicas.

When a replica is down (or its acknowledgement never arrives), the
coordinator stores a *hint* -- the mutation plus the target replica -- and
replays it once the target is reachable again.  This keeps eventually-
consistent clusters converging through transient failures and is exercised
by the failure-injection tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.cluster.storage import Cell
from repro.network.topology import NodeAddress

__all__ = ["Hint", "HintStore"]


@dataclass(frozen=True)
class Hint:
    """A buffered mutation awaiting replay to ``target``."""

    target: NodeAddress
    cell: Cell
    created_at: float


@dataclass(slots=True)
class HintStore:
    """Per-coordinator store of pending hints.

    Parameters
    ----------
    max_hints_per_target:
        Upper bound on buffered hints per target node; beyond it the oldest
        hints are discarded (Cassandra bounds hint storage the same way, via
        a time window).
    """

    max_hints_per_target: int = 10_000
    _hints: Dict[NodeAddress, List[Hint]] = field(default_factory=dict)
    stored: int = 0
    replayed: int = 0
    discarded: int = 0

    def add(self, hint: Hint) -> None:
        """Buffer one hint for later replay."""
        bucket = self._hints.setdefault(hint.target, [])
        bucket.append(hint)
        self.stored += 1
        if len(bucket) > self.max_hints_per_target:
            overflow = len(bucket) - self.max_hints_per_target
            del bucket[:overflow]
            self.discarded += overflow

    def pending_for(self, target: NodeAddress) -> int:
        """Number of hints currently buffered for ``target``."""
        return len(self._hints.get(target, []))

    def total_pending(self) -> int:
        return sum(len(bucket) for bucket in self._hints.values())

    def targets(self) -> List[NodeAddress]:
        """Targets with at least one pending hint."""
        return [target for target, bucket in self._hints.items() if bucket]

    def replay(self, target: NodeAddress, deliver: Callable[[Hint], None]) -> int:
        """Replay every pending hint for ``target`` through ``deliver``.

        Returns the number of hints replayed.  Delivery order preserves the
        original write order, so last-write-wins resolution is unaffected.
        """
        bucket = self._hints.pop(target, [])
        for hint in bucket:
            deliver(hint)
        self.replayed += len(bucket)
        return len(bucket)
