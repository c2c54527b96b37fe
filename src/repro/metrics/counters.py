"""Counts of client operations by type and outcome."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["OperationCounters"]


@dataclass
class OperationCounters:
    """Simple counts of client operations by type and outcome."""

    reads: int = 0
    writes: int = 0
    read_timeouts: int = 0
    write_timeouts: int = 0
    read_misses: int = 0
    #: Operations rejected with Unavailable (fault injection); these are
    #: counted separately from reads/writes because they never executed.
    unavailable_reads: int = 0
    unavailable_writes: int = 0
    #: Unavailable rejections absorbed by the client retry policy: each
    #: retry re-issued one operation; each downgrade additionally weakened
    #: its consistency level (e.g. EACH_QUORUM -> LOCAL_QUORUM).  Retried
    #: rejections never reach ``unavailable_reads``/``unavailable_writes``
    #: unless the final attempt also fails.
    retries: int = 0
    downgrades: int = 0

    @property
    def unavailable(self) -> int:
        """Operations rejected as Unavailable (reads + writes)."""
        return self.unavailable_reads + self.unavailable_writes

    @property
    def total(self) -> int:
        """Total number of completed client operations (incl. rejections)."""
        return self.reads + self.writes + self.unavailable

    def as_dict(self) -> Dict[str, int]:
        return {
            "reads": self.reads,
            "writes": self.writes,
            "read_timeouts": self.read_timeouts,
            "write_timeouts": self.write_timeouts,
            "read_misses": self.read_misses,
            "unavailable_reads": self.unavailable_reads,
            "unavailable_writes": self.unavailable_writes,
            "retries": self.retries,
            "downgrades": self.downgrades,
            "total": self.total,
        }
