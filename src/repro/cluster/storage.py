"""Per-node storage engine: a memtable of timestamped cells.

Cassandra's write path appends to a commit log, applies the mutation to an
in-memory memtable and periodically flushes memtables to sstables; reads
merge them and resolve conflicts with last-write-wins on the cell timestamp.
The simulated engine keeps only what the simulation observes: one memtable
holding the newest cell per key, written with last-write-wins.  No node of a
simulated run holds enough keys for a flush to matter, and nothing replays a
commit log (there is no crash recovery), so neither is modelled.

Timestamps are the **client/coordinator-assigned write timestamps**, exactly
like Cassandra: staleness is therefore defined as "returned cell timestamp <
newest committed cell timestamp", which is also how the paper measures stale
reads (double read + timestamp comparison).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

__all__ = ["Cell", "Memtable", "StorageEngine", "StorageStats"]


@dataclass(frozen=True, order=True, slots=True)
class Cell:
    """A timestamped value for a key (Cassandra column cell, simplified).

    Ordering is by ``(timestamp, value_id)`` so conflict resolution
    (last-write-wins with a deterministic tie-break) is simply ``max``.
    """

    timestamp: float
    value_id: int
    key: str = field(compare=False)
    value: object = field(compare=False, default=None)
    size_bytes: int = field(compare=False, default=0)

    def is_newer_than(self, other: Optional["Cell"]) -> bool:
        """Last-write-wins comparison; any cell beats ``None``."""
        if other is None:
            return True
        return (self.timestamp, self.value_id) > (other.timestamp, other.value_id)


@dataclass(slots=True)
class StorageStats:
    """Counters exposed by a node's storage engine (``nodetool cfstats``-like)."""

    writes: int = 0
    reads: int = 0
    read_misses: int = 0
    #: Always 0 (nothing flushes); the perf ledger reports it per run.
    memtable_flushes: int = 0
    bytes_written: int = 0
    live_cells: int = 0


class Memtable:
    """In-memory table holding the newest cell per key."""

    def __init__(self) -> None:
        self._cells: Dict[str, Cell] = {}
        self.size_bytes = 0

    def get(self, key: str) -> Optional[Cell]:
        return self._cells.get(key)

    def __len__(self) -> int:
        return len(self._cells)


class StorageEngine:
    """A memtable with last-write-wins writes and counted reads."""

    def __init__(self) -> None:
        self.memtable = Memtable()
        self.stats = StorageStats()
        # Keys mutated since the last drain_dirty() -- the incremental
        # anti-entropy feed.  Every mutation funnels through apply() (client
        # writes, read repair, hint replay, repair streams), so this set is
        # exactly "what could have changed a Merkle leaf".  ``None`` until the
        # first drain: the first consumer rebuilds from the full key set, so
        # nothing flagged before it would ever be read.
        self.dirty_keys: Optional[set] = None

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def apply(self, cell: Cell) -> None:
        """Apply a mutation: insert into the memtable under last-write-wins."""
        key = cell.key
        memtable = self.memtable
        stats = self.stats
        existing = memtable._cells.get(key)
        if existing is None:
            memtable._cells[key] = cell
            memtable.size_bytes += cell.size_bytes
            stats.live_cells += 1
        elif cell.is_newer_than(existing):
            memtable._cells[key] = cell
            memtable.size_bytes += cell.size_bytes - existing.size_bytes
        stats.writes += 1
        stats.bytes_written += cell.size_bytes
        if self.dirty_keys is not None:
            self.dirty_keys.add(key)

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def read(self, key: str) -> Optional[Cell]:
        """Return the newest cell for ``key``."""
        self.stats.reads += 1
        best = self.memtable.get(key)
        if best is None:
            self.stats.read_misses += 1
        return best

    def peek(self, key: str) -> Optional[Cell]:
        """Like :meth:`read` but without touching the read counters.

        Used by the staleness auditor and by read repair, which must not
        inflate the request-rate statistics that Harmony's monitor samples.
        """
        return self.memtable.get(key)

    def drain_dirty(self) -> set:
        """Return (and reset) the keys mutated since the previous drain.

        Tracking starts at the first call, which returns an empty set.
        Consumed by the anti-entropy service's per-datacenter tree caches,
        whose first refresh is a full rebuild; like :meth:`peek`, draining
        never touches the read counters.
        """
        dirty = self.dirty_keys
        self.dirty_keys = set()
        return set() if dirty is None else dirty

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def keys(self) -> set:
        """Distinct keys currently stored.

        Used by the anti-entropy service to build Merkle trees; like
        :meth:`peek`, it does not touch the read counters.
        """
        return set(self.memtable._cells)

    def key_count(self) -> int:
        """Number of distinct keys currently stored."""
        return len(self.memtable)

    def total_bytes(self) -> int:
        """Approximate resident data size."""
        return self.memtable.size_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StorageEngine(keys={len(self.memtable)}, "
            f"writes={self.stats.writes}, reads={self.stats.reads})"
        )
