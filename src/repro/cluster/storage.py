"""Per-node storage engine: commit log, memtable and sstables.

Cassandra's write path appends to a commit log, applies the mutation to an
in-memory memtable and periodically flushes memtables to immutable sstables
on disk.  Reads merge the memtable with the sstables and resolve conflicts
with last-write-wins on the cell timestamp.

The simulated engine keeps the same structure (so flush/compaction behaviour,
cell counts and storage statistics are observable and testable) while holding
everything in memory.  Timestamps are the **client/coordinator-assigned write
timestamps**, exactly like Cassandra: staleness is therefore defined as
"returned cell timestamp < newest committed cell timestamp", which is also
how the paper measures stale reads (double read + timestamp comparison).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["Cell", "Memtable", "SSTable", "CommitLog", "StorageEngine", "StorageStats"]


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
    memtable_flushes: int = 0
    compactions: int = 0
    bytes_written: int = 0
    live_cells: int = 0
    sstable_count: int = 0


class CommitLog:
    """Append-only durability log, kept as its counters.

    The engine never replays the log (there is no crash recovery in the
    simulation, and Cassandra recycles a segment once its memtables flush),
    so no entry is retained: the append and byte counters are what make the
    write path observable to tests and to storage-overhead ablations.
    """

    __slots__ = ("appended", "bytes_appended")

    def __init__(self) -> None:
        self.appended = 0
        self.bytes_appended = 0

    def append(self, cell: Cell) -> None:
        """Record one mutation."""
        self.appended += 1
        self.bytes_appended += cell.size_bytes


class Memtable:
    """In-memory write-back table holding the newest cell per key."""

    def __init__(self) -> None:
        self._cells: Dict[str, Cell] = {}
        self.size_bytes = 0

    def put(self, cell: Cell) -> None:
        """Insert or overwrite under last-write-wins."""
        existing = self._cells.get(cell.key)
        if existing is None or cell.is_newer_than(existing):
            if existing is not None:
                self.size_bytes -= existing.size_bytes
            self._cells[cell.key] = cell
            self.size_bytes += cell.size_bytes

    def get(self, key: str) -> Optional[Cell]:
        return self._cells.get(key)

    def __len__(self) -> int:
        return len(self._cells)

    def items(self) -> Iterable[Tuple[str, Cell]]:
        return self._cells.items()


class SSTable:
    """An immutable flushed table (a frozen snapshot of a memtable)."""

    __slots__ = ("_cells", "generation", "size_bytes")

    def __init__(self, generation: int, cells: Dict[str, Cell]) -> None:
        self.generation = generation
        self._cells = dict(cells)
        self.size_bytes = sum(cell.size_bytes for cell in cells.values())

    def get(self, key: str) -> Optional[Cell]:
        return self._cells.get(key)

    def keys(self) -> Iterable[str]:
        return self._cells.keys()

    def cells(self) -> Iterable[Cell]:
        return self._cells.values()

    def __len__(self) -> int:
        return len(self._cells)


class StorageEngine:
    """Commit log + memtable + sstables with last-write-wins reads.

    Parameters
    ----------
    memtable_flush_threshold:
        Number of distinct keys in the memtable that triggers a flush to a
        new sstable.
    compaction_threshold:
        Number of sstables that triggers a (size-tiered style) compaction of
        all sstables into one.
    """

    def __init__(
        self,
        *,
        memtable_flush_threshold: int = 4096,
        compaction_threshold: int = 8,
    ) -> None:
        if memtable_flush_threshold < 1:
            raise ValueError("memtable_flush_threshold must be >= 1")
        if compaction_threshold < 2:
            raise ValueError("compaction_threshold must be >= 2")
        self._flush_threshold = int(memtable_flush_threshold)
        self._compaction_threshold = int(compaction_threshold)
        self.commit_log = CommitLog()
        self.memtable = Memtable()
        self.sstables: List[SSTable] = []
        self._next_generation = 0
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
        """Apply a mutation: commit log append + memtable insert (+ maybe flush)."""
        # Inlined CommitLog.append -- one mutation per replica write makes
        # this the hottest storage call.
        log = self.commit_log
        log.appended += 1
        log.bytes_appended += cell.size_bytes
        key = cell.key
        memtable = self.memtable
        # One memtable lookup serves both the live-cell accounting and the
        # last-write-wins insert (Memtable.put would look the key up again).
        existing = memtable._cells.get(key)
        if existing is None:
            had_key = False
            for table in self.sstables:
                if table.get(key) is not None:
                    had_key = True
                    break
            memtable._cells[key] = cell
            memtable.size_bytes += cell.size_bytes
        else:
            had_key = True
            if cell.is_newer_than(existing):
                memtable._cells[key] = cell
                memtable.size_bytes += cell.size_bytes - existing.size_bytes
        stats = self.stats
        stats.writes += 1
        stats.bytes_written += cell.size_bytes
        if not had_key:
            stats.live_cells += 1
        if self.dirty_keys is not None:
            self.dirty_keys.add(key)
        if len(memtable._cells) >= self._flush_threshold:
            self.flush()

    def flush(self) -> Optional[SSTable]:
        """Flush the memtable into a new sstable; returns it (or None if empty)."""
        if len(self.memtable) == 0:
            return None
        cells = {key: cell for key, cell in self.memtable.items()}
        sstable = SSTable(self._next_generation, cells)
        self._next_generation += 1
        self.sstables.append(sstable)
        self.memtable = Memtable()
        self.stats.memtable_flushes += 1
        self.stats.sstable_count = len(self.sstables)
        if len(self.sstables) >= self._compaction_threshold:
            self.compact()
        return sstable

    def compact(self) -> None:
        """Merge all sstables into one, keeping the newest cell per key."""
        if len(self.sstables) < 2:
            return
        merged: Dict[str, Cell] = {}
        for table in self.sstables:
            for cell in table.cells():
                existing = merged.get(cell.key)
                if existing is None or cell.is_newer_than(existing):
                    merged[cell.key] = cell
        self.sstables = [SSTable(self._next_generation, merged)]
        self._next_generation += 1
        self.stats.compactions += 1
        self.stats.sstable_count = len(self.sstables)

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def read(self, key: str) -> Optional[Cell]:
        """Return the newest cell for ``key`` across memtable and sstables."""
        self.stats.reads += 1
        best = self.memtable.get(key)
        for table in reversed(self.sstables):
            candidate = table.get(key)
            if candidate is not None and candidate.is_newer_than(best):
                best = candidate
        if best is None:
            self.stats.read_misses += 1
        return best

    def peek(self, key: str) -> Optional[Cell]:
        """Like :meth:`read` but without touching the read counters.

        Used by the staleness auditor and by read repair, which must not
        inflate the request-rate statistics that Harmony's monitor samples.
        """
        best = self.memtable.get(key)
        for table in reversed(self.sstables):
            candidate = table.get(key)
            if candidate is not None and candidate.is_newer_than(best):
                best = candidate
        return best

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
        """Distinct keys currently stored (memtable + sstables).

        Used by the anti-entropy service to build Merkle trees; like
        :meth:`peek`, it does not touch the read counters.
        """
        keys = set(key for key, _ in self.memtable.items())
        for table in self.sstables:
            keys.update(table.keys())
        return keys

    def key_count(self) -> int:
        """Number of distinct keys currently stored."""
        return len(self.keys())

    def total_bytes(self) -> int:
        """Approximate resident data size (memtable + sstables)."""
        return self.memtable.size_bytes + sum(table.size_bytes for table in self.sstables)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StorageEngine(memtable={len(self.memtable)}, sstables={len(self.sstables)}, "
            f"writes={self.stats.writes}, reads={self.stats.reads})"
        )
