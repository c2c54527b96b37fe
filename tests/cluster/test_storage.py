"""Unit tests for the per-node storage engine."""

from __future__ import annotations

import sys

import pytest

from repro.cluster.storage import Cell, CommitLog, Memtable, SSTable, StorageEngine


def cell(key: str, ts: float, vid: int = 0, value="v", size=10) -> Cell:
    return Cell(timestamp=ts, value_id=vid, key=key, value=value, size_bytes=size)


class TestCell:
    def test_newer_than_by_timestamp(self):
        assert cell("k", 2.0).is_newer_than(cell("k", 1.0))
        assert not cell("k", 1.0).is_newer_than(cell("k", 2.0))

    def test_tie_broken_by_value_id(self):
        assert cell("k", 1.0, vid=2).is_newer_than(cell("k", 1.0, vid=1))

    def test_any_cell_beats_none(self):
        assert cell("k", 0.0).is_newer_than(None)


class TestMemtable:
    def test_put_and_get(self):
        table = Memtable()
        table.put(cell("a", 1.0))
        assert table.get("a").timestamp == 1.0
        assert table.get("missing") is None

    def test_last_write_wins(self):
        table = Memtable()
        table.put(cell("a", 2.0, value="new"))
        table.put(cell("a", 1.0, value="old"))
        assert table.get("a").value == "new"

    def test_size_tracks_replacements(self):
        table = Memtable()
        table.put(cell("a", 1.0, size=10))
        table.put(cell("a", 2.0, size=30))
        assert table.size_bytes == 30
        assert len(table) == 1


class TestCommitLog:
    def test_append_counts(self):
        log = CommitLog()
        log.append(cell("a", 1.0, size=5))
        log.append(cell("b", 2.0, size=7))
        assert log.appended == 2
        assert log.bytes_appended == 12

    def test_retains_no_entry(self):
        # Nothing replays the log, so an appended cell is not kept alive by it.
        log = CommitLog()
        appended = cell("a", 1.0)
        before = sys.getrefcount(appended)
        for _ in range(50):
            log.append(appended)
        assert log.appended == 50
        assert sys.getrefcount(appended) == before


class TestSSTable:
    def test_lookup(self):
        table = SSTable(0, {"a": cell("a", 1.0)})
        assert table.get("a").timestamp == 1.0
        assert table.get("b") is None
        assert list(table.keys()) == ["a"]
        assert len(table) == 1


class TestStorageEngine:
    def test_apply_then_read(self):
        engine = StorageEngine()
        engine.apply(cell("a", 1.0, value="x"))
        assert engine.read("a").value == "x"
        assert engine.stats.writes == 1
        assert engine.stats.reads == 1

    def test_read_miss_counted(self):
        engine = StorageEngine()
        assert engine.read("nope") is None
        assert engine.stats.read_misses == 1

    def test_last_write_wins_across_memtable_and_sstable(self):
        engine = StorageEngine(memtable_flush_threshold=2)
        engine.apply(cell("a", 1.0, value="old"))
        engine.apply(cell("b", 1.0))
        # flush happened; now a newer version of "a" lands in the new memtable
        assert engine.stats.memtable_flushes == 1
        engine.apply(cell("a", 2.0, value="new"))
        assert engine.read("a").value == "new"

    def test_older_write_does_not_clobber_newer(self):
        engine = StorageEngine()
        engine.apply(cell("a", 5.0, value="new"))
        engine.apply(cell("a", 1.0, value="late-old"))
        assert engine.read("a").value == "new"

    def test_flush_threshold_and_generation(self):
        engine = StorageEngine(memtable_flush_threshold=3)
        for i in range(3):
            engine.apply(cell(f"k{i}", float(i)))
        assert len(engine.sstables) == 1
        assert len(engine.memtable) == 0

    def test_flush_empty_memtable_returns_none(self):
        engine = StorageEngine()
        assert engine.flush() is None

    def test_compaction_merges_sstables(self):
        engine = StorageEngine(memtable_flush_threshold=1, compaction_threshold=3)
        engine.apply(cell("a", 1.0, value="v1"))
        engine.apply(cell("a", 2.0, value="v2"))
        engine.apply(cell("b", 1.0))
        # Third flush triggers compaction into a single sstable.
        assert len(engine.sstables) == 1
        assert engine.stats.compactions == 1
        assert engine.read("a").value == "v2"
        assert engine.read("b") is not None

    def test_peek_does_not_touch_read_counters(self):
        engine = StorageEngine()
        engine.apply(cell("a", 1.0))
        engine.peek("a")
        assert engine.stats.reads == 0

    def test_key_count_and_total_bytes(self):
        engine = StorageEngine(memtable_flush_threshold=2)
        engine.apply(cell("a", 1.0, size=10))
        engine.apply(cell("b", 1.0, size=10))
        engine.apply(cell("c", 1.0, size=10))
        assert engine.key_count() == 3
        assert engine.total_bytes() == 30

    def test_live_cells_counts_distinct_keys(self):
        engine = StorageEngine()
        engine.apply(cell("a", 1.0))
        engine.apply(cell("a", 2.0))
        engine.apply(cell("b", 1.0))
        assert engine.stats.live_cells == 2

    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ValueError):
            StorageEngine(memtable_flush_threshold=0)
        with pytest.raises(ValueError):
            StorageEngine(compaction_threshold=1)
