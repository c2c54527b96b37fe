"""Unit tests for the per-node storage engine."""

from __future__ import annotations

from repro.cluster.storage import Cell, StorageEngine


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
    def test_apply_and_get(self):
        engine = StorageEngine()
        engine.apply(cell("a", 1.0))
        assert engine.peek("a").timestamp == 1.0
        assert engine.peek("missing") is None

    def test_last_write_wins(self):
        engine = StorageEngine()
        engine.apply(cell("a", 2.0, value="new"))
        engine.apply(cell("a", 1.0, value="old"))
        assert engine.peek("a").value == "new"

    def test_size_tracks_replacements(self):
        engine = StorageEngine()
        engine.apply(cell("a", 1.0, size=10))
        engine.apply(cell("a", 2.0, size=30))
        assert engine.memtable.size_bytes == 30
        assert len(engine.memtable) == 1


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

    def test_last_write_wins_in_the_memtable(self):
        engine = StorageEngine()
        engine.apply(cell("a", 1.0, value="old"))
        engine.apply(cell("b", 1.0))
        engine.apply(cell("a", 2.0, value="new"))
        assert engine.read("a").value == "new"
        assert engine.stats.memtable_flushes == 0

    def test_older_write_does_not_clobber_newer(self):
        engine = StorageEngine()
        engine.apply(cell("a", 5.0, value="new"))
        engine.apply(cell("a", 1.0, value="late-old"))
        assert engine.read("a").value == "new"

    def test_peek_does_not_touch_read_counters(self):
        engine = StorageEngine()
        engine.apply(cell("a", 1.0))
        engine.peek("a")
        assert engine.stats.reads == 0

    def test_key_count_and_total_bytes(self):
        engine = StorageEngine()
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

    def test_every_key_stays_in_the_one_memtable(self):
        # Nothing flushes: well past the 4,096 keys at which an sstable flush
        # once began, every key is still read from the memtable.
        engine = StorageEngine()
        for i in range(5000):
            engine.apply(cell(f"k{i}", float(i), size=4))
        assert len(engine.memtable) == engine.key_count() == 5000
        assert engine.memtable.size_bytes == engine.total_bytes() == 20_000
        assert engine.read("k0").timestamp == 0.0
        assert engine.stats.memtable_flushes == 0 and engine.stats.read_misses == 0

    def test_bytes_written_counts_every_write_even_a_losing_one(self):
        engine = StorageEngine()
        engine.apply(cell("a", 2.0, size=10))
        engine.apply(cell("a", 1.0, size=25))  # loses to the newer cell
        assert engine.stats.writes == 2
        assert engine.stats.bytes_written == 35
        assert engine.total_bytes() == 10

    def test_keys_lists_distinct_keys_without_counting_reads(self):
        engine = StorageEngine()
        for key, ts in (("a", 1.0), ("b", 1.0), ("a", 2.0)):
            engine.apply(cell(key, ts))
        assert engine.keys() == {"a", "b"}
        assert engine.stats.reads == 0 and engine.stats.read_misses == 0
