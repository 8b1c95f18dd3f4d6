"""Unit tests for KiWiFile: the woven run-file layout."""

import pytest

from repro.core.config import lethe_config
from repro.core.stats import Statistics
from repro.kiwi.layout import build_kiwi_file
from repro.storage.disk import SimulatedDisk
from repro.storage.entry import EntryKind, RangeTombstone

from tests.conftest import TINY, make_entries


def kiwi_config(h=4):
    return lethe_config(
        delete_persistence_threshold=1e9, delete_tile_pages=h, **TINY
    )


def build(entries, rts=(), h=4, now=0.0, level=1):
    stats = Statistics()
    disk = SimulatedDisk(stats)
    config = kiwi_config(h)
    kf = build_kiwi_file(entries, list(rts), config, disk, stats, now, level)
    return kf, disk, stats


class TestBuild:
    def test_tile_structure(self):
        entries = make_entries(range(32), delete_keys=[(k * 13) % 50 for k in range(32)])
        kf, _, _ = build(entries, h=4)
        # 32 entries / (4 pages × 4 entries) = 2 tiles
        assert len(kf.tiles) == 2
        assert kf.num_pages == 8
        assert kf.meta.num_entries == 32

    def test_tiles_partition_sort_key_space(self):
        entries = make_entries(range(32), delete_keys=[(k * 13) % 50 for k in range(32)])
        kf, _, _ = build(entries, h=4)
        assert kf.tiles[0].max_key < kf.tiles[1].min_key

    def test_entries_globally_sorted(self):
        entries = make_entries(range(32), delete_keys=[(k * 7) % 90 for k in range(32)])
        kf, _, _ = build(entries, h=4)
        assert [e.key for e in kf.entries()] == list(range(32))

    def test_capacity_enforced(self):
        config = kiwi_config(4)
        entries = make_entries(range(config.file_entries + 1))
        with pytest.raises(ValueError):
            build(entries, h=4)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build([], h=4)

    def test_range_tombstones_widen_bounds(self):
        entries = make_entries(range(10, 20), delete_keys=list(range(10)))
        rt = RangeTombstone(start=0, end=100, seqnum=77)
        kf, _, _ = build(entries, [rt], h=4)
        assert kf.min_key == 0
        assert kf.max_key == 100


class TestReads:
    def test_get_every_key(self):
        entries = make_entries(range(32), delete_keys=[(k * 13) % 50 for k in range(32)])
        kf, _, _ = build(entries, h=4)
        for key in range(32):
            assert kf.get(key).entry.key == key

    def test_get_absent(self):
        entries = make_entries(range(0, 64, 2),
                               delete_keys=[(k * 13) % 50 for k in range(32)])
        kf, _, _ = build(entries, h=4)
        assert kf.get(1).entry is None

    def test_scan_ordered_across_tiles(self):
        entries = make_entries(range(32), delete_keys=[(k * 13) % 50 for k in range(32)])
        kf, _, _ = build(entries, h=4)
        hits = kf.scan(10, 25)
        assert [e.key for e in hits] == list(range(10, 26))

    def test_secondary_scan_filters_by_delete_key(self):
        dkeys = [(k * 13) % 50 for k in range(32)]
        entries = make_entries(range(32), delete_keys=dkeys)
        kf, _, _ = build(entries, h=4)
        hits = kf.secondary_scan(10, 20)
        expected = {k for k, d in zip(range(32), dkeys) if 10 <= d < 20}
        assert {e.key for e in hits} == expected

    def test_covering_rt(self):
        entries = make_entries(range(8), delete_keys=list(range(8)))
        rt = RangeTombstone(start=0, end=4, seqnum=99)
        kf, _, _ = build(entries, [rt], h=4)
        assert kf.get(2).covering_rt_seqnum == 99
        assert kf.get(6).covering_rt_seqnum is None


class TestSecondaryDelete:
    def test_apply_updates_meta_and_disk(self):
        dkeys = [(k * 13) % 50 for k in range(32)]
        entries = make_entries(range(32), delete_keys=dkeys)
        kf, disk, stats = build(entries, h=4)
        pages_before = kf.num_pages
        expected = sum(1 for d in dkeys if 0 <= d < 25)
        dropped = kf.apply_secondary_delete(0, 25)
        assert dropped == expected
        assert kf.meta.num_entries == 32 - expected
        assert disk.live_pages <= pages_before
        # Page and byte totals follow the surviving pages.
        pages = [p for t in kf.tiles for p in t.pages]
        assert kf.num_pages == len(pages) < pages_before
        assert kf.size_bytes == sum(e.size for p in pages for e in p)

    def test_preview_does_not_mutate(self):
        dkeys = [(k * 13) % 50 for k in range(32)]
        entries = make_entries(range(32), delete_keys=dkeys)
        kf, _, _ = build(entries, h=4)
        before = kf.meta.num_entries
        full, partial = kf.preview_secondary_delete(0, 25)
        assert kf.meta.num_entries == before
        assert full + partial > 0

    def test_delete_all_empties_file(self):
        entries = make_entries(range(16), delete_keys=list(range(16)))
        kf, _, _ = build(entries, h=4)
        kf.apply_secondary_delete(0, 16)
        assert kf.is_empty
        assert kf.meta.num_entries == 0

    def test_tombstone_metadata_recomputed(self):
        puts = make_entries(range(8), delete_keys=list(range(8)))
        tombs = make_entries([100], seq_start=50, kind=EntryKind.TOMBSTONE,
                             write_time=5.0)
        kf, _, _ = build(puts + tombs, h=4)
        assert kf.meta.num_point_tombstones == 1
        kf.apply_secondary_delete(0, 4)
        # tombstone has no delete key: must survive and keep metadata
        assert kf.meta.num_point_tombstones == 1
        assert kf.meta.oldest_tombstone_time == 5.0

    def test_reads_correct_after_delete(self):
        dkeys = [(k * 13) % 50 for k in range(32)]
        entries = make_entries(range(32), delete_keys=dkeys)
        kf, _, _ = build(entries, h=4)
        kf.apply_secondary_delete(0, 25)
        for key, dkey in zip(range(32), dkeys):
            got = kf.get(key).entry
            if 0 <= dkey < 25:
                assert got is None
            else:
                assert got is not None and got.key == key

    def test_h1_degenerates_to_classic(self):
        """§4.2.3: h=1 is the classic layout — pages stay S-sorted."""
        dkeys = [(k * 31) % 97 for k in range(16)]
        entries = make_entries(range(16), delete_keys=dkeys)
        kf, _, _ = build(entries, h=1)
        flattened = [e.key for e in kf.entries()]
        assert flattened == list(range(16))
        for tile in kf.tiles:
            assert tile.num_pages == 1
