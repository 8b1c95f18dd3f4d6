"""Unit tests for the run builder: file splitting and tombstone routing."""

import pytest

from repro.core.config import lethe_config, rocksdb_config
from repro.core.stats import Statistics
from repro.kiwi.layout import KiWiFile
from repro.lsm.builder import build_run
from repro.lsm.sstable import SSTable
from repro.storage.disk import SimulatedDisk
from repro.storage.entry import RangeTombstone

from tests.conftest import TINY, make_entries


def build(entries, rts=(), config=None):
    stats = Statistics()
    disk = SimulatedDisk(stats)
    config = config or rocksdb_config(**TINY)
    return build_run(entries, list(rts), config, disk, stats, now=0.0, level=1)


class TestSplitting:
    def test_empty_run(self):
        assert build([]) == []

    def test_single_file(self):
        files = build(make_entries(range(20)))
        assert len(files) == 1
        assert files[0].meta.num_entries == 20

    def test_splits_at_file_capacity(self):
        # TINY file capacity = 8 pages × 4 entries = 32
        files = build(make_entries(range(80)))
        assert len(files) == 3
        assert [f.meta.num_entries for f in files] == [32, 32, 16]

    def test_files_are_disjoint_and_ordered(self):
        files = build(make_entries(range(100)))
        for left, right in zip(files, files[1:]):
            last_left = max(e.key for e in left.entries())
            first_right = min(e.key for e in right.entries())
            assert last_left < first_right

    def test_unsorted_input_rejected(self):
        entries = make_entries([3, 1, 2])
        shuffled = [entries[2], entries[0], entries[1]]
        with pytest.raises(ValueError):
            build(shuffled)

    @pytest.mark.parametrize("h", [1, 4])
    def test_adjacent_duplicate_keys_rejected(self, h):
        """Unique keys are the builder's contract: a duplicate would leave
        two versions of one key in a run, with no seqnum order between them."""
        older, newer = make_entries([5, 5], delete_keys=[1, 2])
        run = make_entries([1, 2]) + [older, newer] + make_entries([9], seq_start=7)
        config = lethe_config(1e9, delete_tile_pages=h, **TINY)
        with pytest.raises(ValueError, match="5 before 5"):
            build(run, config=config)

    def test_layout_dispatch(self):
        classic = build(make_entries(range(8)))
        assert isinstance(classic[0], SSTable)
        kiwi_config = lethe_config(1e9, delete_tile_pages=4, **TINY)
        woven = build(
            make_entries(range(8), delete_keys=list(range(8))),
            config=kiwi_config,
        )
        assert isinstance(woven[0], KiWiFile)

    def test_forced_kiwi_at_h1(self):
        config = lethe_config(1e9, delete_tile_pages=1,
                              force_kiwi_layout=True, **TINY)
        files = build(
            make_entries(range(8), delete_keys=list(range(8))), config=config
        )
        assert isinstance(files[0], KiWiFile)


class TestRangeTombstoneRouting:
    def test_rt_lands_in_covering_file(self):
        entries = make_entries(range(80))
        rt = RangeTombstone(start=5, end=10, seqnum=999)
        files = build(entries, [rt])
        assert files[0].range_tombstones == (rt,)
        assert files[1].range_tombstones == ()

    def test_rt_beyond_all_entries_lands_in_last_file(self):
        entries = make_entries(range(80))
        rt = RangeTombstone(start=500, end=600, seqnum=999)
        files = build(entries, [rt])
        assert files[-1].range_tombstones == (rt,)

    def test_rt_only_run(self):
        rt = RangeTombstone(start=5, end=10, seqnum=1)
        files = build([], [rt])
        assert len(files) == 1
        assert files[0].meta.num_entries == 0
        assert files[0].range_tombstones == (rt,)

    def test_multiple_rts_sorted_into_files(self):
        entries = make_entries(range(80))
        rts = [
            RangeTombstone(start=70, end=75, seqnum=998),
            RangeTombstone(start=0, end=3, seqnum=999),
        ]
        files = build(entries, rts)
        assert files[0].range_tombstones[0].start == 0
        assert files[-1].range_tombstones[0].start == 70
