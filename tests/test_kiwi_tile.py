"""Unit and property tests for KiWi delete tiles (§4.2.1 invariants)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import KeyWeavingError
from repro.core.stats import Statistics
from repro.kiwi.tile import DeleteTile
from repro.storage.disk import SimulatedDisk
from repro.storage.entry import Entry, EntryKind

from tests.conftest import make_entries


def make_tile(n=16, page_entries=4, h=4, delete_keys=None, stats=None):
    stats = stats or Statistics()
    keys = list(range(n))
    if delete_keys is None:
        # A fixed pseudo-random D assignment, deterministic for tests.
        delete_keys = [(k * 37 + 11) % 100 for k in keys]
    entries = make_entries(keys, delete_keys=delete_keys)
    tile = DeleteTile(
        entries, page_entries=page_entries, pages_per_tile=h,
        bits_per_key=10.0, stats=stats,
    )
    return tile, stats


class TestWeaveInvariants:
    def test_pages_sorted_on_delete_key(self):
        """§4.2.1: for p < q, page p has smaller D than page q."""
        tile, _ = make_tile()
        previous_max = None
        for page in tile.pages:
            assert page.min_delete_key() is not None
            if previous_max is not None:
                assert page.min_delete_key() >= previous_max
            previous_max = page.max_delete_key()

    def test_entries_within_page_sorted_on_sort_key(self):
        tile, _ = make_tile()
        for page in tile.pages:
            keys = [e.key for e in page]
            assert keys == sorted(keys)

    def test_tile_covers_slice_bounds(self):
        tile, _ = make_tile(n=16)
        assert tile.min_key == 0
        assert tile.max_key == 15

    def test_entries_without_delete_key_cluster_first(self):
        entries = make_entries([0, 1, 2, 3, 4, 5, 6, 7],
                               delete_keys=[50, None, 60, None, 70, 80, 90, 95])
        tile = DeleteTile(entries, 4, 2, 10.0, Statistics())
        first_page = tile.pages[0]
        none_count = sum(1 for e in first_page if e.delete_key is None)
        assert none_count == 2

    def test_capacity_enforced(self):
        entries = make_entries(range(20))
        with pytest.raises(KeyWeavingError):
            DeleteTile(entries, page_entries=4, pages_per_tile=4,
                       bits_per_key=10, stats=Statistics())

    def test_empty_tile_rejected(self):
        with pytest.raises(KeyWeavingError):
            DeleteTile([], 4, 4, 10, Statistics())

    def test_entries_sorted_by_key_round_trip(self):
        tile, _ = make_tile(n=16)
        assert [e.key for e in tile.entries_sorted_by_key()] == list(range(16))


    def test_tile_copies_the_callers_entry_list(self):
        entries = make_entries(range(8), delete_keys=[3, 1, 4, 1, 5, 9, 2, 6])
        tile = DeleteTile(
            entries, page_entries=4, pages_per_tile=2, bits_per_key=10.0,
            stats=Statistics(),
        )
        expected = list(entries)
        entries.clear()
        assert list(tile.entries_sorted_by_key()) == expected
        assert tile.num_entries == 8


class TestTileReads:
    def test_get_finds_every_key(self):
        tile, _ = make_tile(n=16)
        disk = SimulatedDisk(Statistics())
        for key in range(16):
            assert tile.get(key, disk).key == key

    def test_get_absent_within_bounds(self):
        tile, _ = make_tile(n=16)
        disk = SimulatedDisk(Statistics())
        # all integer keys 0..15 exist; probe beyond bounds
        assert tile.get(99, disk) is None

    def test_get_charges_io_per_positive_page(self):
        tile, stats = make_tile(n=16)
        disk = SimulatedDisk(stats)
        tile.get(5, disk)
        assert stats.pages_read >= 1

    def test_scan_reads_all_pages(self):
        """§4.2.5: an S-range scan must read every page of the tile."""
        tile, stats = make_tile(n=16, h=4)
        disk = SimulatedDisk(stats)
        hits = tile.scan(3, 9, disk)
        assert sorted(e.key for e in hits) == list(range(3, 10))
        assert stats.pages_read == 4

    def test_secondary_scan_reads_only_overlapping_pages(self):
        tile, stats = make_tile(n=16, h=4)
        disk = SimulatedDisk(stats)
        lo = tile.pages[0].min_delete_key()
        hi = tile.pages[0].max_delete_key() + 1
        hits = tile.secondary_scan(lo, hi, disk)
        assert all(lo <= e.delete_key < hi for e in hits)
        assert stats.pages_read < 4  # not every page

    def test_might_contain(self):
        tile, _ = make_tile(n=16)
        assert tile.might_contain(5)
        assert not tile.might_contain(10**9)


class TestSecondaryDelete:
    def test_full_drop_without_io(self):
        tile, stats = make_tile(n=16, h=4)
        disk = SimulatedDisk(stats)
        page = tile.pages[1]
        d_lo = page.min_delete_key()
        d_hi = page.max_delete_key() + 1
        full, partial = tile.classify_pages(d_lo, d_hi)
        assert 1 in full
        dropped, full_n, partial_n = tile.apply_secondary_delete(
            d_lo, d_hi, disk, stats
        )
        assert full_n >= 1
        assert dropped >= 4
        # full drops must not read the dropped page
        assert stats.pages_read == partial_n

    def test_partial_drop_reads_and_rewrites(self):
        tile, stats = make_tile(n=16, h=4)
        disk = SimulatedDisk(stats)
        page = tile.pages[1]
        d_lo = page.min_delete_key() + 1  # miss the page's min → partial
        d_hi = page.max_delete_key() + 1
        dropped, full_n, partial_n = tile.apply_secondary_delete(
            d_lo, d_hi, disk, stats
        )
        assert partial_n >= 1
        assert stats.srd_pages_read >= 1

    def test_delete_everything_empties_tile(self):
        tile, stats = make_tile(n=16, h=4)
        disk = SimulatedDisk(stats)
        dropped, _, _ = tile.apply_secondary_delete(-1, 10**9, disk, stats)
        assert dropped == 16
        assert tile.is_empty

    def test_survivors_preserve_weave_invariant(self):
        tile, stats = make_tile(n=16, h=4)
        disk = SimulatedDisk(stats)
        tile.apply_secondary_delete(20, 60, disk, stats)
        previous_max = None
        for page in tile.pages:
            bounds = (page.min_delete_key(), page.max_delete_key())
            if previous_max is not None and bounds[0] is not None:
                assert bounds[0] >= previous_max
            if bounds[1] is not None:
                previous_max = bounds[1]

    def test_no_matching_entries_changes_nothing(self):
        tile, stats = make_tile(n=16, h=4)
        disk = SimulatedDisk(stats)
        before = tile.num_entries
        dropped, full_n, partial_n = tile.apply_secondary_delete(
            5000, 6000, disk, stats
        )
        assert dropped == 0 and full_n == 0
        assert tile.num_entries == before


@given(
    keys_and_dkeys=st.lists(
        st.tuples(st.integers(0, 10**6), st.integers(0, 1000)),
        min_size=1, max_size=32, unique_by=lambda t: t[0],
    ),
    h=st.sampled_from([1, 2, 4, 8]),
    d_lo=st.integers(0, 1000),
    width=st.integers(1, 500),
)
@settings(max_examples=60, deadline=None)
def test_property_secondary_delete_exact(keys_and_dkeys, h, d_lo, width):
    """A secondary delete removes exactly the in-range entries."""
    keys = sorted(k for k, _ in keys_and_dkeys)
    dkey_of = dict(keys_and_dkeys)
    entries = make_entries(keys, delete_keys=[dkey_of[k] for k in keys])
    stats = Statistics()
    # size tile capacity to fit
    page_entries = 4
    while page_entries * h < len(entries):
        page_entries *= 2
    tile = DeleteTile(entries, page_entries, h, 10.0, stats)
    disk = SimulatedDisk(stats)
    d_hi = d_lo + width
    expected_survivors = {
        k for k, d in keys_and_dkeys if not (d_lo <= d < d_hi)
    }
    tile.apply_secondary_delete(d_lo, d_hi, disk, stats)
    survivors = {e.key for e in tile.entries_sorted_by_key()}
    assert survivors == expected_survivors
