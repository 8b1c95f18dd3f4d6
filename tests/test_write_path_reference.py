"""The write path against its straightforward reference loops.

The run-build and merge layers are written for CPU speed (bulk Bloom
fill, pre-sorted tile weave, sort-based merge, fused record struct).
Each test here keeps the plain per-entry loop those layers replace and
checks that the fast version produces exactly the same bits, order,
pages and bytes.
"""

from __future__ import annotations

import enum
import heapq
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stats import Statistics
from repro.filters.bloom import BloomFilter
from repro.kiwi.tile import DeleteTile
from repro.lsm.iterator import (
    merge_for_compaction,
    merge_for_read,
    merge_sorted_streams,
)
from repro.storage.disk import SimulatedDisk
from repro.storage.entry import Entry, EntryKind, RangeTombstone
from repro.storage.page import Page
from repro.storage.serialization import (
    _FULL_HEADER,
    _FULL_PUT,
    decode_durable_entry,
    encode_durable_entry,
    pack_value,
)


def _token(entry: Entry) -> tuple:
    return entry.sort_token()


def _ids(entries) -> list[int]:
    return [id(e) for e in entries]


# ---------------------------------------------------------------------------
# Bloom: bulk from_keys vs per-key add()
# ---------------------------------------------------------------------------


def _reference_bloom(keys: list, bits_per_key: float) -> BloomFilter:
    bf = BloomFilter(max(len(keys), 1), bits_per_key)
    for key in keys:
        bf.add(key)
    return bf


class _Color(enum.IntEnum):
    RED = 3
    BLUE = 1 << 40


_SCALARS = (
    st.integers(min_value=-(1 << 70), max_value=1 << 70)
    | st.booleans()
    | st.binary(max_size=12)
    | st.text(max_size=8)
    | st.sampled_from(list(_Color))
)
_KEYS = _SCALARS | st.tuples(st.integers(), st.text(max_size=4))


@pytest.mark.parametrize("bits_per_key", [1.0, 7.3, 10.0])
@settings(max_examples=60, deadline=None)
@given(keys=st.lists(_KEYS, max_size=40))
def test_bulk_bloom_bits_equal_per_key_add(bits_per_key, keys):
    bulk = BloomFilter.from_keys(keys, bits_per_key)
    reference = _reference_bloom(keys, bits_per_key)
    assert (bulk.num_bits, bulk.num_hashes) == (reference.num_bits, reference.num_hashes)
    assert bulk._bits == reference._bits
    assert bulk.count == reference.count == len(keys)


def test_bulk_bloom_accepts_any_iterable_and_charges_nothing():
    stats = Statistics()
    from_generator = BloomFilter.from_keys((k for k in range(50)), 7.3, stats=stats)
    assert from_generator._bits == _reference_bloom(list(range(50)), 7.3)._bits
    assert stats.bloom_hash_computations == 0
    assert from_generator.stats is stats


# ---------------------------------------------------------------------------
# Merge: sort-based merge vs heapq.merge(key=sort_token)
# ---------------------------------------------------------------------------


@st.composite
def _sorted_streams(draw):
    """Several S-sorted streams; (key, seqnum) pairs may repeat across them."""
    n_streams = draw(st.integers(min_value=0, max_value=5))
    streams = []
    for _ in range(n_streams):
        pairs = draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=12),
                    st.integers(min_value=0, max_value=6),
                ),
                max_size=10,
            )
        )
        stream = []
        for key, seqnum in pairs:
            tombstone = draw(st.booleans())
            stream.append(
                Entry(
                    key,
                    seqnum,
                    EntryKind.TOMBSTONE if tombstone else EntryKind.PUT,
                    value=None if tombstone else f"v{key}.{seqnum}",
                )
            )
        stream.sort(key=_token)
        streams.append(stream)
    return streams


_RANGE_TOMBSTONES = st.lists(
    st.builds(
        lambda lo, width, seqnum: RangeTombstone(lo, lo + width, seqnum),
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=8),
    ),
    max_size=3,
)


def _reference_merge_for_compaction(streams, range_tombstones, into_last_level, extra):
    """The heap-merge compaction loop, one entry at a time."""
    covering = list(range_tombstones) + list(extra)
    kept, dropped, invalid = [], [], 0
    current_key: Any = object()
    for entry in heapq.merge(*streams, key=_token):
        if entry.key == current_key:
            invalid += 1
            continue
        current_key = entry.key
        if any(rt.covers(entry.key, entry.seqnum) for rt in covering):
            invalid += 1
            continue
        if entry.is_tombstone and into_last_level:
            dropped.append(entry)
            continue
        kept.append(entry)
    return kept, dropped, invalid


@settings(max_examples=150, deadline=None)
@given(streams=_sorted_streams())
def test_sort_merge_order_equals_heap_merge(streams):
    expected = list(heapq.merge(*streams, key=_token))
    assert _ids(merge_sorted_streams(iter(s) for s in streams)) == _ids(expected)


def test_sort_merge_breaks_exact_ties_by_stream_order():
    a = [Entry(1, 5, EntryKind.PUT, value="a"), Entry(2, 1, EntryKind.PUT, value="a")]
    b = [Entry(1, 5, EntryKind.PUT, value="b"), Entry(1, 4, EntryKind.PUT, value="b")]
    c = [Entry(1, 5, EntryKind.TOMBSTONE), Entry(2, 1, EntryKind.PUT, value="c")]
    merged = merge_sorted_streams([a, b, c])
    assert _ids(merged) == _ids([a[0], b[0], c[0], b[1], a[1], c[1]])
    assert _ids(merged) == _ids(heapq.merge(a, b, c, key=_token))


@settings(max_examples=150, deadline=None)
@given(
    streams=_sorted_streams(),
    rts=_RANGE_TOMBSTONES,
    extra=_RANGE_TOMBSTONES,
    into_last_level=st.booleans(),
)
def test_merge_for_compaction_equals_reference_loop(streams, rts, extra, into_last_level):
    kept, dropped, invalid = _reference_merge_for_compaction(
        streams, rts, into_last_level, extra
    )
    outcome = merge_for_compaction(
        [iter(s) for s in streams], rts, into_last_level, extra_cover_tombstones=extra
    )
    assert _ids(outcome.entries) == _ids(kept)
    assert _ids(outcome.dropped_tombstones) == _ids(dropped)
    assert outcome.invalid_entries_dropped == invalid


@settings(max_examples=100, deadline=None)
@given(streams=_sorted_streams(), rts=_RANGE_TOMBSTONES)
def test_merge_for_read_equals_reference_loop(streams, rts):
    kept, _, _ = _reference_merge_for_compaction(streams, rts, False, [])
    expected = [e for e in kept if not e.is_tombstone]
    assert _ids(merge_for_read([iter(s) for s in streams], rts)) == _ids(expected)


# ---------------------------------------------------------------------------
# Tile: pre-sorted weave and the kept S-ordered stream
# ---------------------------------------------------------------------------


def _reference_weave(entries: list[Entry], page_entries: int) -> list[list[Entry]]:
    """The tuple-token weave: no-D entries first, then by (D, S)."""

    def token(e: Entry) -> tuple:
        if e.delete_key is None:
            return (0, 0, e.key)
        return (1, e.delete_key, e.key)

    by_delete_key = sorted(entries, key=token)
    return [
        sorted(by_delete_key[start : start + page_entries], key=lambda e: e.key)
        for start in range(0, len(by_delete_key), page_entries)
    ]


def _reference_bounds(page: Page):
    if any(e.delete_key is None for e in page):
        return None
    return (page.min_delete_key(), page.max_delete_key())


def _heap_stream(tile: DeleteTile) -> list[Entry]:
    return list(heapq.merge(*tile.pages, key=_token))


@st.composite
def _tile_input(draw):
    page_entries = draw(st.integers(min_value=1, max_value=5))
    h = draw(st.integers(min_value=1, max_value=5))
    keys = sorted(
        draw(st.sets(st.integers(min_value=0, max_value=200), min_size=1,
                     max_size=page_entries * h))
    )
    entries = []
    for seq, key in enumerate(keys):
        if draw(st.integers(min_value=0, max_value=5)) == 0:
            entries.append(Entry(key, seq, EntryKind.TOMBSTONE, size=11))
        else:
            # A narrow D domain makes ties on D common.
            delete_key = draw(st.none() | st.integers(min_value=0, max_value=9))
            entries.append(
                Entry(key, seq, EntryKind.PUT, value=key, delete_key=delete_key, size=100)
            )
    return entries, page_entries, h


def _tile(entries, page_entries, h, stats=None):
    return DeleteTile(
        entries, page_entries=page_entries, pages_per_tile=h,
        bits_per_key=10.0, stats=stats or Statistics(),
    )


@settings(max_examples=150, deadline=None)
@given(case=_tile_input())
def test_weave_pages_and_fences_equal_reference(case):
    entries, page_entries, h = case
    tile = _tile(entries, page_entries, h)
    reference = _reference_weave(entries, page_entries)
    assert [_ids(p) for p in tile.pages] == [_ids(p) for p in reference]
    assert list(tile.delete_fences.bounds) == [_reference_bounds(p) for p in tile.pages]
    for page, bloom in zip(tile.pages, tile._blooms):
        assert bloom._bits == _reference_bloom([e.key for e in page], 10.0)._bits
    assert _ids(tile.entries_sorted_by_key()) == _ids(entries)
    assert _ids(tile.entries_sorted_by_key()) == _ids(_heap_stream(tile))


@settings(max_examples=150, deadline=None)
@given(
    case=_tile_input(),
    d_lo=st.integers(min_value=0, max_value=9),
    width=st.integers(min_value=1, max_value=10),
)
def test_stream_equals_heap_merge_after_page_drops(case, d_lo, width):
    entries, page_entries, h = case
    stats = Statistics()
    tile = _tile(entries, page_entries, h, stats)
    dropped, full, partial = tile.apply_secondary_delete(
        d_lo, d_lo + width, SimulatedDisk(stats), stats
    )
    assert _ids(tile.entries_sorted_by_key()) == _ids(_heap_stream(tile))
    survivors = [
        e for e in entries
        if e.delete_key is None or not (d_lo <= e.delete_key < d_lo + width)
    ]
    assert _ids(tile.entries_sorted_by_key()) == _ids(survivors)
    assert dropped == len(entries) - len(survivors)
    assert list(tile.delete_fences.bounds) == [_reference_bounds(p) for p in tile.pages]


def test_stream_after_full_and_partial_drops():
    entries = [
        Entry(k, k, EntryKind.PUT, value=k, delete_key=d, size=100)
        for k, d in zip(range(16), [5, 0, 9, 1, 14, 2, 8, 3, 12, 4, 7, 6, 15, 10, 13, 11])
    ]
    stats = Statistics()
    tile = _tile(entries, 4, 4, stats)
    # Pages hold D {0-3}, {4-7}, {8-11}, {12-15}: [0, 6) drops page 0
    # whole and cuts page 1.
    _, full, partial = tile.apply_secondary_delete(0, 6, SimulatedDisk(stats), stats)
    assert (full, partial) == (1, 1)
    assert _ids(tile.entries_sorted_by_key()) == _ids(_heap_stream(tile))
    assert [e.delete_key for e in tile.entries_sorted_by_key()] == [
        9, 14, 8, 12, 7, 6, 15, 10, 13, 11
    ]
    # A stream built before a second drop is not served after it.
    before = tile.entries_sorted_by_key()
    tile.apply_secondary_delete(6, 10, SimulatedDisk(stats), stats)
    assert [e.delete_key for e in before] == [9, 14, 8, 12, 7, 6, 15, 10, 13, 11]
    assert _ids(tile.entries_sorted_by_key()) == _ids(_heap_stream(tile))
    assert [e.delete_key for e in tile.entries_sorted_by_key()] == [
        14, 12, 15, 10, 13, 11
    ]


@settings(max_examples=100, deadline=None)
@given(case=_tile_input())
def test_stream_equals_heap_merge_after_from_pages(case):
    entries, page_entries, h = case
    built = _tile(entries, page_entries, h)
    rebuilt = DeleteTile.from_pages(
        [list(p) for p in built.pages], page_entries, 10.0, Statistics(),
        built.min_key, built.max_key,
    )
    assert _ids(rebuilt.entries_sorted_by_key()) == _ids(_heap_stream(rebuilt))
    assert _ids(rebuilt.entries_sorted_by_key()) == _ids(entries)
    assert list(rebuilt.delete_fences.bounds) == list(built.delete_fences.bounds)


# ---------------------------------------------------------------------------
# Encoder: fused struct vs the two-struct encoding
# ---------------------------------------------------------------------------


def _reference_encode(entry: Entry) -> bytes:
    kind = 1 if entry.is_tombstone else 0
    header = _FULL_HEADER.pack(kind, entry.seqnum, entry.key, entry.write_time, entry.size)
    if entry.is_tombstone:
        return header
    if entry.delete_key is None:
        dkey_tag, dkey = 0, 0
    else:
        dkey_tag, dkey = 1, entry.delete_key
    value_tag, payload = pack_value(entry.value)
    return header + _FULL_PUT.pack(dkey_tag, dkey, value_tag, len(payload)) + payload


class _Key(int):
    """An ``int`` subclass key."""


_INT64 = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)
_VALUES = (
    st.none()
    | st.binary(max_size=20)
    | st.builds(bytearray, st.binary(max_size=8))
    | st.integers()
    | st.text(max_size=8)
    | st.tuples(st.integers(), st.text(max_size=3))
)


@st.composite
def _durable_entries(draw):
    key = draw(_INT64)
    if draw(st.booleans()):
        key = _Key(key)
    seqnum = draw(st.integers(min_value=0, max_value=(1 << 63) - 1))
    size = draw(st.integers(min_value=1, max_value=(1 << 32) - 1))
    write_time = draw(st.floats(allow_nan=False, allow_infinity=False))
    if draw(st.booleans()):
        return Entry(key, seqnum, EntryKind.TOMBSTONE, size=size, write_time=write_time)
    delete_key = draw(st.none() | _INT64 | _INT64.map(_Key))
    return Entry(
        key, seqnum, EntryKind.PUT, value=draw(_VALUES), delete_key=delete_key,
        size=size, write_time=write_time,
    )


@settings(max_examples=300, deadline=None)
@given(entry=_durable_entries())
def test_fused_encoding_equals_two_struct_encoding(entry):
    blob = encode_durable_entry(entry)
    assert blob == _reference_encode(entry)
    decoded, end = decode_durable_entry(blob)
    assert end == len(blob)
    assert (decoded.key, decoded.seqnum, decoded.kind, decoded.delete_key) == (
        entry.key, entry.seqnum, entry.kind, entry.delete_key,
    )


@pytest.mark.parametrize(
    "entry",
    [
        Entry(1, 2, EntryKind.PUT, value=b"v", delete_key=3, size=9, write_time=0.5),
        Entry(_Key(7), 2, EntryKind.PUT, value=None, delete_key=None, size=9),
        Entry(4, 0, EntryKind.PUT, value={"a": [1, 2]}, delete_key=_Key(8), size=1),
        Entry(-5, 1, EntryKind.TOMBSTONE, size=11, write_time=3.0),
    ],
)
def test_fused_encoding_fixed_cases(entry):
    assert encode_durable_entry(entry) == _reference_encode(entry)


@pytest.mark.parametrize(
    "entry",
    [
        Entry(True, 1, EntryKind.PUT, value=b"v"),
        Entry("k", 1, EntryKind.PUT, value=b"v"),
        Entry(False, 1, EntryKind.TOMBSTONE),
        Entry("k", 1, EntryKind.TOMBSTONE),
        Entry(1, 1, EntryKind.PUT, value=b"v", delete_key=True),
        Entry(1, 1, EntryKind.PUT, value=b"v", delete_key="d"),
    ],
)
def test_non_int_keys_still_rejected(entry):
    with pytest.raises(TypeError):
        encode_durable_entry(entry)
