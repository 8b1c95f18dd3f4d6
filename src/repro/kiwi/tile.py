"""Delete tiles: the new layer KiWi adds to the LSM storage layout.

§4.2.1: a file consists of delete tiles; tiles contain non-overlapping
sort-key (``S``) ranges and follow ``S`` order within the file; but *pages
within a tile are sorted on the delete key* ``D``, while entries within
each page are sorted on ``S``. This weaving is what lets a secondary range
delete drop whole pages (their ``D`` spans are contiguous) while point
lookups stay fast once a page is in memory (binary search on ``S``).

Construction takes a contiguous ``S``-sorted slice of entries (the tile's
``S`` range), redistributes it into pages by ``D`` rank, then re-sorts each
page on ``S`` — producing exactly the invariants above. Because the input
is already ``S``-sorted, one *stable* sort on ``D`` orders it by
``(D, S)``: no per-entry tuple token is needed for the tie-break.

Entries without a delete key (point tombstones) sort before all real
delete keys, so tombstones cluster in a tile's first page(s); those pages
carry ``None`` delete-fence bounds and are never full-dropped.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Iterator

from repro.core.errors import KeyWeavingError
from repro.core.stats import Statistics
from repro.filters.bloom import BloomFilter
from repro.filters.fence import DeleteFencePointers
from repro.lsm.iterator import merge_sorted_streams
from repro.storage.disk import SimulatedDisk
from repro.storage.entry import Entry
from repro.storage.page import Page

_BY_KEY = attrgetter("key")
_BY_DELETE_KEY = attrgetter("delete_key")

_Bounds = tuple[Any, Any] | None


def _page_bounds(page: Page) -> _Bounds:
    """(min D, max D) of a page, or ``None`` if any entry lacks a delete key."""
    if any(e.delete_key is None for e in page):
        return None
    return (page.min_delete_key(), page.max_delete_key())


class DeleteTile:
    """``h`` pages woven on the delete key, searchable on the sort key.

    Parameters
    ----------
    entries:
        The tile's ``S``-sorted slice (≤ ``h · page_entries`` entries).
    page_entries:
        ``B``, entries per page.
    pages_per_tile:
        ``h``, the delete-tile granularity knob.
    bits_per_key:
        Bloom-filter budget; one filter per page (§4.2.3).
    stats:
        Shared counters (Bloom probe/hash accounting).
    """

    def __init__(
        self,
        entries: list[Entry],
        page_entries: int,
        pages_per_tile: int,
        bits_per_key: float,
        stats: Statistics,
    ):
        if not entries:
            raise KeyWeavingError("a delete tile needs at least one entry")
        if len(entries) > page_entries * pages_per_tile:
            raise KeyWeavingError(
                f"{len(entries)} entries exceed tile capacity "
                f"{page_entries * pages_per_tile} (h={pages_per_tile}, B={page_entries})"
            )
        self._stats = stats
        # S bounds are fixed at construction: later page drops may remove
        # the extreme keys, but keeping the original bounds only makes
        # fence routing conservative (a lookup may probe a tile that no
        # longer holds the key), never incorrect.
        self._min_key = entries[0].key
        self._max_key = entries[-1].key
        with_delete_key = [e for e in entries if e.delete_key is not None]
        with_delete_key.sort(key=_BY_DELETE_KEY)
        by_delete_key = [e for e in entries if e.delete_key is None]
        by_delete_key += with_delete_key
        self._pages: list[Page] = []
        self._blooms: list[BloomFilter] = []
        bounds: list[_Bounds] = []
        for start in range(0, len(by_delete_key), page_entries):
            chunk = by_delete_key[start : start + page_entries]
            # ``chunk`` is in D order here, so its D-bounds are its ends.
            if chunk[0].delete_key is None:
                bounds.append(None)
            else:
                bounds.append((chunk[0].delete_key, chunk[-1].delete_key))
            chunk.sort(key=_BY_KEY)
            page = Page(page_entries, chunk).seal()
            self._pages.append(page)
            self._blooms.append(
                BloomFilter.from_keys(page.keys, bits_per_key, stats=stats)
            )
        self._bits_per_key = bits_per_key
        self._set_delete_bounds(bounds)
        # The S-ordered compaction stream, tagged with the page list it
        # reflects: a copy, so the caller may reuse its list.
        self._sorted: tuple[list[Page], list[Entry]] | None = (
            self._pages, list(entries)
        )

    @classmethod
    def from_pages(
        cls,
        page_entry_lists: list[list[Entry]],
        page_entries: int,
        bits_per_key: float,
        stats: Statistics,
        min_key: Any,
        max_key: Any,
    ) -> "DeleteTile":
        """Rebuild a tile from its exact physical pages (crash recovery).

        The normal constructor *weaves* an ``S``-sorted slice into pages;
        after partial page drops the surviving pages are ragged and
        reweaving would change the physical layout. This path installs the
        recorded pages verbatim (each already ``S``-sorted internally and
        ``D``-ordered across pages), rebuilds the per-page Bloom filters
        and delete fences, and restores the construction-time ``S`` bounds
        (which page drops never narrow).
        """
        if not page_entry_lists:
            raise KeyWeavingError("a delete tile needs at least one page")
        tile = cls.__new__(cls)
        tile._stats = stats
        tile._min_key = min_key
        tile._max_key = max_key
        tile._sorted = None
        tile._pages = [
            Page(page_entries, chunk).seal() for chunk in page_entry_lists
        ]
        tile._blooms = [
            BloomFilter.from_keys(page.keys, bits_per_key, stats=stats)
            for page in tile._pages
        ]
        tile._bits_per_key = bits_per_key
        tile._set_delete_bounds([_page_bounds(p) for p in tile._pages])
        return tile

    # ------------------------------------------------------------------
    # Invariants & metadata
    # ------------------------------------------------------------------

    def _set_delete_bounds(self, bounds: list[_Bounds]) -> None:
        """Install per-page D-bounds as delete fences, checking the weave."""
        self._check_weave_invariant(bounds)
        self._delete_fences = DeleteFencePointers(bounds)

    @staticmethod
    def _check_weave_invariant(page_bounds: list[_Bounds]) -> None:
        """Pages must be non-decreasing in delete-key order."""
        previous_max: Any = None
        for bounds in page_bounds:
            if bounds is None:
                continue
            min_d, max_d = bounds
            if previous_max is not None and min_d < previous_max:
                raise KeyWeavingError(
                    f"pages out of delete-key order: {min_d!r} after {previous_max!r}"
                )
            previous_max = max_d

    @property
    def min_key(self) -> Any:
        return self._min_key

    @property
    def max_key(self) -> Any:
        return self._max_key

    @property
    def pages(self) -> tuple[Page, ...]:
        return tuple(self._pages)

    @property
    def delete_fences(self) -> DeleteFencePointers:
        return self._delete_fences

    @property
    def num_pages(self) -> int:
        return len(self._pages)

    @property
    def num_entries(self) -> int:
        return sum(map(len, self._pages))

    @property
    def size_bytes(self) -> int:
        return sum(p.size_bytes for p in self._pages)

    @property
    def is_empty(self) -> bool:
        return not self._pages

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def might_contain(self, key: Any) -> bool:
        """Any page BF answering "maybe" (bounds-checked first); no I/O."""
        if not (self._min_key <= key <= self._max_key):
            return False
        return any(bloom.might_contain(key) for bloom in self._blooms)

    def get(self, key: Any, disk: SimulatedDisk, charge_io: bool = True) -> Entry | None:
        """Point lookup: probe each page's BF, read positives in order.

        §4.2.5: "Once a delete tile is located, the BF for each delete
        tile page is probed. If a probe returns positive, the page is read
        to memory and binary searched ... If not [found], the I/O was due
        to a false positive, and the next page of the tile is fetched."
        """
        if not (self._min_key <= key <= self._max_key):
            return None
        for page, bloom in zip(self._pages, self._blooms):
            if not bloom.might_contain(key):
                continue
            if charge_io and not disk.read_cached(page.uid):
                self._stats.lookup_pages_read += 1
            entry = page.find(key)
            if entry is not None:
                return entry
            self._stats.bloom_false_positives += 1
        return None

    def scan(
        self, lo: Any, hi: Any, disk: SimulatedDisk, charge_io: bool = True
    ) -> list[Entry]:
        """Sort-key range scan: every page may hold qualifying keys.

        Because pages are woven on ``D``, an ``S``-range scan must read all
        live pages of an overlapping tile — the h/2-per-terminal-tile
        overhead of §4.2.5.
        """
        result: list[Entry] = []
        for page in self._pages:
            if page.is_empty:
                continue
            if charge_io and not disk.read_cached(page.uid):
                self._stats.lookup_pages_read += 1
            result.extend(page.range(lo, hi))
        return result

    def secondary_scan(
        self, d_lo: Any, d_hi: Any, disk: SimulatedDisk, charge_io: bool = True
    ) -> list[Entry]:
        """Delete-key range scan using the delete fences (§4.2.5).

        Reads only pages whose ``D`` span intersects ``[d_lo, d_hi)`` —
        the "much lower I/O cost" secondary range lookup.
        """
        result: list[Entry] = []
        for index in self._delete_fences.pages_overlapping(d_lo, d_hi):
            page = self._pages[index]
            if charge_io and not disk.read_cached(page.uid):
                self._stats.lookup_pages_read += 1
            result.extend(page.entries_with_delete_key_in(d_lo, d_hi))
        return result

    def entries_sorted_by_key(self) -> Iterator[Entry]:
        """The tile's entries as one ``S``-sorted stream.

        Kept from construction. A page drop installs a new page list, so
        after one (or :meth:`from_pages`) the stream is rebuilt once by
        merging the pages; a reader racing the drop gets either snapshot.
        """
        pages = self._pages
        cached = self._sorted
        if cached is None or cached[0] is not pages:
            cached = (pages, merge_sorted_streams(pages))
            self._sorted = cached
        return iter(cached[1])

    # ------------------------------------------------------------------
    # Secondary range delete support (mutation!)
    # ------------------------------------------------------------------

    def classify_pages(self, d_lo: Any, d_hi: Any) -> tuple[list[int], list[int]]:
        """(fully covered, partially covered) page indices for ``[d_lo, d_hi)``."""
        return self._delete_fences.classify(d_lo, d_hi)

    def apply_secondary_delete(
        self,
        d_lo: Any,
        d_hi: Any,
        disk: SimulatedDisk,
        stats: Statistics,
        dropped_out: list[Entry] | None = None,
    ) -> tuple[int, int, int]:
        """Drop/rewrite pages for a secondary range delete.

        Returns ``(entries_dropped, full_drops, partial_drops)``. Full
        drops cost no I/O (the page is released to the file system);
        partial drops read the boundary page, filter it "with a tight
        for-loop", and write the survivors back (§4.2.2).

        ``dropped_out``, when given, collects the dropped entries — the
        engine uses them to detect keys whose *newest* version was purged
        while an older version survives elsewhere in the tree (such keys
        must read as deleted, not resurrect). Collecting them is free
        in-memory bookkeeping, not page I/O.
        """
        full, partial = self.classify_pages(d_lo, d_hi)
        dropped_entries = 0

        surviving: list[Page] = []
        surviving_blooms: list[BloomFilter] = []
        surviving_bounds: list[_Bounds] = []
        full_set = set(full)
        partial_set = set(partial)
        full_drops = 0
        partial_drops = 0
        for index, (page, bloom, bounds) in enumerate(
            zip(self._pages, self._blooms, self._delete_fences.bounds)
        ):
            if index in full_set:
                dropped_entries += len(page)
                full_drops += 1
                stats.pages_dropped_full += 1
                if dropped_out is not None:
                    dropped_out.extend(page)
                continue
            if index in partial_set:
                disk.charge_read(1)
                stats.srd_pages_read += 1
                keep = [
                    e
                    for e in page
                    if e.delete_key is None or not (d_lo <= e.delete_key < d_hi)
                ]
                removed = len(page) - len(keep)
                if dropped_out is not None and removed:
                    kept_ids = {id(e) for e in keep}
                    dropped_out.extend(
                        e for e in page if id(e) not in kept_ids
                    )
                if removed == 0:
                    # The fence span intersected but no entry actually
                    # qualified (e.g. a gap, or a None-bounds page): the
                    # read was wasted but nothing changes.
                    surviving.append(page)
                    surviving_blooms.append(bloom)
                    surviving_bounds.append(bounds)
                    continue
                dropped_entries += removed
                partial_drops += 1
                stats.pages_dropped_partial += 1
                if keep:
                    new_page = Page(page.capacity, keep).seal()
                    disk.charge_write(1)
                    stats.srd_pages_written += 1
                    surviving.append(new_page)
                    surviving_blooms.append(
                        BloomFilter.from_keys(
                            new_page.keys, self._bits_per_key, stats=self._stats
                        )
                    )
                    surviving_bounds.append(_page_bounds(new_page))
                # An emptied boundary page is released like a full drop,
                # but it already cost the read.
                continue
            surviving.append(page)
            surviving_blooms.append(bloom)
            surviving_bounds.append(bounds)

        if dropped_entries:
            self._pages = surviving
            self._blooms = surviving_blooms
            self._set_delete_bounds(surviving_bounds)
        return dropped_entries, full_drops, partial_drops

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DeleteTile(h={len(self._pages)} pages, n={self.num_entries}, "
            f"S=[{self._min_key!r}..{self._max_key!r}])"
        )
