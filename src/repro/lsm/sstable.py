"""The classic sorted-string-table file layout (the state of the art).

Pages are sorted on the sort key end to end; one Bloom filter guards the
whole file; fence pointers store the smallest sort key per page (§2
"Optimizing Lookups"). This is the layout every baseline in the paper's
evaluation uses, and the layout KiWi degenerates to at ``h = 1``.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Iterator

from repro.core.config import EngineConfig
from repro.core.stats import Statistics
from repro.filters.bloom import BloomFilter
from repro.filters.fence import FencePointers
from repro.lsm.range_tombstone import fragment
from repro.lsm.runfile import FileMeta, LookupResult, RunFile
from repro.storage.disk import SimulatedDisk
from repro.storage.entry import Entry, RangeTombstone
from repro.storage.page import Page


class SSTable(RunFile):
    """An immutable classic-layout run file.

    Build with :func:`build_sstable`; direct construction expects
    already-prepared pages (sorted, non-overlapping, sealed).
    """

    def __init__(
        self,
        pages: list[Page],
        range_tombstones: list[RangeTombstone],
        meta: FileMeta,
        bloom: BloomFilter,
        fences: FencePointers,
        disk: SimulatedDisk,
        stats: Statistics,
        disk_file_id: int,
    ):
        if not pages and not range_tombstones:
            raise ValueError("an SSTable must contain entries or range tombstones")
        self._pages = pages
        # Normalize to disjoint sorted fragments (idempotent when the
        # builder already fragmented) so the read path can bisect.
        self.range_tombstones = tuple(fragment(range_tombstones))
        self.meta = meta
        self._bloom = bloom
        self._fences = fences
        self._disk = disk
        self._stats = stats
        self.disk_file_id = disk_file_id
        entry_min = pages[0].min_key if pages else None
        entry_max = pages[-1].max_key if pages else None
        rt_min = min((rt.start for rt in range_tombstones), default=None)
        rt_max = max((rt.end for rt in range_tombstones), default=None)
        # File bounds include range-tombstone bounds so within-level
        # non-overlap covers them too (RocksDB does the same).
        candidates_min = [k for k in (entry_min, rt_min) if k is not None]
        candidates_max = [k for k in (entry_max, rt_max) if k is not None]
        self._min_key = min(candidates_min)
        self._max_key = max(candidates_max)

    # ------------------------------------------------------------------
    # RunFile interface
    # ------------------------------------------------------------------

    @property
    def min_key(self) -> Any:
        return self._min_key

    @property
    def max_key(self) -> Any:
        return self._max_key

    @property
    def num_pages(self) -> int:
        return len(self._pages)

    @property
    def pages(self) -> tuple[Page, ...]:
        return tuple(self._pages)

    @property
    def size_bytes(self) -> int:
        return sum(p.size_bytes for p in self._pages) + sum(
            rt.size for rt in self.range_tombstones
        )

    @property
    def bloom(self) -> BloomFilter:
        return self._bloom

    def might_contain(self, key: Any) -> bool:
        """Bounds check plus the per-file Bloom filter; costs no I/O."""
        if not (self._min_key <= key <= self._max_key):
            return False
        return self._bloom.might_contain(key)

    def get(self, key: Any, charge_io: bool = True) -> LookupResult:
        """Point lookup: RT block → file BF → fences → at most one page read.

        The range-tombstone block is consulted *before* the Bloom filter:
        when the covering fragment outranks the file's ``max_seqnum``,
        every version the file could hold is already deleted and the
        probe (hash computations, false-positive risk) is skipped.
        """
        rt_seq = self.covering_rt_seqnum(key)
        if self.shadows_whole_file(rt_seq):
            self._stats.range_tombstone_skips += 1
            return LookupResult(entry=None, covering_rt_seqnum=rt_seq)
        if not (self._min_key <= key <= self._max_key):
            return LookupResult(entry=None, covering_rt_seqnum=rt_seq)
        if not self._bloom.might_contain(key):
            return LookupResult(entry=None, covering_rt_seqnum=rt_seq)
        page_index = self._fences.locate(key)
        if page_index is None or page_index >= len(self._pages):
            # BF said maybe but no page can hold the key: a false positive
            # answered from in-memory fences, costing no I/O.
            self._stats.bloom_false_positives += 1
            return LookupResult(entry=None, covering_rt_seqnum=rt_seq)
        page = self._pages[page_index]
        if charge_io and not self._disk.read_cached(page.uid):
            self._stats.lookup_pages_read += 1
        entry = page.find(key)
        if entry is None:
            self._stats.bloom_false_positives += 1
        return LookupResult(entry=entry, covering_rt_seqnum=rt_seq)

    def scan(self, lo: Any, hi: Any, charge_io: bool = True) -> list[Entry]:
        """Read every page overlapping ``[lo, hi]`` and collect entries."""
        result: list[Entry] = []
        for index in self._fences.locate_range(lo, hi):
            page = self._pages[index]
            if page.is_empty or page.max_key < lo or page.min_key > hi:
                continue
            if charge_io and not self._disk.read_cached(page.uid):
                self._stats.lookup_pages_read += 1
            result.extend(page.range(lo, hi))
        return result

    def entries(self) -> Iterator[Entry]:
        return chain.from_iterable(self._pages)

    def __len__(self) -> int:
        return self.meta.num_entries


def build_sstable(
    entries: list[Entry],
    range_tombstones: list[RangeTombstone],
    config: EngineConfig,
    disk: SimulatedDisk,
    stats: Statistics,
    now: float,
    level: int,
) -> SSTable:
    """Assemble one classic-layout file from a sorted entry slice.

    ``entries`` must be sorted on the sort key and fit ``config.file_pages``
    pages. Construction registers the extent with the simulated disk but
    does not charge write I/O — the caller (flush or compaction executor)
    charges writes so each path attributes costs to the right counter.
    """
    if len(entries) > config.file_entries:
        raise ValueError(
            f"{len(entries)} entries exceed file capacity {config.file_entries}"
        )
    pages: list[Page] = []
    for start in range(0, len(entries), config.page_entries):
        chunk = entries[start : start + config.page_entries]
        pages.append(Page(config.page_entries, chunk).seal())

    tombstone_times = [e.write_time for e in entries if e.is_tombstone]
    tombstone_times += [rt.write_time for rt in range_tombstones]
    seqnums = [e.seqnum for e in entries] + [rt.seqnum for rt in range_tombstones]
    meta = FileMeta(
        created_at=now,
        level=level,
        num_entries=len(entries),
        num_point_tombstones=sum(1 for e in entries if e.is_tombstone),
        num_range_tombstones=len(range_tombstones),
        oldest_tombstone_time=min(tombstone_times) if tombstone_times else None,
        min_seqnum=min(seqnums) if seqnums else 0,
        max_seqnum=max(seqnums) if seqnums else 0,
    )
    bloom = BloomFilter.from_keys(
        (e.key for e in entries), config.bits_per_key, stats=stats
    )
    fences = FencePointers([p.min_key for p in pages])
    size_bytes = sum(e.size for e in entries) + sum(rt.size for rt in range_tombstones)
    disk_file_id = disk.allocate(len(pages), size_bytes)
    return SSTable(
        pages=pages,
        range_tombstones=list(range_tombstones),
        meta=meta,
        bloom=bloom,
        fences=fences,
        disk=disk,
        stats=stats,
        disk_file_id=disk_file_id,
    )
