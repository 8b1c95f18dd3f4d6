"""Disk pages: the unit of I/O.

A page holds up to ``B`` entries. In both the classic layout and KiWi,
*entries within a page are sorted on the sort key* ``S`` (§4.2.1 "Page
layout": in-page order does not affect secondary range deletes but enables
fast in-memory binary search once a page is fetched). Pages additionally
track their delete-key (``D``) min/max so KiWi's delete fence pointers and
full-page-drop decisions can be made without reading the page.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from operator import attrgetter, gt
from typing import Any, Iterable, Iterator

from repro.core.errors import PageFullError
from repro.storage.entry import Entry

_page_uid_counter = itertools.count()
_SIZE = attrgetter("size")


class Page:
    """An immutable-once-sealed page of entries sorted on the sort key.

    Every page carries a process-unique ``uid`` — the block cache's key.
    Because pages are never mutated once sealed (partial page drops build
    replacement pages), a uid can never refer to stale contents.

    Parameters
    ----------
    capacity:
        Maximum number of entries (``B`` from Table 1).
    entries:
        Optional initial entries; must already be sorted on the sort key.
    """

    __slots__ = ("capacity", "uid", "_entries", "_keys", "_size_bytes", "_sealed")

    def __init__(self, capacity: int, entries: Iterable[Entry] = ()):
        self.uid = next(_page_uid_counter)
        if capacity < 1:
            raise ValueError(f"page capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: list[Entry] = list(entries)
        if len(self._entries) > capacity:
            raise PageFullError(
                f"{len(self._entries)} entries exceed page capacity {capacity}"
            )
        keys = [e.key for e in self._entries]
        if any(map(gt, keys, keys[1:])):
            raise ValueError("page entries must be sorted on the sort key")
        self._keys = keys
        self._size_bytes = sum(map(_SIZE, self._entries))
        self._sealed = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def append(self, entry: Entry) -> None:
        """Append an entry; it must keep the page sorted on the sort key."""
        if self._sealed:
            raise PageFullError("cannot append to a sealed page")
        if len(self._entries) >= self.capacity:
            raise PageFullError(f"page full at capacity {self.capacity}")
        if self._keys and entry.key < self._keys[-1]:
            raise ValueError(
                f"append would break sort order: {entry.key!r} < {self._keys[-1]!r}"
            )
        self._entries.append(entry)
        self._keys.append(entry.key)
        self._size_bytes += entry.size

    def seal(self) -> "Page":
        """Freeze the page (no further appends); returns self for chaining."""
        self._sealed = True
        return self

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Entry]:
        return iter(self._entries)

    @property
    def entries(self) -> tuple[Entry, ...]:
        """All entries in sort-key order."""
        return tuple(self._entries)

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self.capacity

    @property
    def is_empty(self) -> bool:
        return not self._entries

    @property
    def min_key(self) -> Any:
        """Smallest sort key; raises on empty page."""
        return self._keys[0]

    @property
    def max_key(self) -> Any:
        """Largest sort key; raises on empty page."""
        return self._keys[-1]

    @property
    def keys(self) -> list[Any]:
        """Sort keys in page order (read-only: the page's own list)."""
        return self._keys

    @property
    def size_bytes(self) -> int:
        """Sum of declared entry sizes (kept from construction/append)."""
        return self._size_bytes

    @property
    def tombstone_count(self) -> int:
        """Number of point tombstones on this page."""
        return sum(1 for e in self._entries if e.is_tombstone)

    def min_delete_key(self) -> Any:
        """Smallest secondary delete key on the page (``None`` if none)."""
        delete_keys = [e.delete_key for e in self._entries if e.delete_key is not None]
        return min(delete_keys) if delete_keys else None

    def max_delete_key(self) -> Any:
        """Largest secondary delete key on the page (``None`` if none)."""
        delete_keys = [e.delete_key for e in self._entries if e.delete_key is not None]
        return max(delete_keys) if delete_keys else None

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def find(self, key: Any) -> Entry | None:
        """Binary-search the page for ``key`` (§4.2.5 point-lookup path).

        Returns the most recent version present on this page, or ``None``.
        Within one run a key appears at most once, but defensive handling
        of duplicates keeps the method usable on merged scratch pages.
        """
        lo = bisect_left(self._keys, key)
        if lo >= len(self._keys) or self._keys[lo] != key:
            return None
        hi = bisect_right(self._keys, key)
        best = self._entries[lo]
        for entry in self._entries[lo + 1 : hi]:
            if entry.seqnum > best.seqnum:
                best = entry
        return best

    def range(self, lo: Any, hi: Any) -> list[Entry]:
        """Entries with sort key in the closed interval ``[lo, hi]``."""
        start = bisect_left(self._keys, lo)
        stop = bisect_right(self._keys, hi)
        return self._entries[start:stop]

    def entries_with_delete_key_in(self, d_lo: Any, d_hi: Any) -> list[Entry]:
        """Entries whose delete key falls in ``[d_lo, d_hi)``.

        Linear scan — used only on *boundary* pages of a secondary range
        delete (partial page drops, §4.2.2), where the paper likewise scans
        the page ("a tight for-loop").
        """
        return [
            e
            for e in self._entries
            if e.delete_key is not None and d_lo <= e.delete_key < d_hi
        ]

    def fully_inside_delete_range(self, d_lo: Any, d_hi: Any) -> bool:
        """True if *every* entry's delete key lies in ``[d_lo, d_hi)``.

        Such a page qualifies for a full page drop: it can be released to
        the file system without being read (§4.2.2).
        """
        if self.is_empty:
            return False
        for entry in self._entries:
            if entry.delete_key is None:
                return False
            if not (d_lo <= entry.delete_key < d_hi):
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_empty:
            return "Page(empty)"
        return f"Page({len(self)}/{self.capacity} S=[{self.min_key!r}..{self.max_key!r}])"
