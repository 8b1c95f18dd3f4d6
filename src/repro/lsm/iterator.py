"""K-way merge with LSM version-resolution and tombstone semantics.

Used by compactions (§2: "entries with a matching key are consolidated and
only the most recent valid entry is retained") and by range lookups (§2:
"a range lookup returns the most recent versions of the target keys by
sort-merging the qualifying key ranges across all runs").

The resolution rules (§3.1.1):

* among several versions of a key, the highest seqnum wins; older versions
  are *invalid* and dropped (compaction) or skipped (reads);
* a point tombstone is itself retained by intermediate-level compactions —
  "there might be more (older) entries with the same delete key in
  subsequent compactions" — and discarded only when the compaction output
  lands in the **last level**, which is the moment the logical delete
  becomes persistent;
* a range tombstone drops every covered older entry it meets; the
  tombstone itself survives to the output's range-tombstone block except
  at the last level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, groupby
from operator import attrgetter
from typing import Iterable, Iterator

from repro.storage.entry import Entry, EntryKind, RangeTombstone

_BY_KEY = attrgetter("key")
_BY_SEQNUM = attrgetter("seqnum")


@dataclass
class MergeOutcome:
    """What a compaction merge produced and what it eliminated.

    ``entries`` / ``range_tombstones`` form the output run;
    ``dropped_tombstones`` are point tombstones discarded at the last
    level, ``dropped_range_tombstones`` likewise;
    ``invalid_entries_dropped`` counts superseded versions and
    range-covered entries purged.
    """

    entries: list[Entry] = field(default_factory=list)
    range_tombstones: list[RangeTombstone] = field(default_factory=list)
    dropped_tombstones: list[Entry] = field(default_factory=list)
    dropped_range_tombstones: list[RangeTombstone] = field(default_factory=list)
    invalid_entries_dropped: int = 0


def merge_sorted_streams(streams: Iterable[Iterable[Entry]]) -> list[Entry]:
    """Merge S-sorted streams into one list ordered by sort token.

    For equal keys the most recent version (largest seqnum) comes first,
    which the resolution passes below rely on; entries equal on both key
    and seqnum keep their stream order. That is exactly the order of
    ``heapq.merge(*streams, key=Entry.sort_token)``, built from two
    stable C-level sorts instead of a per-entry Python key: seqnum
    descending first, then key.
    """
    merged = list(chain.from_iterable(streams))
    merged.sort(key=_BY_SEQNUM, reverse=True)
    merged.sort(key=_BY_KEY)
    return merged


def _newest_versions(merged: Iterable[Entry]) -> list[Entry]:
    """The first (newest) entry of each equal-key group of a merged list."""
    return [next(versions) for _, versions in groupby(merged, key=_BY_KEY)]


def resolve_versions(
    merged: Iterable[Entry],
    range_tombstones: list[RangeTombstone],
) -> Iterator[Entry]:
    """Keep the newest version per key, then apply range-tombstone cover.

    Yields the survivor for each distinct key (which may be a point
    tombstone). Entries covered by a newer range tombstone are dropped
    even if they are the newest point version of their key.
    """
    for entry in _newest_versions(merged):
        if range_tombstones and any(
            rt.covers(entry.key, entry.seqnum) for rt in range_tombstones
        ):
            continue
        yield entry


def merge_for_compaction(
    streams: list[Iterator[Entry]],
    range_tombstones: list[RangeTombstone],
    into_last_level: bool,
    extra_cover_tombstones: list[RangeTombstone] | None = None,
) -> MergeOutcome:
    """Full compaction merge.

    Parameters
    ----------
    streams:
        S-sorted entry streams of the participating files.
    range_tombstones:
        Range tombstones carried by the participating files. They drop
        covered entries here and are retained in the output (unless the
        output is the last level).
    into_last_level:
        When true, surviving point tombstones and all range tombstones are
        discarded — this is delete *persistence* (§3.1.1).
    extra_cover_tombstones:
        Range tombstones from *upper* levels that are not participating in
        this compaction. They may cover entries being merged (a newer
        delete above), but they must NOT be consumed or re-emitted here —
        they still live in their own files.
    """
    outcome = MergeOutcome()
    covering = list(range_tombstones)
    if extra_cover_tombstones:
        covering += extra_cover_tombstones

    merged = merge_sorted_streams(streams)
    survivors = _newest_versions(merged)
    if covering:
        survivors = [
            entry
            for entry in survivors
            if not any(rt.covers(entry.key, entry.seqnum) for rt in covering)
        ]
    outcome.invalid_entries_dropped = len(merged) - len(survivors)
    if into_last_level:
        # Compacted with the last level: nothing older can exist, the
        # delete is now persistent and the tombstone itself goes away.
        for entry in survivors:
            if entry.kind is EntryKind.TOMBSTONE:
                outcome.dropped_tombstones.append(entry)
            else:
                outcome.entries.append(entry)
        outcome.dropped_range_tombstones.extend(range_tombstones)
    else:
        outcome.entries = survivors
        outcome.range_tombstones.extend(
            sorted(range_tombstones, key=lambda rt: (rt.start, rt.seqnum))
        )
    return outcome


def merge_for_read(
    streams: list[Iterator[Entry]],
    range_tombstones: list[RangeTombstone],
) -> list[Entry]:
    """Range-lookup merge: newest live PUT per key, tombstones suppressed.

    Range queries "have to read and discard" tombstones and invalid
    entries (§3.2.2) — the discarding happens here, after the I/O of
    fetching them was already paid by the caller.
    """
    result: list[Entry] = []
    for entry in resolve_versions(merge_sorted_streams(streams), range_tombstones):
        if entry.is_tombstone:
            continue
        result.append(entry)
    return result
