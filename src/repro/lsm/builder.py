"""Run builder: split a sorted entry stream into files of the active layout.

Flushes and compactions both end by materializing a sorted run; this module
slices the run into files of at most ``config.file_pages`` pages and builds
either classic :class:`~repro.lsm.sstable.SSTable` files or
:class:`~repro.kiwi.layout.KiWiFile` files depending on the configured
delete-tile granularity (``h = 1`` → classic, ``h > 1`` → KiWi).

Range tombstones are **fragmented** before they are attached
(:mod:`repro.lsm.range_tombstone`): overlapping tombstones collapse into
disjoint, sort-ordered fragments, and a fragment straddling a file
boundary is clipped so each file carries exactly the pieces inside its
own key span — RocksDB's DeleteRange fragmentation at flush/compaction
time. Every file's range-tombstone block is therefore disjoint and
sorted, which is what lets the read path bisect it.
"""

from __future__ import annotations

from collections import deque
from operator import ge
from typing import Any

from repro.core.config import EngineConfig
from repro.core.stats import Statistics
from repro.kiwi.layout import build_kiwi_file
from repro.lsm.range_tombstone import clip, fragment
from repro.lsm.runfile import RunFile
from repro.lsm.sstable import build_sstable
from repro.storage.disk import SimulatedDisk
from repro.storage.entry import Entry, RangeTombstone


def build_run(
    entries: list[Entry],
    range_tombstones: list[RangeTombstone],
    config: EngineConfig,
    disk: SimulatedDisk,
    stats: Statistics,
    now: float,
    level: int,
) -> list[RunFile]:
    """Materialize a sorted run as a list of files (S-ordered, disjoint).

    ``entries`` must be sorted on the sort key with unique keys (version
    resolution happens upstream in the merge); the builder validates both
    defensively because broken order silently corrupts every later read,
    and a duplicate key would let a stale version shadow the newest.
    """
    keys = [e.key for e in entries]
    if any(map(ge, keys, keys[1:])):
        i = next(i for i in range(len(keys) - 1) if keys[i] >= keys[i + 1])
        raise ValueError(
            f"run not sorted on unique keys: {keys[i]!r} before {keys[i + 1]!r}"
        )

    if not entries and not range_tombstones:
        return []

    build_file = build_kiwi_file if config.kiwi_enabled else build_sstable

    # Slice entries into file-sized chunks first, then fragment the
    # tombstone set and clip the fragments at each chunk's first key, so
    # every file carries the disjoint sorted pieces inside its own span.
    chunks: list[list[Entry]] = []
    for start in range(0, len(entries), config.file_entries):
        chunks.append(entries[start : start + config.file_entries])
    if not chunks:
        chunks = [[]]

    fragments = fragment(range_tombstones)
    # Window i is [first_key(chunk i), first_key(chunk i+1)), unbounded at
    # both extremes; every chunk except a lone empty one has entries.
    boundaries = [chunk[0].key for chunk in chunks[1:]]
    per_chunk_rts: list[list[RangeTombstone]] = []
    for index in range(len(chunks)):
        lo = boundaries[index - 1] if index > 0 else None
        hi = boundaries[index] if index < len(boundaries) else None
        per_chunk_rts.append(clip(fragments, lo, hi))

    files: list[RunFile] = []
    for chunk, rts in zip(chunks, per_chunk_rts):
        if not chunk and not rts:
            continue
        files.append(
            build_file(
                chunk,
                rts,
                config=config,
                disk=disk,
                stats=stats,
                now=now,
                level=level,
            )
        )
    _validate_disjoint(files)
    return files


def _validate_disjoint(files: list[RunFile]) -> None:
    """Files of one run must cover disjoint, increasing sort-key ranges.

    Range-tombstone bounds may legitimately widen a file past its entry
    range and overlap a neighbour; entry ranges themselves must not.
    """
    previous_max: Any = None
    for run_file in files:
        if run_file.meta.num_entries == 0:
            continue
        entry_min = _entry_min(run_file)
        if previous_max is not None and entry_min is not None:
            if entry_min <= previous_max:
                raise ValueError(
                    f"run files overlap: {entry_min!r} <= {previous_max!r}"
                )
        entry_max = _entry_max(run_file)
        if entry_max is not None:
            previous_max = entry_max


def _entry_min(run_file: RunFile) -> Any:
    for entry in run_file.entries():
        return entry.key
    return None


def _entry_max(run_file: RunFile) -> Any:
    last = deque(run_file.entries(), maxlen=1)
    return last[0].key if last else None
