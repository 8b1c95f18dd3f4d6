"""Durable persistence backend: what survives a crash, and how.

Until this module existed the WAL, the manifest, and the byte-level codec
were pure accounting — no state ever reached disk. :class:`DurableStore`
gives one engine a real directory:

``CONFIG.json``
    The engine configuration, written once at creation so
    :meth:`~repro.core.engine.LSMEngine.open` can rebuild an identical
    engine without being told its knobs.
``wal/<segment>.log``
    One append-only file per live WAL segment, mirroring the in-memory
    :class:`~repro.lsm.wal.WriteAheadLog` segment for segment. Records
    carry the *full* operation payload (entry or range tombstone, durable
    codec of :mod:`repro.storage.serialization`), so the un-flushed tail
    of the engine can be replayed after a restart. Appends are *group
    committed*: records buffer in a per-segment appender (file handle
    kept open) and reach disk as framed batches at the points the
    configured :class:`~repro.lsm.wal.CommitPolicy` dictates — every
    record (``every_op``, the default), every ``n`` records
    (``group(n)``), on a simulated-time interval (``interval(ms)``), or
    only at forced drains (``unsafe_none``). Manifest commits always
    force a drain first, so the commit point never outruns its WAL.
    Segment files are deleted when the flush watermark passes them and
    rewritten by the FADE ``D_th`` routine (its own ``wal-rewrite``
    crash point) — §4.1.5's persistence guarantee therefore holds on
    disk, not just in memory.
``runs/<file_number>.<generation>.run``
    One blob per live run file, written with a temp-file + ``os.replace``
    dance so a blob is either wholly present or absent. KiWi secondary
    range deletes mutate files in place (page drops); the store detects
    the mutation at the next commit and appends a framed *shape delta*
    (surviving pages by base-entry ordinal, plus refreshed metadata) to
    the existing blob — the base section stays valid, decoding applies
    the last intact delta, and a mutation that is not a pure shrink
    falls back to a full rewrite under a bumped *generation*. Delta
    chains are bounded: :meth:`DurableStore.checkpoint` rewrites any
    blob whose chain exceeds :data:`DurableStore.MAX_DELTA_CHAIN`
    frames clean under a fresh generation, so repeated secondary
    deletes never accrete an unbounded tail.
``MANIFEST.log``
    The commit log. Every flush/compaction/secondary-delete appends one
    framed record carrying the complete tree layout (levels → runs →
    ``[file_number, generation, level_arrival_time]``), the WAL flush
    watermark, the next sequence number, the clock, and any secondary
    range deletes not yet covered by the watermark. **Appending this
    record is the commit point**: recovery reads the last intact record
    and ignores newer orphan blobs, so every multi-file transition
    (compaction consuming four files and producing two, a secondary
    delete touching every file) is atomic. Torn tails are detected by
    length + CRC framing and discarded. :meth:`checkpoint` rewrites the
    log as a single snapshot record, bounding recovery time.
``CLOCK.json``
    The simulated clock, refreshed on idle-time advances and checkpoints
    so recovered engines do not travel back in time.

Crash points
------------
Every physical write funnels through a :class:`FaultInjector` hook. The
default injector only counts; :class:`CrashPoint` raises
:class:`SimulatedCrash` once its budget of allowed writes is exhausted —
*before* the write happens, so crash point *k* means "the process died
between durable write *k* and durable write *k + 1*". A group-committed
WAL batch is **one** boundary (labelled ``wal-append[n]`` with the
batch's record count): durable state advances whole batches, so
recovery always lands on an exact operation prefix. ``tests/crash/``
enumerates every such boundary for generated operation sequences and
asserts recovery equals the dict model (before/after the in-flight
operation under ``every_op``; the acknowledged-prefix oracle under the
batched policies).

fsync
-----
When ``EngineConfig.fsync`` is on (the default), every data-file write
is fsynced and every rename/unlink is followed by a directory fsync, so
"committed" means on-media rather than in the OS page cache. The crash
suites disable it for speed — the simulated injector kills between
writes, never inside the kernel — and a dedicated unit test keeps the
fsync path itself exercised.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.core.config import (
    BloomFilterScope,
    EngineConfig,
    FileSelectionMode,
    MergePolicy,
)
from repro.core import locks
from repro.core.errors import PersistenceError
from repro.lsm.wal import CommitPolicy, WALRecord, WALSegment
from repro.obs import NULL_OBS
from repro.storage.entry import Entry, RangeTombstone
from repro.storage.serialization import (
    decode_durable_entry,
    decode_durable_range_tombstone,
    encode_durable_entry,
    encode_durable_range_tombstone,
)

_FRAME_HEADER = struct.Struct("<II")  # payload length, crc32
_RUN_MAGIC = b"LRUN1\n"
_WAL_MAGIC = b"LWAL1\n"

_REC_ENTRY = 0
_REC_RANGE_TOMBSTONE = 1

_ENUM_FIELDS = {
    "merge_policy": MergePolicy,
    "bloom_scope": BloomFilterScope,
    "file_selection": FileSelectionMode,
}

_META_FIELDS = (
    "file_number",
    "created_at",
    "level",
    "num_entries",
    "num_point_tombstones",
    "num_range_tombstones",
    "oldest_tombstone_time",
    "min_seqnum",
    "max_seqnum",
    "level_arrival_time",
)


class SimulatedCrash(RuntimeError):
    """The durable backend 'died' at an injected crash point.

    Deliberately *not* a :class:`~repro.core.errors.LetheError`: nothing
    in the engine may catch and survive it — a crash ends the process in
    the scenario being simulated.
    """


class FaultInjector:
    """Counts durable write boundaries; the base class never crashes.

    ``armed=False`` lets a harness construct stores and preload state
    without consuming (or triggering) crash points, then arm the injector
    for the operation stream under test. Counting is lock-guarded: one
    injector is shared across every member store of a durable
    :class:`~repro.shard.engine.ShardedEngine`, whose fan-outs may run
    on a thread pool — a racy counter would make the count-then-crash-
    at-k harness workflow replay a different boundary than it counted.
    """

    def __init__(self, armed: bool = True, record_labels: bool = True):
        self.writes = 0
        self.armed = armed
        # Labels of the boundaries permitted so far, in order: lets a
        # harness find the index of a specific boundary type (say, the
        # D_th rewrite) and aim a CrashPoint exactly there. Long-lived
        # counting injectors (benches) pass ``record_labels=False`` so
        # the trace does not grow one string per write forever.
        self.record_labels = record_labels
        self.labels: list[str] = []
        self._lock = locks.OrderedLock(
            "persist.fault-injector", locks.RANK_FAULT_INJECTOR
        )

    def before_write(self, label: str) -> None:
        """Called immediately before every physical write, with a label
        naming the boundary (``wal-append[n]`` with the batch's record
        count — ``wal-append-rt[n]`` when the batch carries a range
        tombstone — ``wal-rewrite``, ``run-blob``, ``run-blob-rt``,
        ``run-delta``, ``manifest``, ``wal-purge``, ``blob-prune``,
        ``clock``, ``config``, ``manifest-snapshot``, ``topology``,
        ``torn-truncate``, ``tmp-sweep``)."""
        if not self.armed:
            return
        with self._lock:
            self.writes += 1
            if self.record_labels:
                self.labels.append(label)


class CrashPoint(FaultInjector):
    """Crash after ``allow_writes`` durable writes have been permitted."""

    def __init__(self, allow_writes: int, armed: bool = True):
        super().__init__(armed=armed, record_labels=True)
        if allow_writes < 0:
            raise PersistenceError(
                f"allow_writes must be >= 0, got {allow_writes}"
            )
        self.allow_writes = allow_writes

    def before_write(self, label: str) -> None:
        if not self.armed:
            return
        with self._lock:
            if self.writes >= self.allow_writes:
                raise SimulatedCrash(
                    f"crash point hit before write #{self.writes + 1} ({label})"
                )
            self.writes += 1
            self.labels.append(label)


# ---------------------------------------------------------------------------
# Config round-trip
# ---------------------------------------------------------------------------


def config_to_dict(config: EngineConfig) -> dict:
    """JSON-safe dict of an :class:`EngineConfig` (enums by value)."""
    payload = {}
    for name in config.__dataclass_fields__:
        value = getattr(config, name)
        payload[name] = value.value if name in _ENUM_FIELDS else value
    return payload


def config_from_dict(payload: dict) -> EngineConfig:
    """Inverse of :func:`config_to_dict`."""
    kwargs = dict(payload)
    for name, enum_type in _ENUM_FIELDS.items():
        if name in kwargs:
            kwargs[name] = enum_type(kwargs[name])
    return EngineConfig(**kwargs)


# ---------------------------------------------------------------------------
# Recovered-state containers
# ---------------------------------------------------------------------------


@dataclass
class RecoveredSegment:
    """One WAL segment read back from disk."""

    segment_id: int
    opened_at: float
    records: list[WALRecord] = field(default_factory=list)


@dataclass
class RecoveredRun:
    """One run blob read back from disk.

    ``pages`` is a list of entry lists for the classic layout; ``tiles``
    is a list of ``(min_key, max_key, [page entry lists])`` triples for
    KiWi — exactly the physical structure, partial page drops included.
    """

    meta: dict
    layout: str
    pages: list[list[Entry]] = field(default_factory=list)
    tiles: list[tuple[Any, Any, list[list[Entry]]]] = field(default_factory=list)
    range_tombstones: list[RangeTombstone] = field(default_factory=list)


@dataclass
class StoreState:
    """Everything :mod:`repro.lsm.recovery` needs to rebuild an engine."""

    config: EngineConfig
    manifest: dict | None
    manifest_records: int
    wal_segments: list[RecoveredSegment]
    clock_now: float


class _SegmentAppender:
    """Open handle + pending record batch for one durable WAL segment.

    The group-commit layer accumulates encoded frames here and writes
    them in one physical append at a commit point. The file handle stays
    open across batches — the per-put open/close of the original
    one-frame-per-append path was most of the durability hot path's
    cost. ``pending_opened_at`` is the simulated time of the oldest
    pending record (drives ``interval(ms)`` policies).
    """

    __slots__ = (
        "path",
        "handle",
        "pending",
        "pending_records",
        "pending_opened_at",
        "pending_has_rt",
    )

    def __init__(self, path: Path):
        self.path = path
        self.handle = None
        self.pending = bytearray()
        self.pending_records = 0
        self.pending_opened_at: float | None = None
        # A batch carrying at least one range-tombstone record is its own
        # enumerable crash boundary (``wal-append-rt[n]``): the crash
        # suites prove exact recovery at the range-delete append.
        self.pending_has_rt = False

    def close(self) -> None:
        if self.handle is not None:
            self.handle.close()
            self.handle = None


class DurableStore:
    """One engine's durable directory. See the module docstring for the
    on-disk layout and the commit protocol."""

    #: Delta frames tolerated on one run blob before :meth:`checkpoint`
    #: rewrites it clean — bounds both blob size and recovery decode work
    #: (deltas otherwise accrete until the file happens to be compacted).
    MAX_DELTA_CHAIN = 4

    def __init__(self, path: str | Path, injector: FaultInjector | None = None):
        self.path = Path(path)
        self.injector = injector or FaultInjector(armed=False)
        self._engine: Any = None
        # file_number -> (generation, (num_entries, num_pages), deltas):
        # the last blob written, its shape signature (mutation detection
        # for KiWi page drops), and the length of its appended
        # delete-tile delta chain.
        self._recorded: dict[int, tuple[int, tuple[int, int], int]] = {}
        self._pending_srds: list[dict] = []
        self._policy = CommitPolicy()
        self._fsync = True
        self._appenders: dict[int, _SegmentAppender] = {}
        # Group-commit serialization: the append path (ingest thread)
        # and the forced drains of manifest commits — which a background
        # compaction worker issues — mutate the same pending batches.
        self._wal_mutex = locks.OrderedRLock(
            "persist.wal", locks.RANK_WAL_MUTEX
        )
        # Wall-clock interval policy: one pending timer drains the batch
        # interval_ms real milliseconds after its first record. The
        # factory is injectable so tests drive a fake timer by hand.
        self.timer_factory: Any = threading.Timer
        self._drain_timer: Any = None
        self._timer_error: BaseException | None = None

    def _configure(self, config: EngineConfig) -> None:
        """Adopt the durability knobs (commit policy, fsync) of ``config``."""
        self._policy = config.commit_policy
        self._fsync = config.fsync

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        path: str | Path,
        config: EngineConfig,
        injector: FaultInjector | None = None,
    ) -> "DurableStore":
        """Initialise a fresh store directory (must not hold a manifest)."""
        store = cls(path, injector)
        if store._manifest_path.exists():
            raise PersistenceError(
                f"{store.path} already holds a durable store; use open()"
            )
        store.path.mkdir(parents=True, exist_ok=True)
        store._wal_dir.mkdir(exist_ok=True)
        store._runs_dir.mkdir(exist_ok=True)
        store._configure(config)
        store._write_atomic(
            store._config_path,
            json.dumps(config_to_dict(config), sort_keys=True).encode("utf-8"),
            label="config",
        )
        return store

    @classmethod
    def open(
        cls, path: str | Path, injector: FaultInjector | None = None
    ) -> "DurableStore":
        """Bind to an existing store directory (for recovery).

        Sweeps ``*.tmp`` orphans first: a crash between a temp file's
        write and its ``os.replace`` strands the temp file, and appends
        (WAL, manifest) must never resume next to stale garbage that a
        later atomic write could trip over.
        """
        store = cls(path, injector)
        if not store._config_path.exists():
            raise PersistenceError(f"{store.path} holds no durable store")
        store._wal_dir.mkdir(exist_ok=True)
        store._runs_dir.mkdir(exist_ok=True)
        store._configure(
            config_from_dict(
                json.loads(store._config_path.read_text(encoding="utf-8"))
            )
        )
        store._sweep_tmp_orphans()
        return store

    def _sweep_tmp_orphans(self) -> None:
        orphans = [
            candidate
            for directory in (self.path, self._wal_dir, self._runs_dir)
            for candidate in directory.glob("*.tmp")
        ]
        if not orphans:
            return
        self.injector.before_write("tmp-sweep")
        for orphan in orphans:
            orphan.unlink(missing_ok=True)

    def close(self) -> None:
        """Drain pending WAL batches and release the open segment handles."""
        with self._wal_mutex:
            if self._drain_timer is not None:
                self._drain_timer.cancel()
                self._drain_timer = None
            self.wal_sync()
            for appender in self._appenders.values():
                appender.close()
            self._appenders.clear()

    def attach(self, engine: Any) -> None:
        """Bind the engine whose state this store snapshots at commits."""
        self._engine = engine

    @property
    def _obs(self):
        """The attached engine's observability bundle (or the shared
        disabled one while the store runs detached, e.g. during create)."""
        engine = self._engine
        return engine.obs if engine is not None else NULL_OBS

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------

    @property
    def _config_path(self) -> Path:
        return self.path / "CONFIG.json"

    @property
    def _manifest_path(self) -> Path:
        return self.path / "MANIFEST.log"

    @property
    def _clock_path(self) -> Path:
        return self.path / "CLOCK.json"

    @property
    def _wal_dir(self) -> Path:
        return self.path / "wal"

    @property
    def _runs_dir(self) -> Path:
        return self.path / "runs"

    def _segment_path(self, segment_id: int) -> Path:
        return self._wal_dir / f"{segment_id:08d}.log"

    def _run_path(self, file_number: int, generation: int) -> Path:
        return self._runs_dir / f"{file_number:08d}.{generation:04d}.run"

    # ------------------------------------------------------------------
    # Physical write primitives (every one is a crash boundary)
    # ------------------------------------------------------------------

    def _fsync_handle(self, handle) -> None:
        if self._fsync:
            os.fsync(handle.fileno())

    def _fsync_dir(self, directory: Path) -> None:
        """Make a rename/unlink durable: fsync the containing directory."""
        if not self._fsync:
            return
        fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def _write_atomic(self, target: Path, data: bytes, label: str) -> None:
        self.injector.before_write(label)
        tmp = target.with_name(target.name + ".tmp")
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            self._fsync_handle(handle)
        os.replace(tmp, target)
        self._fsync_dir(target.parent)

    def _append_frame(self, target: Path, payload: bytes, label: str) -> None:
        self.injector.before_write(label)
        with open(target, "ab") as handle:
            handle.write(frame_bytes(payload))
            handle.flush()
            self._fsync_handle(handle)

    def _unlink_all(self, paths: list[Path], label: str) -> None:
        if not paths:
            return
        self.injector.before_write(label)
        parents = {target.parent for target in paths}
        for target in paths:
            target.unlink(missing_ok=True)
        for parent in parents:
            self._fsync_dir(parent)

    # ------------------------------------------------------------------
    # WAL sink protocol (driven by WriteAheadLog)
    # ------------------------------------------------------------------

    def wal_append(self, segment: WALSegment, record: WALRecord) -> None:
        """Buffer one appended record; drain where the commit policy says.

        Records accumulate in the segment's :class:`_SegmentAppender` and
        reach disk as one framed batch (a single crash boundary labelled
        ``wal-append[n]`` with the batch's record count) — the group
        commit of §4.1.5's WAL lifecycle. ``every_op`` drains here on
        every call, reproducing the original record-per-write boundaries
        exactly; the other policies trade bounded loss of *acknowledged
        but undrained* operations for fewer physical writes and fsyncs.
        Durable state always advances whole batches, so recovery lands on
        an exact operation prefix, never a torn suffix. The whole path
        holds the store's WAL mutex: a manifest commit's forced drain
        (which a background compaction worker may issue) must never
        observe a half-appended batch.
        """
        with self._wal_mutex:
            self._reraise_timer_error()
            appender = self._appenders.get(segment.segment_id)
            if appender is None:
                appender = _SegmentAppender(self._segment_path(segment.segment_id))
                if not appender.path.exists():
                    header = json.dumps(
                        {
                            "segment_id": segment.segment_id,
                            "opened_at": segment.opened_at,
                        }
                    ).encode("utf-8")
                    appender.pending += _WAL_MAGIC + frame_bytes(header)
                self._appenders[segment.segment_id] = appender
            appender.pending += frame_bytes(_encode_wal_record(record))
            appender.pending_records += 1
            if isinstance(record.payload, RangeTombstone):
                appender.pending_has_rt = True
            if appender.pending_opened_at is None:
                appender.pending_opened_at = record.written_at
            if self._policy.timer_driven:
                self._arm_drain_timer()
            elif self._policy.should_drain(
                self._pending_wal_records(),
                record.written_at - self._oldest_pending_at(record.written_at),
            ):
                self.wal_sync()

    def _arm_drain_timer(self) -> None:
        """Schedule the wall-clock drain for an ``interval_wall`` batch.

        One timer at a time, armed when the batch's first record lands;
        caller holds the WAL mutex. The timer thread's drain serializes
        through the same mutex, and any error it hits (an injected crash,
        a full disk) is re-raised to the writer on its next append or
        sync — a background fsync failure must not be silently swallowed.
        """
        if self._drain_timer is not None:
            return
        timer = self.timer_factory(
            self._policy.interval_ms / 1000.0, self._timer_drain
        )
        if hasattr(timer, "daemon"):
            timer.daemon = True
        self._drain_timer = timer
        timer.start()

    def _timer_drain(self) -> None:
        with self._wal_mutex:
            self._drain_timer = None
            try:
                self.wal_sync()
            except BaseException as exc:  # noqa: BLE001 - surfaced to writer
                self._timer_error = exc

    def _reraise_timer_error(self) -> None:
        if self._timer_error is not None:
            error, self._timer_error = self._timer_error, None
            raise error

    def _pending_wal_records(self) -> int:
        return sum(a.pending_records for a in self._appenders.values())

    def _oldest_pending_at(self, default: float) -> float:
        return min(
            (
                a.pending_opened_at
                for a in self._appenders.values()
                if a.pending_opened_at is not None
            ),
            default=default,
        )

    def wal_sync(self) -> None:
        """Force-drain every pending WAL batch (a group-commit point).

        Called by every manifest commit before the commit record is
        appended — the commit point must never outrun the WAL — and by
        :meth:`checkpoint`/:meth:`close`. Each segment's batch is one
        physical append: one injector boundary, one fsync. Serialized
        against concurrent appends by the WAL mutex (manifest commits
        may run on a background compaction worker).
        """
        obs = self._obs
        with self._wal_mutex:
            self._reraise_timer_error()
            for segment_id in sorted(self._appenders):
                appender = self._appenders[segment_id]
                if not appender.pending_records and not appender.pending:
                    continue
                records = appender.pending_records
                with obs.tracer.span(
                    "wal-commit", segment=segment_id, records=records
                ):
                    started = time.perf_counter() if obs.enabled else 0.0
                    tag = "wal-append-rt" if appender.pending_has_rt else "wal-append"
                    self.injector.before_write(f"{tag}[{records}]")
                    if appender.handle is None:
                        appender.handle = open(appender.path, "ab")
                    appender.handle.write(bytes(appender.pending))
                    appender.handle.flush()
                    self._fsync_handle(appender.handle)
                    appender.pending = bytearray()
                    appender.pending_records = 0
                    appender.pending_opened_at = None
                    appender.pending_has_rt = False
                if obs.enabled:
                    obs.wal_commit_latency.record(time.perf_counter() - started)
                    obs.wal_commit_batch_records.record(records)

    def _drop_appenders(self, segment_ids: list[int]) -> None:
        """Discard appender state for segments leaving the live set.

        Pending records in a purged segment are already covered by the
        flush watermark (the flush commit drained them); pending records
        in a D_th-dropped segment were either flushed or copied into the
        rewrite's fresh segment, which is written whole.
        """
        with self._wal_mutex:
            for segment_id in segment_ids:
                appender = self._appenders.pop(segment_id, None)
                if appender is not None:
                    appender.close()

    def wal_purge(self, segment_ids: list[int]) -> None:
        """Delete segment files wholly below the flush watermark."""
        self._drop_appenders(segment_ids)
        self._unlink_all(
            [self._segment_path(sid) for sid in segment_ids], label="wal-purge"
        )

    def wal_rewrite(
        self, fresh: WALSegment | None, dropped_ids: list[int]
    ) -> None:
        """Persist the D_th routine: fresh segment first, then drop old.

        A crash between the two leaves the live records duplicated across
        the fresh and the over-age segments; WAL replay de-duplicates by
        sequence number, so the overlap is harmless. The fresh segment is
        written under its own ``wal-rewrite`` crash point so fault
        injection can target the D_th rewrite boundary distinctly from
        ordinary appends.
        """
        if fresh is not None:
            header = json.dumps(
                {"segment_id": fresh.segment_id, "opened_at": fresh.opened_at}
            ).encode("utf-8")
            blob = _WAL_MAGIC + frame_bytes(header)
            for record in fresh.records:
                blob += frame_bytes(_encode_wal_record(record))
            self._write_atomic(
                self._segment_path(fresh.segment_id), blob, label="wal-rewrite"
            )
        self.wal_purge(dropped_ids)

    # ------------------------------------------------------------------
    # Commit protocol
    # ------------------------------------------------------------------

    def register_srd(self, seq: int, d_lo: Any, d_hi: Any) -> None:
        """Register a secondary range delete before it executes.

        The entry starts ``done: False`` (an *intent*); the engine
        commits immediately after registering, so a crash anywhere inside
        the SRD leaves a durable intent that recovery rolls forward.
        :meth:`complete_srd` flips the flag once the SRD's physical work
        finished; the entry then stays recorded (for WAL-replay
        interleaving) until the flush watermark passes its sequence
        number.
        """
        self._pending_srds.append(
            {"seq": seq, "d_lo": d_lo, "d_hi": d_hi, "done": False}
        )

    def complete_srd(self, seq: int) -> None:
        """Mark a registered SRD's physical work as finished.

        Memory-only until the next commit persists it — exactly the
        commit the engine issues right after calling this.
        """
        for entry in self._pending_srds:
            if entry["seq"] == seq:
                entry["done"] = True

    def commit(self, reason: str, watermark: int | None = None) -> None:
        """Make the attached engine's current tree state durable.

        Writes blobs for new/mutated run files, then appends one manifest
        record (the atomic commit point), then prunes blobs no longer
        referenced. ``watermark`` overrides the WAL's flush watermark for
        the record (the flush path commits *before* purging WAL segments,
        so the new watermark is passed in explicitly).
        """
        engine = self._require_engine()
        with engine.obs.tracer.span("manifest-commit", reason=reason):
            self._commit_impl(engine, reason, watermark)

    def _commit_impl(
        self, engine: Any, reason: str, watermark: int | None
    ) -> None:
        self.wal_sync()
        if watermark is None:
            watermark = engine.wal.flushed_seqnum
        self._pending_srds = [
            entry for entry in self._pending_srds if entry["seq"] > watermark
        ]

        def materialize(run_file: Any) -> int:
            """Blob generation for this file, writing a new blob if the
            file is unrecorded, or appending a shape delta if it was
            mutated in place (KiWi delete-tile page drops)."""
            number = run_file.meta.file_number
            signature = (run_file.meta.num_entries, run_file.num_pages)
            recorded = self._recorded.get(number)
            deltas = 0
            if recorded is None:
                generation = 0
                self._write_run(run_file, generation)
            elif recorded[1] != signature:
                generation = recorded[0]
                if self._append_run_delta(run_file, generation):
                    deltas = recorded[2] + 1
                else:
                    # Not a pure shrink (defensive): fall back to a full
                    # rewrite under a bumped generation.
                    generation += 1
                    self._write_run(run_file, generation)
            else:
                generation, deltas = recorded[0], recorded[2]
            self._recorded[number] = (generation, signature, deltas)
            return generation

        layout, referenced = self._layout_snapshot(engine, materialize)
        record = self._manifest_record(engine, reason, layout, watermark)
        self._append_frame(
            self._manifest_path,
            json.dumps(record, sort_keys=True).encode("utf-8"),
            label="manifest",
        )

        live_numbers = {number for number, _generation in referenced}
        for number in list(self._recorded):
            if number not in live_numbers:
                del self._recorded[number]
        self._prune_blobs(referenced)

    def checkpoint(self) -> None:
        """Compact the manifest to one snapshot record and prune the dirs.

        The engine flushes first (see :meth:`LSMEngine.checkpoint`), so
        the WAL tail is empty up to the watermark and recovery from a
        fresh checkpoint replays nothing. Run blobs whose appended
        delete-tile delta chain has grown past :data:`MAX_DELTA_CHAIN`
        are rewritten clean under a bumped generation here — the blob
        analogue of the manifest compaction, so repeated secondary range
        deletes cannot accrete an unbounded delta tail onto a long-lived
        file.
        """
        engine = self._require_engine()
        self.wal_sync()
        self.write_clock(engine.clock.now)

        def recorded_generation(run_file: Any) -> int:
            number = run_file.meta.file_number
            recorded = self._recorded.get(number)
            if recorded is None:  # pragma: no cover - commit precedes
                raise PersistenceError(
                    f"checkpoint found uncommitted file {number}"
                )
            generation, signature, deltas = recorded
            if deltas > self.MAX_DELTA_CHAIN:
                generation += 1
                self._write_run(run_file, generation)
                self._recorded[number] = (generation, signature, 0)
            return generation

        layout, referenced = self._layout_snapshot(engine, recorded_generation)
        self._pending_srds = [
            entry
            for entry in self._pending_srds
            if entry["seq"] > engine.wal.flushed_seqnum
        ]
        record = self._manifest_record(
            engine, "checkpoint", layout, engine.wal.flushed_seqnum
        )
        record["checkpoint"] = True
        self._write_atomic(
            self._manifest_path,
            frame_bytes(json.dumps(record, sort_keys=True).encode("utf-8")),
            label="manifest-snapshot",
        )
        live_ids = {segment.segment_id for segment in engine.wal.segments}
        self._drop_appenders(
            [sid for sid in list(self._appenders) if sid not in live_ids]
        )
        stale = [
            path
            for path in self._wal_dir.glob("*.log")
            if int(path.name.split(".")[0]) not in live_ids
        ]
        self._unlink_all(stale, label="wal-purge")
        self._prune_blobs(referenced)

    def _layout_snapshot(
        self, engine: Any, resolve_generation: Any
    ) -> tuple[list, set[tuple[int, int]]]:
        """Walk the tree into the manifest layout structure.

        ``resolve_generation(run_file) -> int`` decides each file's blob
        generation: the commit path materializes blobs as a side effect,
        the checkpoint path only reads the recorded bookkeeping. Returns
        ``(layout, referenced)`` where ``layout`` is levels → runs →
        ``[file_number, generation, level_arrival_time]`` and
        ``referenced`` is the ``(file_number, generation)`` set alive
        after this snapshot.
        """
        layout: list[list[list[list]]] = []
        referenced: set[tuple[int, int]] = set()
        for level in engine.tree.levels:
            level_out = []
            for run in level.runs:
                run_out = []
                for run_file in run:
                    number = run_file.meta.file_number
                    generation = resolve_generation(run_file)
                    referenced.add((number, generation))
                    run_out.append(
                        [number, generation, run_file.meta.level_arrival_time]
                    )
                level_out.append(run_out)
            layout.append(level_out)
        return layout, referenced

    def _manifest_record(
        self, engine: Any, reason: str, layout: list, watermark: int
    ) -> dict:
        return {
            "reason": reason,
            "layout": layout,
            "watermark": watermark,
            "next_seq": engine.seq.current,
            "now": engine.clock.now,
            "pending_srds": list(self._pending_srds),
        }

    def write_clock(self, now: float) -> None:
        """Persist the simulated clock (idle advances carry no WAL record)."""
        self._write_atomic(
            self._clock_path,
            json.dumps({"now": now}).encode("utf-8"),
            label="clock",
        )

    def _prune_blobs(self, referenced: set[tuple[int, int]]) -> None:
        stale = []
        for path in self._runs_dir.glob("*.run"):
            number_part, generation_part, _ = path.name.split(".")
            if (int(number_part), int(generation_part)) not in referenced:
                stale.append(path)
        self._unlink_all(stale, label="blob-prune")

    def _require_engine(self) -> Any:
        if self._engine is None:
            raise PersistenceError("store not attached to an engine")
        return self._engine

    # ------------------------------------------------------------------
    # Run blob serialization
    # ------------------------------------------------------------------

    def _write_run(self, run_file: Any, generation: int) -> None:
        blob = _encode_run(run_file)
        # A blob carrying range-tombstone fragments is its own boundary:
        # the crash suites enumerate the fragment rewrite at compaction
        # commit separately from plain run materialization.
        label = "run-blob-rt" if run_file.range_tombstones else "run-blob"
        self._write_atomic(
            self._run_path(run_file.meta.file_number, generation),
            blob,
            label=label,
        )

    def _append_run_delta(self, run_file: Any, generation: int) -> bool:
        """Persist a delete-tile-only mutation as an appended shape delta.

        KiWi secondary range deletes only ever *remove* entries from a
        file (full and partial page drops); the surviving content is a
        subset of what the blob already stores. Instead of rewriting the
        whole blob under a bumped generation, one framed delta record is
        appended naming the surviving pages by their ordinals in the
        blob's base entry section (entries are identified by seqnum,
        which is unique per engine) plus the updated file metadata.
        Decoding applies the *last* intact delta; a torn delta falls back
        to the previous shape, which the SRD's durable intent record
        rolls forward at recovery. Returns ``False`` when the mutation is
        not expressible as a subset (the caller then falls back to a full
        generation rewrite).
        """
        from repro.kiwi.layout import KiWiFile  # layout imports storage

        if not isinstance(run_file, KiWiFile):
            return False
        target = self._run_path(run_file.meta.file_number, generation)
        if not target.exists():
            return False
        blob = target.read_bytes()
        if not blob.startswith(_RUN_MAGIC):
            return False
        frames = list(read_frames(blob, len(_RUN_MAGIC)))
        if len(frames) < 3:
            return False
        entries_blob = frames[1]
        ordinal_by_seqnum: dict[int, int] = {}
        cursor = 0
        while cursor < len(entries_blob):
            entry, cursor = decode_durable_entry(entries_blob, cursor)
            ordinal_by_seqnum[entry.seqnum] = len(ordinal_by_seqnum)
        tiles = []
        for tile in run_file.tiles:
            pages = []
            for page in tile.pages:
                ordinals = []
                for entry in page:
                    ordinal = ordinal_by_seqnum.get(entry.seqnum)
                    if ordinal is None:
                        return False
                    ordinals.append(ordinal)
                pages.append(ordinals)
            tiles.append(
                {"min": tile.min_key, "max": tile.max_key, "pages": pages}
            )
        payload = json.dumps(
            {
                "delta": 1,
                "meta": _meta_to_dict(run_file.meta),
                "tiles": tiles,
            },
            sort_keys=True,
        ).encode("utf-8")
        self._append_frame(target, payload, label="run-delta")
        return True

    def read_run(self, file_number: int, generation: int) -> RecoveredRun:
        """Decode one run blob, deltas applied (recovery path)."""
        target = self._run_path(file_number, generation)
        if not target.exists():
            raise PersistenceError(f"missing run blob {target.name}")
        blob = target.read_bytes()
        if not blob.startswith(_RUN_MAGIC):
            raise PersistenceError("run blob has a bad magic header")
        # Delta appends resume at end-of-file, so a torn trailing delta
        # (real mid-write crash) must be truncated away like any log tail.
        self._truncate_if_torn(target, blob, len(_RUN_MAGIC))
        return _decode_run(blob)

    # ------------------------------------------------------------------
    # Load
    # ------------------------------------------------------------------

    def load(self) -> StoreState:
        """Read everything recovery needs.

        Torn trailing frames (a *real* mid-write crash, which the
        simulated injector never produces) are not just skipped but
        **truncated away**: appends resume at the end of the file, so a
        torn tail left in place would make every post-recovery record
        unreadable to the next restart.
        """
        config = config_from_dict(
            json.loads(self._config_path.read_text(encoding="utf-8"))
        )
        records = []
        if self._manifest_path.exists():
            blob = self._manifest_path.read_bytes()
            for payload in read_frames(blob):
                records.append(json.loads(payload.decode("utf-8")))
            self._truncate_if_torn(self._manifest_path, blob, 0)
        manifest = records[-1] if records else None

        segments: list[RecoveredSegment] = []
        for path in sorted(self._wal_dir.glob("*.log")):
            blob = path.read_bytes()
            segment = _decode_wal_segment(blob)
            if segment is None:
                # Bad magic or a torn header frame: nothing in the file
                # is recoverable, and appends must not resume behind the
                # damage.
                path.unlink(missing_ok=True)
                continue
            self._truncate_if_torn(path, blob, len(_WAL_MAGIC))
            segments.append(segment)
        segments.sort(key=lambda s: s.segment_id)

        clock_now = 0.0
        if self._clock_path.exists():
            try:
                clock_now = float(
                    json.loads(self._clock_path.read_text(encoding="utf-8"))["now"]
                )
            except (ValueError, KeyError):  # torn clock write: fall back
                clock_now = 0.0
        return StoreState(
            config=config,
            manifest=manifest,
            manifest_records=len(records),
            wal_segments=segments,
            clock_now=clock_now,
        )

    def _truncate_if_torn(self, path: Path, blob: bytes, offset: int) -> None:
        """Truncate a torn frame tail — a *recovery-pass write*.

        Fires a ``torn-truncate`` crash boundary (only when a tear is
        actually present, which the simulated injector never produces on
        its own), so the recovery-fault suite can kill recovery in the
        middle of cleaning a genuinely torn log and assert the second
        recovery still converges.
        """
        intact = intact_prefix_length(blob, offset)
        if intact < len(blob):
            self.injector.before_write("torn-truncate")
            with open(path, "r+b") as handle:
                handle.truncate(intact)
                handle.flush()
                self._fsync_handle(handle)

    @staticmethod
    def _truncate_torn_tail(path: Path, blob: bytes, offset: int) -> None:
        """Boundary-free truncation helper (cluster topology log)."""
        intact = intact_prefix_length(blob, offset)
        if intact < len(blob):
            with open(path, "r+b") as handle:
                handle.truncate(intact)

    def mark_recovered(
        self,
        layout: list,
        pending_srds: list[dict],
    ) -> None:
        """Seed commit-tracking state after a recovery rebuilt the engine."""
        self._pending_srds = [dict(entry) for entry in pending_srds]
        engine = self._require_engine()
        by_number = {
            f.meta.file_number: f for f in engine.tree.all_files()
        }
        for level_out in layout:
            for run_out in level_out:
                for number, generation, _arrival in run_out:
                    run_file = by_number.get(number)
                    if run_file is None:  # pragma: no cover - defensive
                        continue
                    self._recorded[number] = (
                        generation,
                        (run_file.meta.num_entries, run_file.num_pages),
                        self._delta_chain_length(number, generation),
                    )

    def _delta_chain_length(self, file_number: int, generation: int) -> int:
        """Appended delta frames on a recovered blob (base is 3 frames).

        Counted from the file so a recovered store keeps honouring the
        :data:`MAX_DELTA_CHAIN` bound — a chain built before the crash
        must still collapse at the next checkpoint.
        """
        target = self._run_path(file_number, generation)
        if not target.exists():  # pragma: no cover - defensive
            return 0
        blob = target.read_bytes()
        return max(0, sum(1 for _ in read_frames(blob, len(_RUN_MAGIC))) - 3)


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


def frame_bytes(payload: bytes) -> bytes:
    return _FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def read_frames(blob: bytes, offset: int = 0) -> Iterator[bytes]:
    """Yield intact frames; stop silently at the first torn/corrupt one."""
    cursor = offset
    while cursor + _FRAME_HEADER.size <= len(blob):
        length, crc = _FRAME_HEADER.unpack_from(blob, cursor)
        start = cursor + _FRAME_HEADER.size
        end = start + length
        if end > len(blob):
            return
        payload = blob[start:end]
        if zlib.crc32(payload) != crc:
            return
        yield payload
        cursor = end


def intact_prefix_length(blob: bytes, offset: int = 0) -> int:
    """Byte length of the intact frame prefix (where a torn tail starts)."""
    cursor = offset
    while cursor + _FRAME_HEADER.size <= len(blob):
        length, crc = _FRAME_HEADER.unpack_from(blob, cursor)
        start = cursor + _FRAME_HEADER.size
        end = start + length
        if end > len(blob) or zlib.crc32(blob[start:end]) != crc:
            return cursor
        cursor = end
    return cursor


# ---------------------------------------------------------------------------
# WAL record encoding
# ---------------------------------------------------------------------------


def _encode_wal_record(record: WALRecord) -> bytes:
    payload = record.payload
    if isinstance(payload, Entry):
        return bytes([_REC_ENTRY]) + encode_durable_entry(payload)
    if isinstance(payload, RangeTombstone):
        return bytes([_REC_RANGE_TOMBSTONE]) + encode_durable_range_tombstone(
            payload
        )
    raise PersistenceError(
        "durable WAL requires Entry/RangeTombstone payloads, got "
        f"{type(payload).__name__}"
    )


def _decode_wal_payload(blob: bytes) -> Entry | RangeTombstone:
    if blob[0] == _REC_ENTRY:
        entry, _ = decode_durable_entry(blob, 1)
        return entry
    if blob[0] == _REC_RANGE_TOMBSTONE:
        tombstone, _ = decode_durable_range_tombstone(blob, 1)
        return tombstone
    raise PersistenceError(f"unknown WAL record type {blob[0]}")


def _decode_wal_segment(blob: bytes) -> RecoveredSegment | None:
    if not blob.startswith(_WAL_MAGIC):
        return None
    frames = read_frames(blob, len(_WAL_MAGIC))
    try:
        header = json.loads(next(frames).decode("utf-8"))
    except StopIteration:  # header torn: segment is unusable
        return None
    segment = RecoveredSegment(
        segment_id=int(header["segment_id"]),
        opened_at=float(header["opened_at"]),
    )
    for payload in frames:
        record = _decode_wal_payload(payload)
        if isinstance(record, RangeTombstone):
            segment.records.append(
                WALRecord(
                    seqnum=record.seqnum,
                    key=record.start,
                    is_tombstone=True,
                    written_at=record.write_time,
                    payload=record,
                )
            )
        else:
            segment.records.append(
                WALRecord(
                    seqnum=record.seqnum,
                    key=record.key,
                    is_tombstone=record.is_tombstone,
                    written_at=record.write_time,
                    payload=record,
                )
            )
    return segment


# ---------------------------------------------------------------------------
# Run blob encoding
# ---------------------------------------------------------------------------


def _meta_to_dict(meta: Any) -> dict:
    return {name: getattr(meta, name) for name in _META_FIELDS}


def _encode_run(run_file: Any) -> bytes:
    # Imported here: layout modules import storage modules, not vice versa.
    from repro.kiwi.layout import KiWiFile
    from repro.lsm.sstable import SSTable

    encoded_entries: list[bytes] = []
    if isinstance(run_file, KiWiFile):
        tiles = []
        for tile in run_file.tiles:
            page_counts = []
            for page in tile.pages:
                page_counts.append(len(page))
                encoded_entries.extend(map(encode_durable_entry, page))
            tiles.append(
                {"min": tile.min_key, "max": tile.max_key, "pages": page_counts}
            )
        header = {
            "layout": "kiwi",
            "meta": _meta_to_dict(run_file.meta),
            "tiles": tiles,
        }
    elif isinstance(run_file, SSTable):
        page_counts = []
        for page in run_file.pages:
            page_counts.append(len(page))
            encoded_entries.extend(map(encode_durable_entry, page))
        header = {
            "layout": "sstable",
            "meta": _meta_to_dict(run_file.meta),
            "pages": page_counts,
        }
    else:
        raise PersistenceError(
            f"cannot persist run files of type {type(run_file).__name__}"
        )
    rts_blob = b"".join(
        encode_durable_range_tombstone(rt) for rt in run_file.range_tombstones
    )
    return (
        _RUN_MAGIC
        + frame_bytes(json.dumps(header, sort_keys=True).encode("utf-8"))
        + frame_bytes(b"".join(encoded_entries))
        + frame_bytes(rts_blob)
    )


def _decode_run(blob: bytes) -> RecoveredRun:
    if not blob.startswith(_RUN_MAGIC):
        raise PersistenceError("run blob has a bad magic header")
    frames = list(read_frames(blob, len(_RUN_MAGIC)))
    if len(frames) < 3:
        raise PersistenceError(
            f"run blob truncated: {len(frames)}/3 sections readable"
        )
    header = json.loads(frames[0].decode("utf-8"))
    entries_blob, rts_blob = frames[1], frames[2]
    # Frames past the base three are appended shape deltas (delete-tile
    # mutations); the last intact one describes the current shape.
    delta = json.loads(frames[-1].decode("utf-8")) if len(frames) > 3 else None

    def take_entries(count: int, cursor: int) -> tuple[list[Entry], int]:
        out = []
        for _ in range(count):
            entry, cursor = decode_durable_entry(entries_blob, cursor)
            out.append(entry)
        return out, cursor

    meta = dict(delta["meta"]) if delta is not None else dict(header["meta"])
    recovered = RecoveredRun(meta=meta, layout=header["layout"])
    if delta is not None:
        if header["layout"] != "kiwi":
            raise PersistenceError(
                f"shape delta on a {header['layout']!r} blob"
            )
        flat: list[Entry] = []
        cursor = 0
        while cursor < len(entries_blob):
            entry, cursor = decode_durable_entry(entries_blob, cursor)
            flat.append(entry)
        for tile in delta["tiles"]:
            pages = []
            for ordinals in tile["pages"]:
                try:
                    pages.append([flat[ordinal] for ordinal in ordinals])
                except IndexError as exc:
                    raise PersistenceError(
                        "run blob delta references an entry past the base "
                        "section"
                    ) from exc
            recovered.tiles.append((tile["min"], tile["max"], pages))
    elif header["layout"] == "kiwi":
        cursor = 0
        for tile in header["tiles"]:
            pages = []
            for count in tile["pages"]:
                page_entries, cursor = take_entries(count, cursor)
                pages.append(page_entries)
            recovered.tiles.append((tile["min"], tile["max"], pages))
        if cursor != len(entries_blob):
            raise PersistenceError("run blob entry section has trailing bytes")
    elif header["layout"] == "sstable":
        cursor = 0
        for count in header["pages"]:
            page_entries, cursor = take_entries(count, cursor)
            recovered.pages.append(page_entries)
        if cursor != len(entries_blob):
            raise PersistenceError("run blob entry section has trailing bytes")
    else:
        raise PersistenceError(f"unknown run layout {header['layout']!r}")

    cursor = 0
    while cursor < len(rts_blob):
        tombstone, cursor = decode_durable_range_tombstone(rts_blob, cursor)
        recovered.range_tombstones.append(tombstone)
    return recovered
