"""Span tracing from the benchmark's own files, around the program's entry
points.

The benchmark never edits the program: it replaces module attributes with
timing wrappers for the length of a traced run and restores them after.
A function that callers import by name (``from repro.lsm.builder import
build_run``) is bound separately in every caller's module, so each
caller's binding is wrapped; wrapping only the defining module would
leave the callers unwrapped and report a false zero. :func:`check_fired`
turns that mistake into a failed run.

Spans (name, start, end, parent, thread) stay in memory while the run
executes and are written out when it ends. A span's *self* time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict


class Tracer:
    """Collects spans and per-name call counts, total and self time.

    Recording is off until :attr:`active` is set, so wrappers may stay
    installed through set-up without charging it to the traced phase.
    """

    def __init__(self) -> None:
        self.active = False
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.spans.append(
                    (span_id, name, start, end, parent, threading.get_ident())
                )
                with tracer._lock:
                    tracer.calls[name] += 1
                    tracer.total_s[name] += duration
                    tracer.self_s[name] += duration - frame[1]

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, amount: float) -> None:
        if self.active:
            with self._lock:
                self.counts[name] += amount

    def tables(self) -> dict:
        """The per-name aggregates, for sending to another process."""
        return {
            "calls": dict(self.calls), "total_s": dict(self.total_s),
            "self_s": dict(self.self_s), "counts": dict(self.counts),
        }

    def absorb(self, tables: dict) -> None:
        """Add another process's :meth:`tables` to this tracer's."""
        for field, values in tables.items():
            mine = getattr(self, field)
            for name, value in values.items():
                mine[name] += value

    def write(self, path: str) -> None:
        """Write every span as one JSON line."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for span_id, name, start, end, parent, thread in self.spans:
                out.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start": start,
                         "end": end, "parent": parent, "thread": thread}
                    )
                )
                out.write("\n")


# (span name, module, attribute path). Every binding of a name imported
# into several modules is listed, all under one span name.
BOUNDARIES: tuple[tuple[str, str, str], ...] = (
    # run build: Bloom + KiWi tiles
    ("build.build_run", "repro.core.engine", "build_run"),
    ("build.build_run", "repro.compaction.executor", "build_run"),
    ("build.build_run", "repro.compaction.full", "build_run"),
    ("kiwi.tile_build", "repro.kiwi.tile", "DeleteTile.__init__"),
    ("bloom.from_keys", "repro.filters.bloom", "BloomFilter.from_keys"),
    # merge
    ("compaction.prepare", "repro.compaction.executor", "CompactionExecutor.prepare"),
    ("compaction.merge", "repro.compaction.executor", "merge_for_compaction"),
    ("compaction.merge", "repro.compaction.full", "merge_for_compaction"),
    ("compaction.install", "repro.compaction.executor",
     "CompactionExecutor.install_prepared"),
    # scheduler + leases
    ("sched.throttle", "repro.compaction.scheduler", "BackgroundScheduler.throttle"),
    ("sched.run_one_compaction", "repro.core.engine", "LSMEngine.run_one_compaction"),
    # FADE
    ("fade.select", "repro.compaction.fade", "FADEPolicy.select"),
    # durability
    ("persist.wal_append", "repro.storage.persist", "DurableStore.wal_append"),
    ("persist.wal_sync", "repro.storage.persist", "DurableStore.wal_sync"),
    ("persist.commit", "repro.storage.persist", "DurableStore.commit"),
    ("device.fsync", "repro.storage.persist", "os.fsync"),
    # recovery
    ("recovery.open", "repro.lsm.recovery", "open_engine"),
    ("persist.load", "repro.storage.persist", "DurableStore.load"),
    ("persist.read_run", "repro.storage.persist", "DurableStore.read_run"),
    # secondary range deletes
    ("srd.execute", "repro.core.engine", "execute_secondary_range_delete"),
    # read path
    ("tree.lookup", "repro.lsm.tree", "LSMTree.lookup"),
    ("tree.scan", "repro.lsm.tree", "LSMTree.scan"),
    # shard
    ("shard.submit", "repro.shard.engine", "IngestSession.submit"),
    ("shard.ticket_wait", "repro.shard.engine", "IngestTicket.wait"),
    ("shard.sync", "repro.shard.engine", "ShardedEngine.sync"),
    ("shard.get", "repro.shard.engine", "ShardedEngine.get"),
    # net
    ("net.decode", "repro.net.server", "decode_request"),
    ("net.encode", "repro.net.server", "encode_response"),
)

# The boundaries each workload must cross in its traced phase. A zero
# count for any of them fails the traced run.
EXPECTED: dict[str, frozenset[str]] = {
    "ingest": frozenset({
        "build.build_run", "kiwi.tile_build", "bloom.from_keys",
        "compaction.prepare", "compaction.merge", "compaction.install",
        "sched.throttle", "sched.run_one_compaction", "fade.select",
        "persist.wal_append", "persist.wal_sync", "persist.commit",
        "device.fsync", "recovery.open", "persist.load", "persist.read_run",
        "srd.execute", "tree.scan",
    }),
    "lookup": frozenset({"tree.lookup", "tree.scan"}),
    "serve": frozenset({
        "shard.submit", "shard.ticket_wait", "shard.sync", "shard.get",
        "net.decode", "net.encode", "sched.throttle", "build.build_run",
        "persist.wal_append", "persist.wal_sync", "device.fsync",
        "tree.lookup",
    }),
}


def _resolve(module_name: str, attr_path: str):
    owner = importlib.import_module(module_name)
    parts = attr_path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Installed:
    """The wrappers of one traced run; :meth:`restore` undoes them."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> "Installed":
        for name, module_name, attr_path in BOUNDARIES:
            owner, attr = _resolve(module_name, attr_path)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, raw))
            if name == "bloom.from_keys":  # a classmethod; also counts keys
                setattr(owner, attr, classmethod(self._bloom_from_keys(raw.__func__)))
            else:
                setattr(owner, attr, self.tracer.wrap(name, raw))
        return self

    def _bloom_from_keys(self, fn):
        tracer = self.tracer
        timed = tracer.wrap("bloom.from_keys", fn)

        def from_keys(cls, keys, *args, **kwargs):
            keys = list(keys)
            tracer.count("bloom.keys_added", len(keys))
            return timed(cls, keys, *args, **kwargs)

        return from_keys

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()


def check_fired(tracer: Tracer, workload: str) -> list[str]:
    """Names of expected boundaries that recorded no call."""
    return sorted(n for n in EXPECTED[workload] if tracer.calls.get(n, 0) == 0)

