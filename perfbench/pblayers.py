"""The per-layer ledger: every metric a traced run reports.

Every traced run reports every name below, whatever the workload, so a
layer a workload does not exercise reads 0 there: that zero is the
"flat on" half of each prediction in ``perfbench/README.md``. Names are
``<layer>.<metric>``; ``stats.*`` are the engine's own counters.
"""

from __future__ import annotations

from pbtrace import Tracer

# (name, unit, better)
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    # run build (lsm.builder + kiwi.tile + filters.bloom)
    ("build.build_run_calls", "count", "lower"),
    ("build.build_run_self_s", "s", "lower"),
    ("kiwi.tile_build_calls", "count", "lower"),
    ("kiwi.tile_build_self_s", "s", "lower"),
    ("bloom.from_keys_calls", "count", "lower"),
    ("bloom.from_keys_self_s", "s", "lower"),
    ("bloom.keys_added", "count", "lower"),
    # merge (lsm.iterator + compaction.executor)
    ("compaction.prepare_calls", "count", "lower"),
    ("compaction.prepare_self_s", "s", "lower"),
    ("compaction.merge_s", "s", "lower"),
    ("compaction.install_s", "s", "lower"),
    ("compaction.entries_in", "count", "lower"),
    ("compaction.entries_out", "count", "lower"),
    ("compaction.bytes_written", "bytes", "lower"),
    ("compaction.purge_ratio", "ratio", "higher"),
    # scheduler + leases
    ("sched.throttle_calls", "count", "lower"),
    ("sched.throttle_s", "s", "lower"),
    ("sched.run_one_compaction_calls", "count", "lower"),
    ("sched.useful_dispatch_ratio", "ratio", "higher"),
    ("sched.preemption_ratio", "ratio", "lower"),
    ("stats.write_slowdowns", "count", "lower"),
    ("stats.write_stalls", "count", "lower"),
    ("stats.stall_seconds", "s", "lower"),
    ("stats.background_compactions", "count", "lower"),
    # FADE
    ("fade.select_calls", "count", "lower"),
    ("fade.select_s", "s", "lower"),
    ("stats.ttl_triggered_compactions", "count", "lower"),
    ("stats.saturation_triggered_compactions", "count", "lower"),
    ("fade.max_age_over_dth", "ratio", "lower"),
    # durability (lsm.wal + storage.persist)
    ("persist.wal_append_calls", "count", "lower"),
    ("persist.wal_append_s", "s", "lower"),
    ("persist.wal_sync_calls", "count", "lower"),
    ("persist.wal_sync_s", "s", "lower"),
    ("persist.commit_calls", "count", "lower"),
    ("persist.commit_s", "s", "lower"),
    ("device.fsync_calls", "count", "lower"),
    ("device.fsync_s", "s", "lower"),
    ("wal.records_per_fsync", "ratio", "higher"),
    # recovery
    ("recovery.open_calls", "count", "lower"),
    ("recovery.open_s", "s", "lower"),
    ("persist.load_s", "s", "lower"),
    ("persist.read_run_calls", "count", "lower"),
    # secondary range deletes (kiwi.range_delete)
    ("srd.execute_calls", "count", "lower"),
    ("srd.execute_s", "s", "lower"),
    ("stats.pages_dropped_full", "count", "higher"),
    ("stats.pages_dropped_partial", "count", "lower"),
    ("srd.full_drop_ratio", "ratio", "higher"),
    ("stats.srd_pages_written", "count", "lower"),
    # read path (lsm.tree + filters + kiwi.layout + storage.cache)
    ("tree.lookup_calls", "count", "lower"),
    ("tree.lookup_self_s", "s", "lower"),
    ("tree.scan_calls", "count", "lower"),
    ("tree.scan_self_s", "s", "lower"),
    ("stats.bloom_probes", "count", "lower"),
    ("bloom.fp_ratio", "ratio", "lower"),
    ("read.pages_per_get", "ratio", "lower"),
    ("read.sim_us_per_get", "us", "lower"),
    ("cache.hit_rate", "ratio", "higher"),
    ("cache.evictions", "count", "lower"),
    ("stats.range_tombstone_skips", "count", "higher"),
    # shard (engine, router, IngestSession)
    ("shard.submit_calls", "count", "lower"),
    ("shard.submit_s", "s", "lower"),
    ("shard.ticket_wait_s", "s", "lower"),
    ("shard.sync_calls", "count", "lower"),
    ("shard.sync_s", "s", "lower"),
    ("shard.get_calls", "count", "lower"),
    ("shard.get_s", "s", "lower"),
    # net (protocol, server)
    ("net.decode_calls", "count", "lower"),
    ("net.decode_self_s", "s", "lower"),
    ("net.encode_calls", "count", "lower"),
    ("net.encode_self_s", "s", "lower"),
    ("net.gen_late_p99_ms", "ms", "lower"),
    # process
    ("proc.cpu_s", "s", "lower"),
    ("proc.wall_s", "s", "lower"),
    ("proc.wait_s", "s", "lower"),
    ("proc.gc_pause_s", "s", "lower"),
    ("disk.sim_io_s", "s", "lower"),
    ("disk.sim_hash_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)

_SPAN_FIELDS = {
    "_calls": "calls",
    "_self_s": "self_s",
    "_s": "total_s",
}

_STATS = (
    "write_slowdowns", "write_stalls", "stall_seconds",
    "background_compactions", "ttl_triggered_compactions",
    "saturation_triggered_compactions", "pages_dropped_full",
    "pages_dropped_partial", "srd_pages_written", "bloom_probes",
    "range_tombstone_skips",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _span_value(tracer: Tracer, name: str) -> float | None:
    for suffix, field in _SPAN_FIELDS.items():
        if name.endswith(suffix):
            table = getattr(tracer, field)
            return table.get(name[: -len(suffix)], 0)
    return None


def layer_metrics(
    tracer: Tracer | None,
    stats: dict,
    extra: dict,
    page_io_seconds: float,
    hash_seconds: float,
) -> dict[str, float]:
    """The full ledger from spans, summed engine counters and the
    workload's own measurements (``extra`` wins over derived values)."""
    out: dict[str, float] = {}
    for name, _unit, _better in PER_LAYER:
        value = _span_value(tracer, name) if tracer is not None else None
        out[name] = 0.0 if value is None else float(value)
    get = stats.get
    for counter in _STATS:
        out[f"stats.{counter}"] = float(get(counter, 0))
    if tracer is not None:
        out["bloom.keys_added"] = tracer.counts.get("bloom.keys_added", 0.0)
    out["compaction.entries_in"] = float(get("compaction_entries_in", 0))
    out["compaction.entries_out"] = float(get("compaction_entries_out", 0))
    out["compaction.bytes_written"] = float(get("compaction_bytes_written", 0))
    out["compaction.purge_ratio"] = _ratio(
        get("tombstones_dropped", 0) + get("invalid_entries_purged", 0),
        get("compaction_entries_in", 0),
    )
    out["sched.useful_dispatch_ratio"] = _ratio(
        get("background_compactions", 0), out["sched.run_one_compaction_calls"]
    )
    out["sched.preemption_ratio"] = _ratio(
        get("compaction_preemptions", 0),
        get("compactions", 0) + get("compaction_preemptions", 0),
    )
    out["wal.records_per_fsync"] = _ratio(
        out["persist.wal_append_calls"], out["device.fsync_calls"]
    )
    full, partial = get("pages_dropped_full", 0), get("pages_dropped_partial", 0)
    out["srd.full_drop_ratio"] = _ratio(full, full + partial)
    out["bloom.fp_ratio"] = _ratio(
        get("bloom_false_positives", 0), get("bloom_probes", 0)
    )
    lookups = get("point_lookups", 0)
    out["read.pages_per_get"] = _ratio(get("lookup_pages_read", 0), lookups)
    out["read.sim_us_per_get"] = 1e6 * _ratio(
        get("lookup_pages_read", 0) * page_io_seconds
        + get("bloom_hash_computations", 0) * hash_seconds,
        lookups,
    )
    out["cache.hit_rate"] = _ratio(
        get("cache_hits", 0), get("cache_hits", 0) + get("cache_misses", 0)
    )
    out["disk.sim_io_s"] = (
        get("pages_read", 0) + get("pages_written", 0)
    ) * page_io_seconds
    out["disk.sim_hash_s"] = get("bloom_hash_computations", 0) * hash_seconds
    for name, value in extra.items():
        if name not in out:
            raise KeyError(f"{name} is not a per-layer metric")
        out[name] = float(value)
    # Wall time the measuring thread spent neither computing nor waiting
    # on the interpreter lock: fsync, sockets, sleeps.
    out["proc.wait_s"] = max(0.0, out["proc.wall_s"] - out["proc.cpu_s"])
    return out


def stats_delta(after: dict, before: dict) -> dict:
    """Counter growth between two ``Statistics.snapshot()`` dicts."""
    return {k: after[k] - before[k] for k in after}


def sum_stats(parts: list[dict]) -> dict:
    total: dict = {}
    for part in parts:
        for name, value in part.items():
            if isinstance(value, (int, float)):
                total[name] = total.get(name, 0) + value
    return total
