"""``ingest``: durable delete-heavy write stream, closed loop, one client.

One round: open a fresh durable store (background scheduler, group(16)
commits, fsync on), write the YCSB-A-variant stream one operation at a
time, flush and drain, idle for ``D_th`` of simulated time, then run the
secondary range deletes that purge the oldest timestamp windows, close,
and reopen the store several times.
Identical rounds repeat until ``--seconds`` of measuring has passed.
"""

from __future__ import annotations

import gc
import shutil
import time
from pathlib import Path

import pbload
import pbproc
import pbstats
from pblayers import layer_metrics, sum_stats
from pbload import require

INSERTS = 10_000          # 20.8k write operations per round
SRD_COUNT = 4
SRD_SHARE = 0.10          # each SRD purges 10% of the timestamp range
REOPENS = 3
SETUP_SAMPLES = 5
MIN_ROUNDS = 2
MAX_ROUNDS = 8
MIN_HEIGHT = 3
IN_PROCESS = True


def _full_scan(engine) -> list:
    return engine.scan(0, pbload.KEY_SPACE)


def _one_round(ops, model, cfg, windows, path: Path, tracer) -> dict:
    from repro import LSMEngine

    # The previous round's engine is garbage held in reference cycles;
    # collecting it here keeps it out of this round's peak memory.
    gc.collect()
    setups = []
    for sample in range(SETUP_SAMPLES):
        shutil.rmtree(path, ignore_errors=True)
        started = time.perf_counter()
        engine = LSMEngine.open(path, config=cfg, scheduler="background")
        setups.append(time.perf_counter() - started)
        if sample < SETUP_SAMPLES - 1:
            engine.close()

    if tracer is not None:
        tracer.active = True
    latencies = []
    put, delete = engine.put, engine.delete
    with pbproc.PhaseClock() as clock, pbproc.GCPauses() as gc_pauses:
        stream_started = time.perf_counter()
        for op in ops:
            started = time.perf_counter()
            if op[0] == "put":
                put(op[1], op[2], op[3])
            else:
                delete(op[1])
            latencies.append(time.perf_counter() - started)
        engine.flush()
        engine.scheduler.drain()
        write_wall = time.perf_counter() - stream_started
        # The deadline must already hold before the idle period, which
        # persists every remaining delete.
        max_age = engine.max_tombstone_file_age()

        # Idle for D_th of simulated time. Whether a TTL expires while the
        # stream still runs depends on how the background workers were
        # scheduled; across the idle period every delete left in an upper
        # level must reach its deadline and be persisted by FADE.
        started = time.perf_counter()
        engine.advance_time(cfg.delete_persistence_threshold)
        engine.scheduler.drain()
        idle_s = time.perf_counter() - started

        srd_latencies = []
        for d_lo, d_hi in windows:
            started = time.perf_counter()
            engine.secondary_range_delete(d_lo, d_hi)
            srd_latencies.append(time.perf_counter() - started)
        engine.scheduler.drain()

        stats = engine.stats.snapshot()
        d_th = cfg.delete_persistence_threshold
        max_age = max(max_age, engine.max_tombstone_file_age())
        height = engine.tree.height
        user_bytes = pbload.user_bytes(ops, cfg.entry_size, cfg.key_size)
        page_bytes = cfg.page_entries * cfg.entry_size
        written = (
            stats["bytes_flushed"]
            + stats["compaction_bytes_written"]
            + stats["srd_pages_written"] * page_bytes
        )
        space_amp = 1.0 + engine.space_amplification()
        pbload.check_surface(_full_scan(engine), model, "ingest after SRDs")
        engine.close()

        require(max_age <= d_th, f"tombstone file age {max_age} exceeds D_th {d_th}")
        require(
            stats["ttl_triggered_compactions"] > 0,
            "no TTL-triggered compaction ran: FADE's delete deadline was never exercised",
        )
        require(stats["pages_dropped_full"] > 0, "no SRD dropped a full page")
        require(height >= MIN_HEIGHT, f"tree height {height} < {MIN_HEIGHT}")

        reopen_s = []
        for attempt in range(REOPENS):
            started = time.perf_counter()
            engine = LSMEngine.open(path, scheduler="background")
            reopen_s.append(time.perf_counter() - started)
            try:
                pbload.check_surface(
                    _full_scan(engine), model, f"ingest reopen {attempt + 1}"
                )
            finally:
                engine.close()
    if tracer is not None:
        tracer.active = False
    shutil.rmtree(path, ignore_errors=True)
    return {
        "setup_s": setups,
        "latencies": latencies,
        "ops_per_s": len(ops) / write_wall,
        "srd": srd_latencies,
        "idle_s": idle_s,
        "reopen": reopen_s,
        "write_amp": written / user_bytes,
        "space_amp": space_amp,
        "stats": stats,
        "max_age_over_dth": max_age / d_th,
        "height": height,
        "cpu_s": clock.cpu_s,
        "wall_s": clock.wall_s,
        "gc_s": gc_pauses.seconds,
    }


def run(seed: int, seconds: float, workdir: Path, tracer=None) -> dict:
    ops, model = pbload.ingest_stream(seed, INSERTS)
    windows = pbload.srd_windows(len(ops), SRD_COUNT, SRD_SHARE)
    for d_lo, d_hi in windows:
        pbload.apply_srd(model, d_lo, d_hi)
    cfg = pbload.engine_config(len(ops), wal_commit_policy="group(16)", fsync=True)

    rounds: list[dict] = []
    started = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or (
        time.perf_counter() - started < seconds and len(rounds) < MAX_ROUNDS
    ):
        rounds.append(_one_round(ops, model, cfg, windows, workdir / "store", tracer))

    peak_rss_mb = pbproc.peak_rss_mb()  # before the summaries' sorted copies
    latencies = [x for r in rounds for x in r["latencies"]]
    srd = [x for r in rounds for x in r["srd"]]
    reopen = [x for r in rounds for x in r["reopen"]]
    writes = pbstats.summarize(latencies)
    srds = pbstats.summarize(srd)
    med = lambda key: pbstats.median([r[key] for r in rounds])  # noqa: E731
    e2e = {
        "setup_s": pbstats.median([x for r in rounds for x in r["setup_s"]]),
        "ops_per_s": med("ops_per_s"),
        "p50_us": writes["p50"] * 1e6,
        "peak_rss_mb": peak_rss_mb,
        "write_amp": med("write_amp"),
        "space_amp": med("space_amp"),
    }
    report = {
        "rounds": len(rounds),
        "ops_per_round": len(ops),
        "write_p50_us": (writes["p50"] * 1e6, writes["n"]),
        "write_p99_us": (pbstats.percentile(latencies, 99.0) * 1e6, writes["n"]),
        f"write_p{writes['tail_pct']:g}_us": (writes["tail"] * 1e6, writes["n"]),
        "srd_p50_ms": (srds["p50"] * 1e3, srds["n"]),
        "idle_dth_s": (med("idle_s"), len(rounds)),
        "recover_s": (pbstats.median(reopen), len(reopen)),
        "ttl_triggered_compactions": min(r["stats"]["ttl_triggered_compactions"] for r in rounds),
        "pages_dropped_full": min(r["stats"]["pages_dropped_full"] for r in rounds),
        "tree_height": min(r["height"] for r in rounds),
    }
    stats = sum_stats([r["stats"] for r in rounds])
    extra = {
        "fade.max_age_over_dth": max(r["max_age_over_dth"] for r in rounds),
        "proc.cpu_s": sum(r["cpu_s"] for r in rounds),
        "proc.wall_s": sum(r["wall_s"] for r in rounds),
        "proc.gc_pause_s": sum(r["gc_s"] for r in rounds),
    }
    layers = layer_metrics(tracer, stats, extra, cfg.page_io_seconds, cfg.hash_seconds)
    attempted = len(rounds) * (len(ops) + len(windows) + REOPENS)
    return {
        "e2e": e2e,
        "layers": layers,
        "report": report,
        "attempted": attempted,
        "failed": 0,
        "cost_s": sum(r["wall_s"] for r in rounds),
        "units": len(rounds),
    }
