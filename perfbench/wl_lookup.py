"""``lookup``: skewed reads on a settled store, closed loop, one client.

Set-up preloads an in-memory store (inserts plus point deletes, flushed
and compacted to three levels) with a block cache far smaller than the
store. The timed phase is read-only: Zipf-skewed gets on inserted keys
(deleted ones included), gets on keys never inserted, and short scans.
No run build, merge or WAL work happens while it is timed, so a
write-side change must read flat here. Each run builds three stores
from three sub-seeds and splits ``--seconds`` between them; each store
times blocks of reads until its share has passed.
"""

from __future__ import annotations

import gc
import time
from array import array
from pathlib import Path

import pbload
import pbproc
import pbstats
from pblayers import layer_metrics, stats_delta, sum_stats
from pbload import require

INSERTS = 8_500           # ~2000 pages of 4 entries, three levels
CACHE_PAGES = 256
QUERIES = 40_000
WARMUP = 5_000
BLOCK = 5_000             # reads per timed block
STORES = 3                # set-up samples per run
MIN_BLOCKS = 3            # per store
MIN_HEIGHT = 3
IN_PROCESS = True


def _hot_keys(queries: list[tuple], inserted: set, share: float) -> int:
    """Distinct keys that receive ``share`` of the gets on inserted keys."""
    counts: dict[int, int] = {}
    for query in queries:
        if query[0] == "get" and query[1] in inserted:
            counts[query[1]] = counts.get(query[1], 0) + 1
    total, covered = sum(counts.values()), 0
    for rank, hits in enumerate(sorted(counts.values(), reverse=True), 1):
        covered += hits
        if covered >= share * total:
            return rank
    return len(counts)


def _preload(ops, cfg):
    from repro import LSMEngine

    engine = LSMEngine(cfg)
    for op in ops:
        if op[0] == "put":
            engine.put(op[1], op[2], op[3])
        else:
            engine.delete(op[1])
    engine.flush()
    return engine


def _check_store(stats: dict, evictions: int, wrong: list, height: int) -> None:
    require(not wrong, f"lookup: {len(wrong)} reads disagree with the model, e.g. {wrong[:1]}")
    require(height >= MIN_HEIGHT, f"lookup store height {height} < {MIN_HEIGHT}")
    require(stats["zero_result_lookups"] > 0, "no zero-result lookup ran")
    require(stats["bloom_false_positives"] > 0, "no Bloom false positive occurred")
    require(evictions > 0, "the block cache never evicted: the store fits the cache")
    require(stats["compaction_entries_in"] == 0 and stats["bytes_flushed"] == 0,
            "the read-only phase wrote to the store")


def _one_store(sub_seed: int, budget_s: float, tracer) -> dict:
    """Preload one store (a set-up sample), warm its cache, then time
    blocks of reads until ``budget_s`` has passed since the preload began."""
    ops, model = pbload.ingest_stream(sub_seed, INSERTS, update_share=0.0)
    inserted = [op[1] for op in ops if op[0] == "put"]
    queries = pbload.lookup_queries(sub_seed, inserted, model, QUERIES)
    cfg = pbload.engine_config(len(ops), cache_pages=CACHE_PAGES)

    gc.collect()  # the previous store, as in wl_ingest
    calibrated = pbproc.calibrate()
    started = time.perf_counter()
    engine = _preload(ops, cfg)
    setup_s = time.perf_counter() - started
    previous, calibrated = calibrated, pbproc.calibrate()
    setup_scaled_s = setup_s * pbproc.speed_scale(previous, calibrated)
    height = engine.tree.height
    store_pages = sum(f.num_pages for f in engine.tree.all_files())
    load_stats = engine.stats.snapshot()
    user_bytes = pbload.user_bytes(ops, cfg.entry_size, cfg.key_size)
    write_amp = load_stats["bytes_flushed"] + load_stats["compaction_bytes_written"]
    write_amp /= user_bytes
    space_amp = 1.0 + engine.space_amplification()

    get, scan = engine.get, engine.scan
    for query in queries[:WARMUP]:
        if query[0] == "get":
            get(query[1])
        else:
            scan(query[1], query[2])

    before = engine.stats.snapshot()
    evictions_before = engine.cache.evictions
    # Latencies go into flat double arrays: how many blocks a store times
    # depends on the machine's speed, and a list of float objects would
    # let that show up in the peak memory the run reports.
    get_lat, scan_lat = array("d"), array("d")
    wrong, block_rates, scaled_rates, scaled_p50s = [], [], [], []
    cursor = 0
    clock, gc_pauses = pbproc.PhaseClock(), pbproc.GCPauses()
    calibrated = pbproc.calibrate()  # the warm-up moved on; sample the speed again
    if tracer is not None:
        tracer.active = True
    while len(block_rates) < MIN_BLOCKS or time.perf_counter() - started < budget_s:
        block = queries[cursor:cursor + BLOCK]
        cursor = (cursor + BLOCK) % len(queries)
        first_get = len(get_lat)
        block_started = time.perf_counter()
        with clock, gc_pauses:
            for query in block:
                if query[0] == "get":
                    began = time.perf_counter()
                    answer = get(query[1])
                    get_lat.append(time.perf_counter() - began)
                    if answer != query[2]:
                        wrong.append(query)
                else:
                    began = time.perf_counter()
                    answer = scan(query[1], query[2])
                    scan_lat.append(time.perf_counter() - began)
                    if answer != query[3]:
                        wrong.append(query)
        rate = len(block) / (time.perf_counter() - block_started)
        previous, calibrated = calibrated, pbproc.calibrate()
        scale = pbproc.speed_scale(previous, calibrated)
        block_rates.append(rate)
        scaled_rates.append(rate / scale)
        scaled_p50s.append(pbstats.percentile(get_lat[first_get:], 50.0) * scale)
    if tracer is not None:
        tracer.active = False
    stats = stats_delta(engine.stats.snapshot(), before)
    evictions = engine.cache.evictions - evictions_before
    _check_store(stats, evictions, wrong, height)
    return {
        "setup_s": setup_s,
        "setup_scaled_s": setup_scaled_s,
        "get": get_lat,
        "scan": scan_lat,
        "block_rates": block_rates,
        "scaled_rates": scaled_rates,
        "scaled_p50s": scaled_p50s,
        "write_amp": write_amp,
        "space_amp": space_amp,
        "stats": stats,
        "evictions": evictions,
        "store_pages": store_pages,
        "hot50": _hot_keys(queries, set(inserted), 0.5),
        "hot80": _hot_keys(queries, set(inserted), 0.8),
        "height": height,
        "cfg": cfg,
        "cpu_s": clock.cpu_s,
        "wall_s": clock.wall_s,
        "gc_s": gc_pauses.seconds,
    }


def run(seed: int, seconds: float, workdir: Path, tracer=None) -> dict:
    # Each store has its own sub-seed, so one run averages over several
    # key sets and hot sets instead of reporting one draw of them.
    stores = [
        _one_store(seed * STORES + index, seconds / STORES, tracer)
        for index in range(STORES)
    ]
    peak_rss_mb = pbproc.peak_rss_mb()  # before the summaries' sorted copies
    cfg = stores[0]["cfg"]
    gets, scans = array("d"), array("d")
    for store in stores:
        gets.extend(store["get"])
        scans.extend(store["scan"])
    get_summary = pbstats.summarize(gets)
    scan_summary = pbstats.summarize(scans)
    med = lambda key: pbstats.median([r[key] for r in stores])  # noqa: E731
    stats = sum_stats([r["stats"] for r in stores])
    sim_us = 1e6 * (
        stats["lookup_pages_read"] * cfg.page_io_seconds
        + stats["bloom_hash_computations"] * cfg.hash_seconds
    ) / stats["point_lookups"]
    e2e = {
        "setup_s": med("setup_scaled_s"),
        "ops_per_s": pbstats.median([x for r in stores for x in r["scaled_rates"]]),
        "p50_us": pbstats.median([x for r in stores for x in r["scaled_p50s"]]) * 1e6,
        "peak_rss_mb": peak_rss_mb,
        "write_amp": med("write_amp"),
        "space_amp": med("space_amp"),
    }
    report = {
        "stores": len(stores),
        "timed_blocks": sum(len(r["block_rates"]) for r in stores),
        "queries_per_block": BLOCK,
        "setup_s_unscaled": (med("setup_s"), len(stores)),
        "reads_per_s_unscaled": (
            pbstats.median([x for r in stores for x in r["block_rates"]]),
            sum(len(r["block_rates"]) for r in stores),
        ),
        "get_p50_us": (get_summary["p50"] * 1e6, get_summary["n"]),
        "get_p99_us": (pbstats.percentile(gets, 99.0) * 1e6, get_summary["n"]),
        f"get_p{get_summary['tail_pct']:g}_us": (get_summary["tail"] * 1e6, get_summary["n"]),
        "scan_p50_us": (scan_summary["p50"] * 1e6, scan_summary["n"]),
        "lookup_sim_us": (sim_us, stats["point_lookups"]),
        "store_pages": "/".join(str(r["store_pages"]) for r in stores),
        "cache_pages": CACHE_PAGES,
        "hot_keys_50pct_of_gets": "/".join(str(r["hot50"]) for r in stores),
        "hot_keys_80pct_of_gets": "/".join(str(r["hot80"]) for r in stores),
        "cache_hit_rate": stats["cache_hits"] / max(1, stats["cache_hits"] + stats["cache_misses"]),
        "tree_height": min(r["height"] for r in stores),
    }
    extra = {
        "cache.evictions": sum(r["evictions"] for r in stores),
        "proc.cpu_s": sum(r["cpu_s"] for r in stores),
        "proc.wall_s": sum(r["wall_s"] for r in stores),
        "proc.gc_pause_s": sum(r["gc_s"] for r in stores),
    }
    layers = layer_metrics(tracer, stats, extra, cfg.page_io_seconds, cfg.hash_seconds)
    queries_run = len(gets) + len(scans)
    return {
        "e2e": e2e,
        "layers": layers,
        "report": report,
        "attempted": queries_run,
        "failed": 0,
        "cost_s": sum(r["wall_s"] for r in stores),
        "units": queries_run,
    }
