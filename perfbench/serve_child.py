"""Server process of the ``serve`` workload (started by ``wl_serve.py``).

Opens a durable cluster in ``--dir``, preloads it, starts ``LetheServer``
and prints ``READY <port>``. ``GO`` on standard input starts the
measured window (and the span recording under ``--trace 1``); ``STOP``
stops the server and ends it. The process then drains compactions,
closes the cluster and prints one line ``RESULT <json>`` with the
engine counters of the window before exiting.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pbload  # noqa: E402
import pbproc  # noqa: E402
import pbtrace  # noqa: E402
import wl_serve  # noqa: E402
from pblayers import stats_delta  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()

    from repro import ShardedEngine
    from repro.net.server import LetheServer

    the_plan = wl_serve.plan(args.seed)
    cfg = pbload.engine_config(
        wl_serve.write_ops(the_plan), wal_commit_policy="group(16)", fsync=True
    )
    tracer = pbtrace.Tracer()
    installed = pbtrace.Installed(tracer).install() if args.trace else None

    cluster = ShardedEngine(
        cfg, n_shards=wl_serve.N_SHARDS, store_path=args.dir, scheduler="background"
    )
    cluster.ingest(the_plan["preload"])
    cluster.sync()
    server = LetheServer(cluster).start()
    print(f"READY {server.port}", flush=True)

    if sys.stdin.readline().strip() != "GO":
        raise SystemExit("expected GO")
    before = cluster.stats.snapshot()
    tracer.active = True
    with pbproc.PhaseClock() as clock, pbproc.GCPauses() as gc_pauses:
        command = sys.stdin.readline().strip()
        server.stop()
    tracer.active = False
    if command != "STOP":
        raise SystemExit(f"expected STOP, got {command!r}")
    window = stats_delta(cluster.stats.snapshot(), before)
    cluster.scheduler.drain()
    total = cluster.stats.snapshot()
    written = total["bytes_flushed"] + total["compaction_bytes_written"]
    result = {
        "background_compactions": window["background_compactions"],
        "write_amp": written / pbload.user_bytes(
            the_plan["preload"] + the_plan["requests"], cfg.entry_size, cfg.key_size
        ),
        "space_amp": 1.0 + cluster.space_amplification(),
        "cpu_s": clock.cpu_s,
        "window": window,
        "extra": {
            "proc.cpu_s": clock.cpu_s,
            "proc.wall_s": clock.wall_s,
            "proc.gc_pause_s": gc_pauses.seconds,
        },
        "page_io_seconds": cfg.page_io_seconds,
        "hash_seconds": cfg.hash_seconds,
    }
    cluster.close()
    if installed is not None:
        installed.restore()
        result["trace"] = tracer.tables()
        tracer.write(args.spans)
    result["peak_rss_mb"] = pbproc.peak_rss_mb()
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
