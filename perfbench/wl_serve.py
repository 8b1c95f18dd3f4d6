"""``serve``: open-loop requests over the network against a durable cluster.

A child process (``serve_child.py``) opens a durable 4-shard cluster
(background scheduler, group(16) commits, fsync on, writes acknowledged
only once durable), preloads it and serves it with ``LetheServer``; the
generator here runs in its own process so it does not share the server's
interpreter lock. Requests go out on a fixed schedule over two
connections, each key always on the same one so per-key order holds,
whatever the server's speed: a nominal rate first, then higher steps.
Latency runs from each request's due time. Afterwards the cluster is
closed and reopened here, and every acknowledged write must be there.
"""

from __future__ import annotations

import asyncio
import json
import random
import shutil
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import pbload
import pbstats
import pbtrace
from pblayers import layer_metrics, sum_stats

PRELOAD_KEYS = 3_000
N_SHARDS = 4
CONNECTIONS = 2
# (offered rate in requests/s, seconds). The first step is the nominal
# rate the end-to-end latency is reported at; the later ones find the
# highest rate that still meets the limit. Each run starts SERVERS
# server processes in turn and runs the whole schedule against each.
STEPS = ((250, 8.0), (600, 2.0), (1200, 2.0))
P99_LIMIT_S = 0.25
SERVERS = 3
REPLY_TIMEOUT_S = 60.0
IN_PROCESS = False
HERE = Path(__file__).resolve().parent


def plan(seed: int) -> dict:
    """Everything both processes derive from the seed."""
    keys = pbload.fresh_keys(random.Random(seed), PRELOAD_KEYS, set())
    preload = [("put", key, f"p{i}", i) for i, key in enumerate(keys)]
    total = sum(int(rate * secs) for rate, secs in STEPS)
    requests = pbload.serve_requests(seed, keys, total)
    offsets, step_of, start = [], [], 0.0
    for step, (rate, secs) in enumerate(STEPS):
        count = int(rate * secs)
        offsets.extend(start + i / rate for i in range(count))
        step_of.extend([step] * count)
        start += secs
    return {
        "preload": preload,
        "requests": requests,
        "offsets": offsets,
        "step_of": step_of,
    }


def expected_answers(the_plan: dict) -> tuple[list, dict]:
    """The value each get must return, and the final model, by replaying
    the requests in send order (per-key order is send order, because a
    key always travels on one connection)."""
    model = {op[1]: (op[2], op[3]) for op in the_plan["preload"]}
    answers = []
    for op in the_plan["requests"]:
        if op[0] == "get":
            entry = model.get(op[1])
            answers.append(entry[0] if entry else None)
        else:
            answers.append(None)
            if op[0] == "put":
                model[op[1]] = (op[2], op[3])
            else:
                model.pop(op[1], None)
    return answers, model


def write_ops(the_plan: dict) -> int:
    return sum(1 for op in the_plan["preload"] + the_plan["requests"] if op[0] != "get")


# ----------------------------------------------------------------------
# Generator
# ----------------------------------------------------------------------


async def _drive(port: int, the_plan: dict) -> dict:
    from repro.net.client import AsyncLetheClient

    requests, offsets = the_plan["requests"], the_plan["offsets"]
    n = len(requests)
    sent = [0.0] * n
    done: list[float | None] = [None] * n
    results: list = [None] * n
    errors: list[str] = []
    clients = [
        await AsyncLetheClient.connect("127.0.0.1", port) for _ in range(CONNECTIONS)
    ]

    def finished(index: int, future: asyncio.Future) -> None:
        if future.cancelled():
            errors.append(f"request {index} cancelled")
        elif future.exception() is not None:
            errors.append(f"request {index}: {future.exception()!r}")
        else:
            done[index] = time.perf_counter()
            results[index] = future.result()

    futures = []
    try:
        origin = time.perf_counter() + 0.05
        for index, op in enumerate(requests):
            delay = origin + offsets[index] - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            sent[index] = time.perf_counter()
            future = await clients[op[1] % CONNECTIONS].submit(op)
            future.add_done_callback(partial(finished, index))
            futures.append(future)
        try:
            await asyncio.wait_for(
                asyncio.gather(*futures, return_exceptions=True), REPLY_TIMEOUT_S
            )
        except asyncio.TimeoutError:
            errors.append(f"no reply within {REPLY_TIMEOUT_S} s of the last send")
    finally:
        for client in clients:
            await client.close()
    due = [origin + offset for offset in offsets]
    return {
        "due": due, "sent": sent, "done": done, "results": results,
        "errors": errors,
    }


# ----------------------------------------------------------------------
# Child process
# ----------------------------------------------------------------------


class _Child:
    """One ``serve_child.py`` process; always reaped on exit."""

    def __init__(self, seed: int, store: Path, trace: bool, spans: Path) -> None:
        shutil.rmtree(store, ignore_errors=True)
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "serve_child.py"), "--seed", str(seed),
             "--dir", str(store), "--trace", str(int(trace)), "--spans", str(spans)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "READY":
            raise pbload.OracleError(f"server child did not start: {line}")
        self.port = int(line[1])
        self.setup_s = time.perf_counter() - started

    def command(self, word: str) -> None:
        self.proc.stdin.write(word + "\n")
        self.proc.stdin.flush()

    def finish(self) -> dict:
        self.command("STOP")
        line = self.proc.stdout.readline()
        code = self.proc.wait(timeout=120)
        if code != 0 or not line.startswith("RESULT "):
            raise pbload.OracleError(f"server child failed (exit {code})")
        return json.loads(line[len("RESULT "):])

    def reap(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def _reopen_and_check(store: Path, model: dict) -> float:
    from repro import ShardedEngine

    started = time.perf_counter()
    cluster = ShardedEngine.open(store)
    recover_s = time.perf_counter() - started
    try:
        pbload.check_surface(
            cluster.scan(0, pbload.KEY_SPACE), model, "serve after reopen"
        )
    finally:
        cluster.close()
    return recover_s


def _one_server(seed, the_plan, answers, final_model, store, trace, spans) -> dict:
    """One server process: set-up, the stepped schedule, shutdown, and the
    reopen that must find every acknowledged write."""
    child = _Child(seed, store, trace, spans)
    try:
        child.command("GO")
        timed = asyncio.run(_drive(child.port, the_plan))
        served = child.finish()
    finally:
        child.reap()
    if timed["errors"]:
        raise pbload.OracleError(
            f"serve: {len(timed['errors'])} requests failed, e.g. {timed['errors'][0]}"
        )
    wrong = [
        i for i, op in enumerate(the_plan["requests"])
        if op[0] == "get" and timed["results"][i] != answers[i]
    ]
    pbload.require(not wrong, f"serve: {len(wrong)} gets disagree with per-key order")
    pbload.require(
        served["background_compactions"] > 0,
        "serve: no background compaction ran inside the timed window",
    )
    served["recover_s"] = _reopen_and_check(store, final_model)
    served["setup_s"] = child.setup_s
    due, done = timed["due"], timed["done"]
    served["latency"] = pbstats.open_loop_latencies(due, done)
    served["late"] = pbstats.lateness(due, timed["sent"])
    served["due"], served["done"] = due, done
    served["ops_per_s"] = len(due) / (max(done) - due[0])
    return served


def run(seed: int, seconds: float, workdir: Path, tracer=None) -> dict:
    """``seconds`` is not consulted: the schedule is fixed by ``STEPS``
    and ``SERVERS`` (36 s of offered load)."""
    the_plan = plan(seed)
    answers, final_model = expected_answers(the_plan)
    trace = tracer is not None
    out_dir = workdir.parent.parent / ".perfbench-out"
    servers = [
        _one_server(
            seed, the_plan, answers, final_model, workdir / f"cluster-{index}",
            trace, out_dir / f"spans-serve-{seed}-{index}.jsonl",
        )
        for index in range(SERVERS)
    ]

    kinds = [op[0] for op in the_plan["requests"]]
    step_of = the_plan["step_of"]
    steps = []
    for step, (rate, _secs) in enumerate(STEPS):
        idx = [i for i, s in enumerate(step_of) if s == step]
        pooled = [srv["latency"][i] for srv in servers for i in idx]
        grows = any(
            pbstats.backlog_grows(
                [srv["due"][i] for i in idx], [srv["done"][i] for i in idx],
                srv["due"][idx[0]], srv["due"][idx[-1]] + 1.0 / rate,
            )
            for srv in servers
        )
        steps.append({
            "rate": rate,
            "summary": pbstats.summarize(pooled),
            "p99": pbstats.percentile(pooled, 99.0),
            "meets": pbstats.meets_limit(pooled, P99_LIMIT_S) and not grows,
        })
    passing = [s["rate"] for s in steps if s["meets"]]
    nominal = [i for i, s in enumerate(step_of) if s == 0]
    # Acknowledged writes cross every layer (net, shard router, WAL,
    # fsync). Gets are reported beside them; pooling the two would put
    # the median on the boundary between a ~1.5 ms and a ~2.5 ms mode.
    write_idx = [i for i in nominal if kinds[i] != "get"]
    get_idx = [i for i in nominal if kinds[i] == "get"]
    writes = [srv["latency"][i] for srv in servers for i in write_idx]
    gets = [srv["latency"][i] for srv in servers for i in get_idx]
    write_summary, get_summary = pbstats.summarize(writes), pbstats.summarize(gets)
    med = lambda key: pbstats.median([srv[key] for srv in servers])  # noqa: E731
    per_server_p50 = [
        pbstats.percentile([srv["latency"][i] for i in write_idx], 50.0)
        for srv in servers
    ]
    late = [x for srv in servers for x in srv["late"]]
    e2e = {
        "setup_s": med("setup_s"),
        "ops_per_s": med("ops_per_s"),
        "p50_us": pbstats.median(per_server_p50) * 1e6,
        "peak_rss_mb": med("peak_rss_mb"),
        "write_amp": med("write_amp"),
        "space_amp": med("space_amp"),
    }
    report = {
        "servers": SERVERS,
        "connections": CONNECTIONS,
        "preloaded_keys": PRELOAD_KEYS,
        "serve_p50_ms": (steps[0]["summary"]["p50"] * 1e3, steps[0]["summary"]["n"]),
        "serve_p99_ms": (steps[0]["p99"] * 1e3, steps[0]["summary"]["n"]),
        "serve_write_p50_ms": (write_summary["p50"] * 1e3, write_summary["n"]),
        "serve_write_p99_ms": (pbstats.percentile(writes, 99.0) * 1e3, write_summary["n"]),
        "serve_get_p50_ms": (get_summary["p50"] * 1e3, get_summary["n"]),
        "serve_get_p99_ms": (pbstats.percentile(gets, 99.0) * 1e3, get_summary["n"]),
        "serve_max_rate_ops_s": max(passing) if passing else 0,
        "serve_p99_limit_ms": P99_LIMIT_S * 1e3,
        "recover_s": (med("recover_s"), SERVERS),
        "generator_late_p99_ms": (pbstats.percentile(late, 99.0) * 1e3, len(late)),
        "background_compactions_in_window": min(srv["background_compactions"] for srv in servers),
    }
    for s in steps:
        report[f"step_{s['rate']}_p50_ms"] = (s["summary"]["p50"] * 1e3, s["summary"]["n"])
        report[f"step_{s['rate']}_p99_ms"] = (s["p99"] * 1e3, s["summary"]["n"])
        report[f"step_{s['rate']}_meets_limit"] = s["meets"]
    layers = {}
    unfired: list[str] = []
    if trace:
        for srv in servers:
            tracer.absorb(srv["trace"])
        unfired = pbtrace.check_fired(tracer, "serve")
        extra = {
            name: sum(srv["extra"][name] for srv in servers)
            for name in servers[0]["extra"]
        }
        extra["net.gen_late_p99_ms"] = pbstats.percentile(late, 99.0) * 1e3
        layers = layer_metrics(
            tracer, sum_stats([srv["window"] for srv in servers]), extra,
            servers[0]["page_io_seconds"], servers[0]["hash_seconds"],
        )
    attempted = len(the_plan["requests"]) * SERVERS
    return {
        "e2e": e2e,
        "layers": layers,
        "report": report,
        "attempted": attempted,
        "failed": 0,
        "unfired": unfired,
        "cost_s": sum(srv["cpu_s"] for srv in servers),
        "units": attempted,
    }
