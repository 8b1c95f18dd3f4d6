"""Seeded operation streams, dict models and oracles for the three workloads.

Everything the engine receives is generated here from ``--seed``; the
engine is never asked to generate its own inputs. Each generator returns
the operations together with the dict model those operations imply, so
every read the benchmark issues has a known right answer.
"""

from __future__ import annotations

import bisect
import random

KEY_SPACE = 1 << 30

# The paper-figure engine shape (T=10, 10 bits/key, tiered L1, 4-entry
# pages), copied from the repository's bench scale when this benchmark
# was defined and frozen here, so a later change to that preset cannot
# silently change what this benchmark measures.
ENGINE_OVERRIDES = {
    "buffer_pages": 16,
    "page_entries": 4,
    "file_pages": 32,
    "size_ratio": 10,
    "bits_per_key": 10.0,
    "ingestion_rate": 1024.0,
    "level1_tiered": True,
}
DELETE_TILE_PAGES = 4
DTH_SHARE = 0.25  # D_th = 25% of the simulated runtime (§5)


def engine_config(write_ops: int, **extra):
    """``lethe_config`` at the benchmark's shape; ``D_th`` is 25% of the
    simulated runtime that ``write_ops`` writes take at the ingestion rate."""
    from repro import lethe_config

    runtime = write_ops / ENGINE_OVERRIDES["ingestion_rate"]
    return lethe_config(
        DTH_SHARE * runtime,
        delete_tile_pages=DELETE_TILE_PAGES,
        **ENGINE_OVERRIDES,
        **extra,
    )


def user_bytes(ops, entry_size: int, key_size: int) -> int:
    """Bytes the user asked to store: a full entry per put, a key per
    delete (the denominator of write amplification)."""
    return sum(
        entry_size if op[0] == "put" else key_size
        for op in ops
        if op[0] in ("put", "delete")
    )


def fresh_keys(rng: random.Random, count: int, taken: set) -> list[int]:
    keys = []
    while len(keys) < count:
        key = rng.randrange(KEY_SPACE)
        if key not in taken:
            taken.add(key)
            keys.append(key)
    return keys


def ingest_stream(
    seed: int,
    inserts: int,
    update_share: float = 0.5,
    delete_share: float = 0.08,
) -> tuple[list[tuple], dict]:
    """YCSB-A-variant write stream: ``inserts`` fresh keys, updates making
    ``update_share`` of the writes, point deletes of inserted keys numbering
    ``delete_share`` of the inserts. The delete key is the operation's
    timestamp (its index in the stream), so secondary range deletes on the
    oldest timestamps purge the oldest versions.

    Returns the operations and the model ``{key: (value, delete_key)}``.
    """
    rng = random.Random(seed)
    updates = int(inserts * update_share / (1 - update_share))
    deletes = int(inserts * delete_share)
    kinds = ["i"] * inserts + ["u"] * updates + ["d"] * deletes
    rng.shuffle(kinds)
    # An update or delete needs an inserted key to act on: move leading
    # non-inserts behind the first insert.
    first = kinds.index("i")
    kinds = ["i"] + kinds[:first] + kinds[first + 1:]
    new_keys = iter(fresh_keys(rng, inserts, set()))
    inserted: list[int] = []
    model: dict[int, tuple[str, int]] = {}
    ops: list[tuple] = []
    for stamp, kind in enumerate(kinds):
        if kind == "d":
            key = inserted[rng.randrange(len(inserted))]
            ops.append(("delete", key))
            model.pop(key, None)
            continue
        if kind == "i":
            key = next(new_keys)
            inserted.append(key)
        else:
            key = inserted[rng.randrange(len(inserted))]
        value = f"v{stamp}"
        ops.append(("put", key, value, stamp))
        model[key] = (value, stamp)
    return ops, model


def srd_windows(write_ops: int, count: int, share: float) -> list[tuple[int, int]]:
    """``count`` consecutive delete-key windows, oldest first, each
    ``share`` of the timestamp range: the "purge the oldest data" pattern."""
    width = max(1, int(write_ops * share))
    return [(i * width, (i + 1) * width) for i in range(count)]


def apply_srd(model: dict, d_lo: int, d_hi: int) -> None:
    """Secondary range delete on the model: drop every key whose live
    version's delete key lies in ``[d_lo, d_hi)``."""
    doomed = [k for k, (_, d) in model.items() if d_lo <= d < d_hi]
    for key in doomed:
        del model[key]


def surface(model: dict) -> list[tuple[int, str]]:
    """The model's answer to a full scan: ``(key, value)`` in key order."""
    return [(k, model[k][0]) for k in sorted(model)]


def check_surface(actual: list, model: dict, where: str) -> None:
    expected = surface(model)
    if actual != expected:
        missing = len(set(expected) - set(actual))
        extra = len(set(actual) - set(expected))
        raise OracleError(
            f"{where}: scan surface differs from the model "
            f"({len(actual)} vs {len(expected)} pairs, {missing} missing, "
            f"{extra} unexpected)"
        )


class OracleError(Exception):
    """A wrong result, or proof that a mechanism ran is missing."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise OracleError(message)


# ----------------------------------------------------------------------
# Lookup workload
# ----------------------------------------------------------------------


def zipf_ranks(rng: random.Random, n: int, count: int, theta: float) -> list[int]:
    """``count`` ranks in ``[0, n)`` drawn from a Zipf(theta) law."""
    weights = [1.0 / (rank + 1) ** theta for rank in range(n)]
    cumulative = []
    total = 0.0
    for weight in weights:
        total += weight
        cumulative.append(total)
    return [
        min(n - 1, bisect.bisect_left(cumulative, rng.random() * total))
        for _ in range(count)
    ]


def lookup_queries(
    seed: int,
    inserted: list[int],
    model: dict,
    count: int,
    absent_share: float = 0.2,
    scan_share: float = 0.1,
    scan_keys: int = 8,
    theta: float = 0.99,
) -> list[tuple]:
    """Read-only mix: Zipf-skewed gets on inserted keys (deleted ones
    included), ``absent_share`` gets on keys never inserted, and
    ``scan_share`` short scans starting at a skewed inserted key. Each
    query carries its expected answer as the last element."""
    rng = random.Random(seed ^ 0x5EED)
    # The skew's hot set is a random subset of the inserted keys, not the
    # smallest keys, so it is spread over every file of the store.
    order = list(inserted)
    rng.shuffle(order)
    ranks = iter(zipf_ranks(rng, len(order), count, theta))
    taken = set(inserted)
    sorted_keys = sorted(model)
    queries: list[tuple] = []
    for _ in range(count):
        draw = rng.random()
        if draw < absent_share:
            key = fresh_keys(rng, 1, taken)[0]
            taken.discard(key)
            queries.append(("get", key, None))
        elif draw < absent_share + scan_share:
            lo = order[next(ranks)]
            start = bisect.bisect_left(sorted_keys, lo)
            window = sorted_keys[start:start + scan_keys]
            # scan(lo, hi) is inclusive of both ends.
            hi = window[-1] if len(window) == scan_keys else KEY_SPACE
            queries.append(
                ("scan", lo, hi, [(k, model[k][0]) for k in window])
            )
        else:
            key = order[next(ranks)]
            entry = model.get(key)
            queries.append(("get", key, entry[0] if entry else None))
    return queries


# ----------------------------------------------------------------------
# Serve workload
# ----------------------------------------------------------------------


def serve_requests(
    seed: int,
    preloaded: list[int],
    count: int,
    get_share: float = 0.5,
    put_share: float = 0.4,
) -> list[tuple]:
    """Uniform-key request mix over the preloaded keys: ``get_share`` gets,
    ``put_share`` puts and the rest point deletes. Put values are unique per
    request, so a get's answer names the write it observed."""
    rng = random.Random(seed ^ 0x5E4E)
    requests: list[tuple] = []
    for index in range(count):
        key = preloaded[rng.randrange(len(preloaded))]
        draw = rng.random()
        if draw < get_share:
            requests.append(("get", key))
        elif draw < get_share + put_share:
            requests.append(("put", key, f"s{seed}-{index}", index))
        else:
            requests.append(("delete", key))
    return requests
