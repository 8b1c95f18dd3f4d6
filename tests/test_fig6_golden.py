"""Golden outputs of the write path: figure series and run-blob bytes.

The write path (Bloom build, tile weave, compaction merge, run-blob
encoding) is pure CPU work whose outputs must never drift: the paper
figures depend on every Bloom bit (``bloom_hash_computations`` feeds the
Fig 6D cost), and a store written by an earlier build must still recover
byte for byte. ``tests/data/write_path_golden.json`` pins:

* the SHA-256 of the ``series`` of Fig 6A–6D at a small scale,
* the per-engine ``bloom_hash_computations`` of that sweep,
* the exact :func:`~repro.storage.persist._encode_run` bytes of one fixed
  KiWi file, fresh and after a secondary range delete.

Regenerate only when a change is *meant* to alter these outputs::

    PYTHONPATH=src python tests/test_fig6_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from repro.bench.experiments import (
    delete_sweep,
    fig6a_space_amplification,
    fig6b_compaction_count,
    fig6c_bytes_written,
    fig6d_read_throughput,
)
from repro.bench.harness import ExperimentScale
from repro.core.config import lethe_config
from repro.core.stats import Statistics
from repro.kiwi.layout import build_kiwi_file
from repro.storage.disk import SimulatedDisk
from repro.storage.entry import Entry, EntryKind, RangeTombstone
from repro.storage.persist import _decode_run, _encode_run

FIXTURE = Path(__file__).with_name("data") / "write_path_golden.json"

GOLDEN_SCALE = ExperimentScale(num_inserts=1500, num_point_lookups=200)
_FIGURES = (
    ("fig6a", fig6a_space_amplification),
    ("fig6b", fig6b_compaction_count),
    ("fig6c", fig6c_bytes_written),
    ("fig6d", fig6d_read_throughput),
)
# The SRD applied to the fixed file: drops some pages whole and cuts
# others, so the second blob records ragged surviving pages.
_SRD = (0, 12)


def _digest(series: dict) -> str:
    return hashlib.sha256(json.dumps(series, sort_keys=True).encode()).hexdigest()


def figure_outputs() -> dict:
    sweep = delete_sweep(GOLDEN_SCALE)
    digests = {name: _digest(figure(sweep=sweep).series) for name, figure in _FIGURES}
    fractions = sorted(next(iter(sweep.values())))
    hashes = {
        engine: [runs[f].engine.stats.bloom_hash_computations for f in fractions]
        for engine, runs in sweep.items()
    }
    return {"series_sha256": digests, "bloom_hash_computations": hashes}


class _IntKey(int):
    """An ``int`` subclass key: the durable codec accepts it as an int."""


def fixed_entries() -> list[Entry]:
    """30 entries covering every durable record shape, sorted on ``S``."""
    entries = []
    for key in range(30):
        seqnum = 1000 + (key * 17) % 53
        write_time = key / 4
        if key % 7 == 3:
            entries.append(
                Entry(key, seqnum, EntryKind.TOMBSTONE, size=11, write_time=write_time)
            )
            continue
        if key % 3 == 0:
            value = f"v{key}".encode()
        elif key % 3 == 1:
            value = {"k": key, "tags": ("a", key % 4)}
        else:
            value = None
        entries.append(
            Entry(
                _IntKey(key) if key == 13 else key,
                seqnum,
                EntryKind.PUT,
                value=value,
                delete_key=None if key % 5 == 0 else (key * 11) % 37,
                size=100 + key,
                write_time=write_time,
            )
        )
    return entries


def fixed_kiwi_file():
    config = lethe_config(
        1e9, delete_tile_pages=4, buffer_pages=4, page_entries=4,
        file_pages=8, size_ratio=4,
    )
    stats = Statistics()
    rts = [RangeTombstone(start=100, end=120, seqnum=2000, size=3, write_time=2.5)]
    kiwi = build_kiwi_file(
        fixed_entries(), rts, config, SimulatedDisk(stats), stats, now=3.0, level=2
    )
    kiwi.meta.file_number = 17
    return kiwi


def run_blobs() -> dict[str, str]:
    kiwi = fixed_kiwi_file()
    fresh = _encode_run(kiwi).hex()
    kiwi.apply_secondary_delete(*_SRD)
    return {"fresh": fresh, "after_srd": _encode_run(kiwi).hex()}


def _load() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fig6_series_and_hash_counts_match_golden():
    golden = _load()
    assert figure_outputs() == {
        "series_sha256": golden["series_sha256"],
        "bloom_hash_computations": golden["bloom_hash_computations"],
    }


def test_run_blob_bytes_match_golden():
    assert run_blobs() == _load()["run_blobs"]


def _page_shape(entries):
    return [
        (e.key, e.seqnum, e.kind, e.value, e.delete_key, e.size, e.write_time)
        for e in entries
    ]


def test_golden_run_blobs_still_recover():
    """Blobs written before the encoder rewrite decode to the same pages."""
    blobs = _load()["run_blobs"]
    kiwi = fixed_kiwi_file()
    for label in ("fresh", "after_srd"):
        if label == "after_srd":
            kiwi.apply_secondary_delete(*_SRD)
        recovered = _decode_run(bytes.fromhex(blobs[label]))
        assert recovered.layout == "kiwi"
        assert recovered.meta["file_number"] == 17
        assert [(lo, hi) for lo, hi, _ in recovered.tiles] == [
            (t.min_key, t.max_key) for t in kiwi.tiles
        ]
        assert [
            [_page_shape(page) for page in pages] for _, _, pages in recovered.tiles
        ] == [[_page_shape(page) for page in t.pages] for t in kiwi.tiles]
        assert recovered.range_tombstones == list(kiwi.range_tombstones)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    FIXTURE.parent.mkdir(exist_ok=True)
    golden = {**figure_outputs(), "run_blobs": run_blobs()}
    FIXTURE.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
