"""BENCHMARK.json names exactly the metrics the benchmark prints."""

import json
from pathlib import Path

import run
from pblayers import PER_LAYER

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_end_to_end_metrics_match_the_runner():
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert declared == run.E2E_UNITS
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])


def test_per_layer_metrics_match_the_ledger():
    declared = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert declared == list(PER_LAYER)


def test_workloads_match_the_runner():
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOADS
