"""The benchmark fails, and prints no result, when the program is wrong."""

import json

import pytest

import pbload
import run
import wl_lookup
import wl_serve


def _shrink_lookup(monkeypatch):
    monkeypatch.setattr(wl_lookup, "INSERTS", 400)
    monkeypatch.setattr(wl_lookup, "QUERIES", 300)
    monkeypatch.setattr(wl_lookup, "WARMUP", 10)
    monkeypatch.setattr(wl_lookup, "BLOCK", 300)
    monkeypatch.setattr(wl_lookup, "MIN_BLOCKS", 1)
    monkeypatch.setattr(wl_lookup, "STORES", 1)


def _run_lookup(capsys) -> tuple[int, str, str]:
    code = run.main(["--workload", "lookup", "--seed", "3", "--seconds", "0"])
    out = capsys.readouterr()
    return code, out.out, out.err


def _no_result_line(stdout: str) -> bool:
    for line in stdout.splitlines():
        try:
            if "metrics" in json.loads(line):
                return False
        except ValueError:
            continue
    return True


def test_a_wrong_read_fails_the_run(monkeypatch, capsys):
    from repro.core.engine import LSMEngine

    _shrink_lookup(monkeypatch)
    real_get = LSMEngine.get
    calls = {"n": 0}

    def corrupt_get(self, key):
        calls["n"] += 1
        value = real_get(self, key)
        return "not-the-stored-value" if calls["n"] % 50 == 0 else value

    monkeypatch.setattr(LSMEngine, "get", corrupt_get)
    code, stdout, stderr = _run_lookup(capsys)
    assert code == 1
    assert "disagree with the model" in stderr
    assert _no_result_line(stdout)


def test_a_mechanism_that_did_not_run_fails_the_run(monkeypatch, capsys):
    # 400 keys settle into fewer than three levels: every read is right,
    # but the store is not the shape the workload promises to measure.
    _shrink_lookup(monkeypatch)
    code, stdout, stderr = _run_lookup(capsys)
    assert code == 1
    assert "FAILED" in stderr and "disagree" not in stderr
    assert _no_result_line(stdout)


def test_surface_oracle_rejects_a_lost_and_a_resurrected_key():
    ops, model = pbload.ingest_stream(5, 200)
    replay: dict = {}
    for op in ops:
        if op[0] == "put":
            replay[op[1]] = (op[2], op[3])
        else:
            replay.pop(op[1], None)
    assert replay == model
    good = pbload.surface(model)
    pbload.check_surface(good, model, "same")
    with pytest.raises(pbload.OracleError):
        pbload.check_surface(good[1:], model, "lost")
    with pytest.raises(pbload.OracleError):
        pbload.check_surface(sorted(good + [(-1, "ghost")]), model, "resurrected")


def test_srd_model_drops_keys_whose_live_version_is_in_the_window():
    model = {1: ("a", 5), 2: ("b", 15), 3: ("c", 9)}
    pbload.apply_srd(model, 0, 10)
    assert model == {2: ("b", 15)}


def test_scan_answers_use_the_engines_inclusive_range():
    # Consecutive keys: the key right after a window is always present,
    # so a half-open expectation would disagree with scan(lo, hi).
    inserted = list(range(1_000, 1_400))
    model = {k: (f"v{k}", k) for k in inserted if k % 7}
    queries = pbload.lookup_queries(1, inserted, model, 400)
    scans = [q for q in queries if q[0] == "scan"]
    assert scans
    for _, lo, hi, expected in scans:
        assert expected == [(k, model[k][0]) for k in sorted(model) if lo <= k <= hi]


def test_serve_answers_follow_per_key_send_order():
    the_plan = {
        "preload": [("put", 7, "p0", 0), ("put", 8, "p1", 1)],
        "requests": [
            ("get", 7), ("put", 7, "x", 0), ("get", 7), ("delete", 7),
            ("get", 7), ("get", 8),
        ],
    }
    answers, model = wl_serve.expected_answers(the_plan)
    assert answers == ["p0", None, "x", None, None, "p1"]
    assert model == {8: ("p1", 1)}


def test_serve_keys_stay_on_one_connection():
    the_plan = wl_serve.plan(11)
    per_key = {}
    for op in the_plan["requests"]:
        per_key.setdefault(op[1], set()).add(op[1] % wl_serve.CONNECTIONS)
    assert all(len(conns) == 1 for conns in per_key.values())
    assert the_plan["offsets"] == sorted(the_plan["offsets"])
