"""The benchmark's statistics helpers."""

import math

import pbstats


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert pbstats.percentile(values, 50) == 50
    assert pbstats.percentile(values, 99) == 99
    assert pbstats.percentile(list(reversed(values)), 100) == 100
    assert pbstats.percentile([7.0], 99) == 7.0


def test_reported_tail_has_ten_samples_beyond_it():
    assert pbstats.supported_tail(10_000) == 99.9
    assert pbstats.supported_tail(1_000) == 99.0
    assert pbstats.supported_tail(999) == 95.0
    assert pbstats.supported_tail(200) == 95.0
    assert pbstats.supported_tail(20) == 50.0
    assert pbstats.supported_tail(19) is None
    summary = pbstats.summarize([float(i) for i in range(1_000)])
    assert summary["n"] == 1_000 and summary["tail_pct"] == 99.0
    assert summary["tail"] == 989.0


def test_open_loop_latency_charges_a_stall_to_requests_queued_behind_it():
    # Requests due every 100 ms; the server stalls until t=1.0 and then
    # answers everything at once. Service time after sending would be
    # near zero for the queued requests; from their due time it is not.
    due = [0.0, 0.1, 0.2, 0.3]
    done = [0.05, 1.0, 1.0, 1.0]
    latencies = pbstats.open_loop_latencies(due, done)
    assert [round(x, 3) for x in latencies] == [0.05, 0.9, 0.8, 0.7]


def test_failed_request_misses_every_limit():
    due = [float(i) for i in range(200)]
    done = [d + 0.001 for d in due]
    assert pbstats.meets_limit(pbstats.open_loop_latencies(due, done), 0.01)
    done[17] = None
    latencies = pbstats.open_loop_latencies(due, done)
    assert math.isinf(latencies[17])
    assert not pbstats.meets_limit(latencies, 0.01, pct=100.0)
    # Three failures out of 200 push p99 past any finite limit.
    done[18] = done[19] = None
    assert not pbstats.meets_limit(pbstats.open_loop_latencies(due, done), 1e9)


def test_generator_lateness_is_reported_per_request():
    assert pbstats.lateness([0.0, 1.0, 2.0], [0.0, 1.25, 1.9]) == [0.0, 0.25, 0.0]


def test_backlog_growth_tells_a_burst_from_falling_behind():
    due = [i * 0.01 for i in range(1_000)]          # 100 req/s for 10 s
    keeping_up = [d + 0.2 if 300 <= i < 320 else d + 0.002 for i, d in enumerate(due)]
    assert not pbstats.backlog_grows(due, keeping_up, 0.0, 10.0)
    # Serving at 80 req/s: each request finishes later than the last.
    behind = [i * 0.0125 + 0.002 for i in range(1_000)]
    assert pbstats.backlog_grows(due, behind, 0.0, 10.0)
