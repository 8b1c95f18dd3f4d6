"""Statistics helpers: percentiles with their support, open-loop latency.

Conventions the benchmark reports by:

* A timing is a median plus the highest percentile that still has at
  least ``MIN_TAIL`` samples beyond it, and the sample count ``n``.
* Open-loop latency runs from when a request was *due*, not from when
  the generator got round to sending it, so one stall is charged to every
  request queued behind it; how late the generator sent is reported too.
* A request that failed or was refused has no latency: it counts as
  missing any latency limit.
"""

from __future__ import annotations

import math
import statistics

MIN_TAIL = 10
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (need not be sorted)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = math.ceil(round(pct / 100.0 * len(ordered), 6))
    return ordered[min(len(ordered), max(1, rank)) - 1]


def supported_tail(n: int) -> float | None:
    """The highest candidate percentile with at least ``MIN_TAIL`` of ``n``
    samples beyond it, or ``None`` when even the median is unsupported."""
    for pct in TAIL_CANDIDATES:
        if round(n * (100.0 - pct) / 100.0, 6) >= MIN_TAIL:
            return pct
    return None


def summarize(values: list[float]) -> dict:
    """``{"n", "p50", "tail_pct", "tail"}`` for one latency sample."""
    n = len(values)
    tail_pct = supported_tail(n)
    return {
        "n": n,
        "p50": percentile(values, 50.0) if n else math.nan,
        "tail_pct": tail_pct,
        "tail": percentile(values, tail_pct) if tail_pct is not None else math.nan,
    }


def median(values: list[float]) -> float:
    return statistics.median(values)


# ----------------------------------------------------------------------
# Open loop
# ----------------------------------------------------------------------


def open_loop_latencies(
    due: list[float], done: list[float | None]
) -> list[float]:
    """Latency of each request from its due time; a failed request
    (``done is None``) is ``inf``, so it misses every limit."""
    return [
        math.inf if finished is None else finished - scheduled
        for scheduled, finished in zip(due, done)
    ]


def lateness(due: list[float], sent: list[float]) -> list[float]:
    """How late the generator sent each request (0 when on time)."""
    return [max(0.0, s - d) for d, s in zip(due, sent)]


def outstanding(due: list[float], done: list[float | None], at: float) -> int:
    """Requests due by ``at`` that had not completed by ``at``."""
    return sum(
        1
        for scheduled, finished in zip(due, done)
        if scheduled <= at and (finished is None or finished > at)
    )


def backlog_grows(
    due: list[float], done: list[float | None], start: float, end: float
) -> bool:
    """True when the queue of unfinished requests at the end of a step is
    longer than at its midpoint by more than 2% of the step's requests
    (at least 5): the server fell behind the offered rate and stayed
    behind, rather than absorbing a burst."""
    slack = max(5, int(0.02 * len(due)))
    middle = outstanding(due, done, (start + end) / 2)
    final = outstanding(due, done, end)
    return final > middle + slack


def meets_limit(latencies: list[float], limit: float, pct: float = 99.0) -> bool:
    """True when the ``pct`` percentile, with failures as ``inf``, is within
    ``limit``."""
    return bool(latencies) and percentile(latencies, pct) <= limit
