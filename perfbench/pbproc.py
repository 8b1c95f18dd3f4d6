"""Process-level split of a phase (wall, CPU, GC pauses, peak memory) and
the calibration that scales CPU-bound timings to a reference speed.

With the interpreter lock, a phase whose wall time falls while its CPU
time does not has gained by overlapping waits (fsync, simulated device
sleeps), not by doing less work; reporting both lets a later change be
labelled accordingly.
"""

from __future__ import annotations

import bisect
import gc
import random
import resource
import sys
import time


class GCPauses:
    """Sums the wall time of every collection while installed."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.collections = 0
        self._started: float | None = None

    def _callback(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            self.seconds += time.perf_counter() - self._started
            self.collections += 1
            self._started = None

    def __enter__(self) -> "GCPauses":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *_exc) -> None:
        gc.callbacks.remove(self._callback)


class PhaseClock:
    """Wall and CPU seconds of one process over a phase."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self._wall0 = 0.0
        self._cpu0 = 0.0

    def __enter__(self) -> "PhaseClock":
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def __exit__(self, *_exc) -> None:
        self.wall_s += time.perf_counter() - self._wall0
        self.cpu_s += time.process_time() - self._cpu0


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process (or of its waited-for children)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    peak = resource.getrusage(who).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (1024 * 1024) if sys.platform == "darwin" else peak / 1024


# The calibration job's time on the 2-core machine this benchmark was
# sized on, at its usual speed. See calibrate().
CALIBRATION_REFERENCE_S = 0.016
_CALIBRATION_KEYS: list[int] = []  # filled on first use, not at import


def calibrate() -> float:
    """Seconds a fixed pure-Python job takes now: dict inserts and probes,
    a sort and binary searches, the operations a lookup is made of, with
    no engine code in it.

    The shared host this benchmark was sized on changes speed by 15-20%
    within minutes, and CPU-bound timings move with it (lookup's p50 over
    ten runs spread 0.09 to 0.27 of its median). A phase's timings are
    multiplied by :func:`speed_scale` of the job's times just before and
    just after it, so they read as seconds at the reference speed. A
    change to the engine cannot move the job; a change in machine speed
    moves both.
    """
    if not _CALIBRATION_KEYS:
        rng = random.Random(0)
        _CALIBRATION_KEYS.extend(rng.randrange(1 << 30) for _ in range(20_000))
    # With the collector on, the job's allocations would trigger full
    # collections whose cost grows with the heap the engine has built.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        table = {}
        for key in _CALIBRATION_KEYS:
            table[key] = key & 0xFF
        ordered = sorted(table)
        hits = 0
        for key in _CALIBRATION_KEYS:
            hits += bisect.bisect_left(ordered, key) & 1
            if table.get(key) == key & 0xFF:
                hits += 1
        return time.perf_counter() - started
    finally:
        if was_enabled:
            gc.enable()


def speed_scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two calibration runs into
    a time at the reference speed."""
    return CALIBRATION_REFERENCE_S / ((before + after) / 2)
