"""Wall-clock timing corrected for how fast the machine runs at the moment.

On a shared virtual machine the same Python code runs up to twice as slow
for stretches of several seconds while neighbours are busy. While a block of
work is timed, a fixed probe of pure-Python work, the kind the program does,
runs every PROBE_EVERY_S from a SIGALRM handler, and once next to the block
when the block is too short to be sampled. The block's reference time is its
wall time, less the probes' own time, scaled by PROBE_REFERENCE_S over the
mean probe time, to the power PROBE_EXPONENT. A block that takes 1 s while
the probe runs at PROBE_REFERENCE_S counts 1 s. The end-to-end metrics report reference
seconds; raw wall seconds go to the record line.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Any, Callable

PROBE_ITERATIONS = 4_000
# The probe's time on an uncontended vCPU of the Xeon (family 6, model 207)
# KVM guest the benchmark was tuned on; contended, it takes up to twice as long.
PROBE_REFERENCE_S = 0.001
PROBE_EVERY_S = 0.1
# The workloads slow down less than the probe when the machine is contended:
# over ten-seed runs their time grew as (probe time) to the power 0.76
# (infer_large) to 0.86 (experiment, brute_force), so the correction is
# damped to that power.
PROBE_EXPONENT = 0.8
# A probe younger than this still describes the machine's current speed.
PROBE_MAX_AGE_S = 0.05


def probe() -> float:
    """Seconds one fixed batch of dict, float and list work takes now."""
    start = time.perf_counter()
    total = 0.0
    table: dict[int, int] = {}
    items = []
    for i in range(PROBE_ITERATIONS):
        x = (i * 0.618) % 1.0
        total += x * x
        key = i & 1023
        table[key] = table.get(key, 0) + 1
        if i % 64 == 0:
            items.append((x, key))
    items.sort()
    return time.perf_counter() - start


class Clock:
    """Times blocks of work in wall and reference seconds and keeps totals.

    Blocks run on the main thread; the sampling timer is armed only while a
    block runs and is always disarmed afterwards.
    """

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.ref_s = 0.0
        self._last_probe_s = 0.0
        self._last_probe_at = float("-inf")
        self._samples: list[float] = []

    def _probe_now(self) -> float:
        seconds = probe()
        self._last_probe_s, self._last_probe_at = seconds, time.perf_counter()
        return seconds

    def _on_alarm(self, signum, frame) -> None:
        self._samples.append(self._probe_now())

    def time(self, fn: Callable[..., Any], *args, **kwargs) -> tuple[Any, float]:
        """Run fn; returns its result and its time in reference seconds."""
        if time.perf_counter() - self._last_probe_at > PROBE_MAX_AGE_S:
            self._probe_now()
        before = self._last_probe_s
        self._samples = []
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            wall = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        samples = self._samples
        wall -= sum(samples)
        if not samples:
            samples = [before, self._probe_now()] if wall > PROBE_MAX_AGE_S else [before]
        ref = wall * (PROBE_REFERENCE_S / statistics.fmean(samples)) ** PROBE_EXPONENT
        self.wall_s += wall
        self.ref_s += ref
        return result, ref
