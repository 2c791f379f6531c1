"""Host speed, sampled with a fixed reference loop around and inside jobs.

Machine speed on a shared host drifts by tens of percent within
seconds, because other tenants load the same cores, and the drift is
invisible to the process (its CPU time grows as fast as wall time).  So
the client times a fixed pure-Python reference loop before and after
every job and, for untraced jobs, every `SAMPLE_INTERVAL` seconds
during the job from a SIGALRM handler.  A stretch of work between two
samples ran under the mean of their slowdowns, a sample's time divided
by the loop's time on the seed machine when it was quiet.  Job times
are reported divided by that slowdown, stretch by stretch: in seconds
at the seed machine's quiet speed.  The handler's own time is left out
of the job's time.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

_perf = time.perf_counter

# Time of reference_loop() on the seed machine when it was least loaded
# (2-core x86-64 container, Python 3.11).
REFERENCE_SECONDS = 0.004
REFERENCE_ITERATIONS = 20_000
# Samples inside a job: a quarter of the loop every 25 ms, about 5% extra.
SAMPLE_INTERVAL = 0.025
SAMPLE_ITERATIONS = REFERENCE_ITERATIONS // 4


def reference_loop(n: int = REFERENCE_ITERATIONS) -> int:
    """Fixed interpreter-bound work: dict stores and loads, integer ops.
    It lives here, so that no change to ppt changes it."""
    acc = 0
    table: dict[int, int] = {}
    for i in range(n):
        table[i & 63] = (acc >> 3) ^ i
        acc = (acc + table.get(i & 31, 0)) & 0xFFFF
    return acc


def time_reference(n: int = REFERENCE_ITERATIONS) -> float:
    """Time of the reference loop, scaled to REFERENCE_ITERATIONS."""
    start = _perf()
    reference_loop(n)
    return (_perf() - start) * REFERENCE_ITERATIONS / n


def slowdown(before: float, after: float) -> float:
    """Slowdown of work done between two reference-loop timings."""
    return (before + after) / 2 / REFERENCE_SECONDS


class JobTiming:
    seconds = 0.0  # wall time, sampling excluded
    scaled_seconds = 0.0  # the same work at the seed machine's quiet speed


class SpeedMeter:
    """Times jobs and the host slowdown they ran under.

    With `sample=False` only the samples between jobs are taken, which
    keeps signal handlers out of traced spans.
    """

    def __init__(self, sample: bool = True):
        self._sample = sample
        self._previous = time_reference()

    @contextmanager
    def job(self):
        timing = JobTiming()
        stretches: list[tuple[float, float]] = []  # (seconds, sample after)

        def take_sample(signum, frame):
            nonlocal mark
            end = _perf()
            stretches.append((end - mark, time_reference(SAMPLE_ITERATIONS)))
            mark = _perf()

        mark = _perf()
        if self._sample:
            previous_handler = signal.signal(signal.SIGALRM, take_sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        try:
            yield timing
        finally:
            if self._sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous_handler)
            end = _perf()
            stretches.append((end - mark, time_reference()))
            samples = [self._previous] + [after for _, after in stretches]
            timing.seconds = sum(seconds for seconds, _ in stretches)
            timing.scaled_seconds = sum(
                seconds / slowdown(samples[i], samples[i + 1])
                for i, (seconds, _) in enumerate(stretches))
            self._previous = samples[-1]
