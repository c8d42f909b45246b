"""Timing at a reference machine speed.

On the shared 2-vCPU Xeon VM the benchmark was defined on, the speed of
both vCPUs changes together, by up to 2x, in spells of a few seconds to
minutes: a fixed pure-Python loop took 18 ms to 30 ms within one minute, in
phase on both vCPUs, and busy_lanes ran at 12 to 24 simulated seconds per
second in consecutive runs. No median over one run removes that. So while a
run measures, a SIGALRM timer interrupts the benchmark process every
PERIOD_S and times one fixed burst of work on the same thread. A burst that
takes its reference time means reference speed. A span of wall time is
converted to reference seconds by subtracting the bursts inside it and
scaling by the mean speed sampled in it.

Episodes are timed with NUMPY_BURST: small numpy arrays and calls, as in
fleetsim's QP, social-force and raycast code. Sampled inside 20-simulated-
second episodes, its slowdown tracked the episodes' with a log-log slope of
1.01 (busy_lanes) and 1.03 (rooms_crowd) at a correlation of 0.97 or more;
the episode times' coefficient of variation fell from 0.22 to 0.05. A burst
of dicts, tuples and lists (PYTHON_BURST) under-reacted on rooms_crowd
(slope 1.22), and a plain integer loop more (1.5). The set-up probes time
``import fleetsim`` itself, which must not find numpy imported already, so
they use PYTHON_BURST.

The bursts are independent of fleetsim, so a faster fleetsim reads faster
and a slower one slower. clock_check.py injects slowdowns into fleetsim's
hot path: pure-Python work reads as large in reference seconds as in wall
seconds, cache eviction about a tenth smaller and garbage-collector work
about three tenths smaller, because what slows the program through the
memory system slows the bursts too. A burst never runs a garbage
collection itself, which would do the program's work inside it. The
bursts run on the benchmark's own thread and touch no program state, so
traces are unchanged; they add about 0.5 % to the raw wall time.
"""

from __future__ import annotations

import gc
import math
import signal
import time

PERIOD_S = 0.025


def _python_burst() -> float:
    start = time.perf_counter()
    table = {}
    for i in range(200):
        point = (i * 0.5, i * 0.25)
        table[i & 63] = [point, math.hypot(point[0] - 1.0, point[1] + 2.0), {"t": i}]
    return time.perf_counter() - start


def _numpy_burst() -> float:
    import numpy as np  # already imported by fleetsim when episodes run

    start = time.perf_counter()
    m = np.eye(4) * 2.0
    v = np.ones(4)
    for _ in range(25):
        x = m @ v
        np.hypot(x[0], x[1])
        np.concatenate([x, v])
    return time.perf_counter() - start


class Burst:
    """A fixed piece of work and its duration at reference speed.

    A plain class: the set-up probe imports this module before fleetsim and
    should import nothing on fleetsim's behalf.
    """

    def __init__(self, run, reference_s: float) -> None:
        self.run = run
        self.reference_s = reference_s


# On a 2-vCPU Xeon at 2.0 GHz with Python 3.11.7 the Python burst took 82 us
# to 122 us; the numpy burst took 1.25 times as long as the Python burst when
# interleaved with it, so both read speed 1 together.
PYTHON_BURST = Burst(_python_burst, 100e-6)
NUMPY_BURST = Burst(_numpy_burst, 125e-6)


class SpeedSampler:
    """Samples machine speed on a timer while active (a context manager)."""

    def __init__(self, burst: Burst) -> None:
        self.burst = burst
        # (time of the sample, burst seconds)
        self.samples: list[tuple[float, float]] = []
        # wall seconds spent sampling so far, for spans to leave out
        self.paused_s = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        at = time.perf_counter()
        # A collection the burst's allocations set off would do the
        # program's garbage work inside the burst and read as a slow machine.
        collecting = gc.isenabled()
        gc.disable()
        try:
            self.samples.append((at, self.burst.run()))
        finally:
            if collecting:
                gc.enable()
        self.paused_s += time.perf_counter() - at

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def speeds(self) -> list[float]:
        """Every sampled speed, 1 meaning reference speed."""
        return [self.burst.reference_s / d for _, d in self.samples]

    def reference_seconds(self, start: float, end: float) -> float:
        """Wall span [start, end] in seconds at reference speed."""
        inside = [d for at, d in self.samples if start <= at < end]
        if inside:
            wall = end - start - sum(inside)
        else:
            wall, inside = end - start, [self.burst.run()]
        return wall * sum(self.burst.reference_s / d for d in inside) / len(inside)
