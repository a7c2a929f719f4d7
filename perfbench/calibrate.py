"""Machine-speed calibration sampled while the operations run.

On a shared host the same pure-Python loop can run 25% slower or more for
fractions of a second at a time, which would swamp the differences the
benchmark exists to show.  So while operations run, an interval timer
interrupts the loop every INTERVAL_S and times a fixed loop that does not
touch cubicsym and does the same kind of work as the workload (Fraction
arithmetic, or small integers for the frame search: different kinds of
work slow down differently under the same load).  Each operation's latency,
minus the time spent in those interruptions, is divided by its slowdown:
the mean of the samples taken during it relative to REFERENCE_NS, or, for an
operation too short to be sampled, the mean of the samples just before and
just after it.  Reported times are therefore in milliseconds of a machine on
which the loop takes REFERENCE_NS; the raw medians are kept in each result's
details.
"""

import signal
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter_ns

INTERVAL_S = 0.01


def fraction_loop():
    """Fixed work like cubicsym's solver: Fraction products and sums."""
    total = Fraction(0)
    for k in range(1, 120):
        total += Fraction(k, 2 * k + 1) * Fraction(3, k + 2)
    return total


_COLUMNS = ((1, 2, 0), (0, 1, -1), (2, -1, 1), (1, 0, 2))


def integer_loop():
    """Fixed work like the frame search: small-integer products over tuples."""
    total = 0
    for _ in range(64):
        for va in _COLUMNS:
            for vb in _COLUMNS:
                for vc in _COLUMNS:
                    s = va[0] * vb[1] * vc[2] + va[1] * vb[2] * vc[0] - va[2] * vb[0] * vc[1]
                    if s != 0:
                        total += 1
    return total


# about the fastest time of each loop on a 2-vCPU x86-64 VM under CPython 3.11.7
REFERENCE_NS = {fraction_loop: 530_000, integer_loop: 500_000}


class Speed:
    """Slowdown samples of one calibration loop relative to its REFERENCE_NS."""

    def __init__(self, loop=fraction_loop):
        self.loop = loop
        self.reference_ns = REFERENCE_NS[loop]
        self.times = []
        self.slowdowns = []
        self.paused_ns = 0

    def sample(self):
        start = perf_counter_ns()
        self.loop()
        end = perf_counter_ns()
        self.times.append((start + end) // 2)
        self.slowdowns.append((end - start) / self.reference_ns)
        self.paused_ns += end - start

    def _on_alarm(self, signum, frame):
        self.sample()

    @contextmanager
    def sampling(self):
        """Sample every INTERVAL_S of wall time inside the block."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            self.sample()
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def around(self, start, end):
        """Slowdown over [start, end] in perf_counter_ns time."""
        lo, hi = bisect_left(self.times, start), bisect_right(self.times, end)
        if hi > lo:
            return sum(self.slowdowns[lo:hi]) / (hi - lo)
        picked = [self.slowdowns[i] for i in (lo - 1, hi) if 0 <= i < len(self.times)]
        return sum(picked) / len(picked)
