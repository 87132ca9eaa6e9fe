"""Job times at a fixed core speed, for a benchmark on a shared machine.

On a shared virtual machine the speed of a core swings by up to a half
over a few seconds, while the same code runs: the other threads of the
physical core and the host's load change under it.  Wall time also counts
the moments the hypervisor gives the core away; process CPU time leaves
those out but still runs slower or faster with the core.

So a SpeedClock keeps timing a fixed piece of reference work (reference(),
about 1 ms) while the benchmark runs: every INTERVAL_S of process CPU time
a SIGPROF handler runs it once.  Times are the main thread's CPU time
(time.thread_time), which is fine-grained; the process CPU clock is not,
as it moves only at scheduler ticks while an ITIMER_PROF timer runs.  The
clock counts each stretch of CPU time between two samples at the speed the
last samples showed: a stretch of t CPU seconds, while the reference took
r, counts as t * REFERENCE_S / r.  The samples themselves are left out of
the count.  A reading of the clock is thus the CPU time the work so far
would have taken on a core that does the reference work in REFERENCE_S,
whatever the core did meanwhile.

The reference work is pure Python of the same kind as the library's
(fractions, tuples, a dict), so it slows down with the core as the library
does.  The library runs in the main thread (workers=1).
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# The speed the times are given at: the reference work takes this long.
# About its CPU time on the 2-vCPU Xeon VM the benchmark was written on.
REFERENCE_S = 0.001
INTERVAL_S = 0.025
# The speed of a stretch is the median of the last few samples, so that
# one sample disturbed by an interrupt does not count.
WINDOW = 3


def reference() -> list:
    """Fixed pure-Python work like the library's: fractions, tuples, a dict."""
    out = []
    for rep in range(12):
        acc = Fraction(rep)
        table = {}
        for i in range(1, 25):
            acc += Fraction(i % 7 + 1, i * i + 1)
            table[tuple((i * j) % 11 for j in range(8))] = acc.numerator % 101
        out.append((len(table), acc))
    return out


def time_reference() -> float:
    start = time.thread_time()
    reference()
    return time.thread_time() - start


class SpeedClock:
    """Process CPU time scaled to the reference speed; see the module doc."""

    def __init__(self):
        self.samples: list[float] = [time_reference() for _ in range(WINDOW)]
        self.factor = REFERENCE_S / statistics.median(self.samples)
        self.total = 0.0
        self.mark = time.thread_time()
        self.generation = 0
        self._busy = False
        self._previous = None

    def start(self) -> None:
        self.mark = time.thread_time()
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a signal while sampling: the sample goes on
            return
        self._busy = True
        try:
            now = time.thread_time()
            self.total += (now - self.mark) * self.factor
            self.samples.append(time_reference())
            self.factor = REFERENCE_S / statistics.median(self.samples[-WINDOW:])
            self.mark = time.thread_time()
            self.generation += 1
        finally:
            self._busy = False

    def read(self) -> float:
        while True:
            generation = self.generation
            value = self.total + (time.thread_time() - self.mark) * self.factor
            if generation == self.generation:
                return value
