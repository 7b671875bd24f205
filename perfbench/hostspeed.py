"""Host speed index: how slowly the host runs a fixed loop while the benchmark measures.

On a shared host the same work takes up to about 1.7 times longer in some
minutes than in others, and those phases last longer than a run.  The
benchmark therefore times a fixed pure-Python integer loop while its passes run
and reports its times divided by the speed index: the loop's time then over
its time on a host of nominal speed.  The loop allocates nothing the garbage
collector tracks, so it times the interpreter and the processor only.
"""

from __future__ import annotations

import signal
import time

# about the median seconds of one loop on the 2-CPU VM of a shared host that the
# benchmark was tuned on; it only sets the scale of the reported times
NOMINAL_S = 1.0e-4
LOOP_ITERATIONS = 1000
# CPU seconds of this process between two loop samples while a pass runs
TICK_CPU_S = 0.05
# share of the samples dropped at each end before averaging: a sample that the
# operating system preempts reads many times its length
TRIM = 0.1


def loop_s() -> float:
    started = time.perf_counter()
    x = 0
    for i in range(LOOP_ITERATIONS):
        x += i * i % 7
    return time.perf_counter() - started


def index(samples: list[float]) -> float:
    """Speed index of the samples: their trimmed mean over NOMINAL_S."""
    ordered = sorted(samples)
    cut = int(len(ordered) * TRIM)
    kept = ordered[cut : len(ordered) - cut]
    return sum(kept) / len(kept) / NOMINAL_S


class Sampler:
    """Takes a loop sample every TICK_CPU_S of this process's CPU time (SIGPROF) while active.

    The samples run inside the measured operations and add about 0.2 % to them.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.samples.append(loop_s())

    def __enter__(self) -> "Sampler":
        # one sample before the measured stretch, so that a short one has one too
        self.samples = [loop_s()]
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, TICK_CPU_S, TICK_CPU_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)
