"""A speed meter: a fixed reference loop, timed while the pipeline runs.

The benchmark may share its host with other work.  On a shared host the
speed of one core swings by a third or more over seconds, so the spread of
raw wall times between runs can exceed any useful bound.  The meter times
a short fixed loop right before and right after each pipeline iteration
and, from a timer signal, every PERIOD seconds while it runs.  The
iteration's time in units of the loop, ``wall_rel``, cancels most of the
swing; the time spent in the signal handler is taken out of the iteration's
wall time first.  The loop does not use overloadx, so ``wall_rel`` moves
only when the package's speed does.

The handler runs between two Python bytecodes of the main thread, touches
nothing but the meter, and so leaves the pipeline's outputs unchanged; a
long call into compiled code only delays the next sample.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

PERIOD = 0.025      # seconds between samples inside an iteration
LOOP_STEPS = 5000   # one sample takes about 0.5 ms on a 2.1 GHz Xeon


def _loop() -> float:
    x, total = 0.5, 0.0
    for _ in range(LOOP_STEPS):
        x = 3.7 * x * (1.0 - x)
        if x > 0.5:
            total += x
    return total


def _sample() -> float:
    t0 = perf_counter()
    _loop()
    return perf_counter() - t0


class Meter:
    """Context manager around one iteration.

    After the ``with`` block, ``samples`` holds the loop times taken before,
    during and after it, and ``spent`` the time the handler took from the
    block.
    """

    def __init__(self):
        self.samples: list = []
        self.spent = 0.0
        self._busy = False
        _sample()           # first call pays for bytecode warm-up

    def __enter__(self):
        self.spent = 0.0
        self.samples = [_sample()]
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(_sample())
        return False

    def _tick(self, signum, frame):
        if self._busy:      # a signal that arrived while sampling
            return
        self._busy = True
        t0 = perf_counter()
        self.samples.append(_sample())
        self.spent += perf_counter() - t0
        self._busy = False

    def unit(self) -> float:
        """The median loop time of the last iteration, in seconds."""
        return statistics.median(self.samples)
