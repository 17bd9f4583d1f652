"""Machine-speed samples, to rescale timings to reference seconds.

On a shared machine the same code can run at half speed for a second at
a time, on one core and not the other, and process CPU time slows down
with it.  Raw timings of a run therefore mostly measure the neighbours.
To cancel that, every measured process calls `start()`: a timer signal
every INTERVAL seconds times a fixed pure-Python loop in that process,
on the core it is running on at that moment.  `factor()` turns the
samples of a time window into the ratio REF_SECONDS / loop time, and a
raw duration times that factor is the duration at reference speed: the
speed at which the loop takes REF_SECONDS.

The loop runs twice per sample and only the second, cache-warm run is
timed.  A sample costs about 0.3 % of the process's time.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import signal
import time

#: Seconds between samples.
INTERVAL = 0.02

#: Duration of one timed loop at reference speed: its fast state on a
#: shared 2-core Intel Xeon machine under Python 3.11.
REF_SECONDS = 27e-6

_samples: list = []


class _Ratio:
    """A bare rational with gcd reduction.  Timing Python-level objects,
    big-int products and gcds tracks the package's slowdowns (Fraction
    words, float kernels, numpy tables) far better than a plain integer
    loop, which the busy state slows less."""

    __slots__ = ("n", "d")

    def __init__(self, n: int, d: int) -> None:
        g = math.gcd(n, d)
        self.n = n // g
        self.d = d // g

    def __add__(self, other: "_Ratio") -> "_Ratio":
        return _Ratio(self.n * other.d + other.n * self.d, self.d * other.d)


def _loop() -> "_Ratio":
    total = _Ratio(0, 1)
    for i in range(1, 25):
        total = total + _Ratio(1, i * 1048583)
    return total


def _sample(signum=None, frame=None) -> None:
    _loop()
    start = time.perf_counter()
    _loop()
    end = time.perf_counter()
    _samples.append((end, end - start))


def start() -> None:
    """Start sampling this process's speed until `stop()`."""
    signal.signal(signal.SIGALRM, _sample)
    _sample()
    signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)


@contextlib.contextmanager
def paused():
    """Hold the timer signal back for the block.  A signal that interrupts
    a write to a pipe can lose part of the output, so writes and reads
    of pipes go inside this."""
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})


class GuardedStream:
    """A text stream whose writes happen inside `paused()`."""

    def __init__(self, stream) -> None:
        self._stream = stream

    def write(self, text: str) -> int:
        with paused():
            count = self._stream.write(text)
            self._stream.flush()
        return count

    def __getattr__(self, name):
        return getattr(self._stream, name)


def stop() -> list:
    """Stop sampling; returns the samples as [perf_counter, loop seconds]."""
    signal.setitimer(signal.ITIMER_REAL, 0)
    return [list(s) for s in _samples]


def another_pass(begin: float, passes: int, seconds: float) -> bool:
    """Whether to start another pass of a loop that began at `begin` and
    should last about `seconds`: yes while it would end at most half a
    pass late."""
    elapsed = time.perf_counter() - begin
    return elapsed + elapsed / passes / 2 < seconds


def _median(values: list) -> float:
    # Not statistics.median: importing statistics would pull fractions and
    # decimal into the measured process before the package imports them.
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


class Speed:
    """Speed factors over time from one process's samples.

    perf_counter is CLOCK_MONOTONIC on Linux, so sample times of a child
    process compare directly with its parent's clock readings.
    """

    def __init__(self, samples: list) -> None:
        self.times = [t for t, _ in samples]
        loops = [c for _, c in samples]
        # A rolling median of five drops samples hit by an interrupt.
        self.factors = [
            REF_SECONDS / _median(loops[max(0, i - 2) : i + 3]) for i in range(len(loops))
        ]

    def factor(self, start: float, end: float) -> float:
        """Mean speed factor of the samples in [start, end], widened to
        the nearest five samples for short windows."""
        if not self.factors:
            return 1.0
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi - lo < 5:
            middle = (lo + hi) // 2
            lo = max(0, min(middle - 2, len(self.factors) - 5))
            hi = min(len(self.factors), lo + 5)
        window = self.factors[lo:hi]
        return sum(window) / len(window)

    def scaled(self, start: float, end: float) -> float:
        """Reference seconds of the raw interval [start, end]."""
        return (end - start) * self.factor(start, end)
