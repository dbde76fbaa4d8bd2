"""Reference-speed timing: wall time rescaled by a calibration kernel.

A shared VM's speed swings by about 30% over seconds and minutes, and a
slow phase slows every op alike, so two runs of the same code can differ
by a third in wall time.  ``SpeedMeter`` measures that speed while the
ops run.  An interval timer (``SIGALRM`` every ``PERIOD_S`` of wall time)
runs ``kernel()``, a fixed pure-Python workload that does not touch the
library, in the main thread between bytecodes, and records when it ended
and how long it took.

An interval's reference time is its wall time, less the kernel runs that
fell inside it, scaled by ``NOMINAL_S`` over the median kernel duration
near it: the time the interval would have taken at the speed at which
``kernel()`` takes ``NOMINAL_S``.  A change to the library moves the
reference time as it moves the wall time; a change in machine speed moves
the kernel too and cancels out.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

PERIOD_S = 0.02  # one kernel run per 20 ms of wall time
NOMINAL_S = 0.0005  # kernel duration that defines the reference speed
PAD_S = 0.25  # samples this close to an interval count for it
MIN_SAMPLES = 15  # otherwise widen to the nearest MIN_SAMPLES


# F_125 as F_5[x]/(x^3 + 3x + 2): x^3 and x^4 reduced to degree < 3
_P, _M = 5, 3
_RED = ((3, 2, 0), (0, 3, 2))
_ELEMENTS = tuple((i % 5, (3 * i) % 5, (7 * i + 1) % 5) for i in range(40))


def _mul(a, b):
    """Multiplication in F_125, written the way the library's fields do it."""
    conv = [0] * (2 * _M - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                conv[i + j] += x * y
    out = conv[:_M]
    for k in range(_M, 2 * _M - 1):
        c = conv[k]
        if c:
            red = _RED[k - _M]
            for t in range(_M):
                out[t] += c * red[t]
    return tuple(x % _P for x in out)


class _Series:
    """A window of coefficients that drops zeros, as a Laurent series does."""

    __slots__ = ("coeffs", "lo")

    def __init__(self, coeffs: dict, lo: int):
        cs = {e: c for e, c in coeffs.items() if any(c)}
        if cs and min(cs) < lo:
            raise ValueError("support escapes below the window")
        self.coeffs = cs
        self.lo = lo


def kernel() -> int:
    """The calibration workload: the library's kind of work, without it.

    Products in a small extension field over tuples of ints, and series
    built from them through a dict comprehension on a ``__slots__`` class:
    the shape of the library's hottest loops (``FieldCtx.mul`` and
    ``LaurentSeries``).  Its result is fixed, so its cost is too.
    """
    acc, kept = (1, 0, 0), 0
    for _ in range(3):
        row = {}
        for k, e in enumerate(_ELEMENTS):
            if any(e):
                acc = _mul(acc, e)
            row[k - 20] = acc
        kept += len(_Series(row, -20).coeffs)
    return kept + sum(acc)


class SpeedMeter:
    """Samples ``kernel()`` every ``PERIOD_S`` inside a ``with``; see the module doc."""

    def __init__(self):
        self.ends = []  # perf_counter() at the end of each kernel run
        self.durations = []
        self.spent = 0.0  # wall time spent in the handler so far
        self._previous = None

    def _tick(self, signum, frame):
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.ends.append(t1)
        self.durations.append(t1 - t0)
        self.spent += perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mark(self):
        """A point in time, for ``wall`` and ``reference`` to measure from."""
        return perf_counter(), self.spent

    def wall(self, start, end) -> float:
        """Wall time between two marks, less the kernel runs inside it."""
        return (end[0] - start[0]) - (end[1] - start[1])

    def reference(self, start, end) -> float:
        """Reference time between two marks; call once the run has ended."""
        ends = self.ends
        lo = bisect_left(ends, start[0] - PAD_S)
        hi = bisect_right(ends, end[0] + PAD_S)
        if hi - lo < MIN_SAMPLES:
            if len(ends) < MIN_SAMPLES:
                raise RuntimeError("too few speed samples: the run was too short")
            mid = (lo + hi) // 2
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(ends) - MIN_SAMPLES))
            hi = lo + MIN_SAMPLES
        speed = statistics.median(self.durations[lo:hi])
        return self.wall(start, end) * NOMINAL_S / speed
