"""The machine's pace, measured while the benchmark runs.

On a shared VM the same computation runs up to a third faster or slower
from one minute to the next, and the whole process slows together.  So
while a round runs, a SIGALRM timer interrupts it every ``INTERVAL``
seconds and times one *slice*: fixed work written here, sharing no code
with qtrin.  About 70 % of a slice is interpreted work of the same kind as
qtrin's hot loop (products of dicts keyed by ``Fraction`` exponents) and
30 % is big-integer arithmetic in C.  The VM's swings move interpreted
code about twice as much as C arithmetic, and qtrin's own time moves in
between: of the mixes tried, this one tracked it best (see README.md).

A timing measured over the same stretch is reported at the reference
pace: multiplied by ``REFERENCE_SLICE_S / median(slice times)``.  The
time spent in slices is taken out of every timing first.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

INTERVAL = 0.25            # seconds between slices while a round runs
# Median slice time on the reference VM (shared 2-vCPU Intel Xeon,
# CPython 3.11.7), so that times read as seconds there.
REFERENCE_SLICE_S = 0.011

_A = {Fraction(3 * i, 2): (-1) ** i * (i + 1) for i in range(14)}
_B = {Fraction(i): 2 * i + 1 for i in range(10)} | {Fraction(2 * i + 1, 3): i + 2 for i in range(6)}
_X, _Y = 7 ** 12000, 11 ** 9000  # about 34,000 and 31,000 bits


def _product(a: dict, b: dict) -> dict:
    acc: dict[Fraction, int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            s = acc.get(e, 0) + ca * cb
            if s:
                acc[e] = s
            else:
                acc.pop(e, None)
    return acc


def one_slice() -> float:
    """Seconds taken by one slice of fixed work."""
    t0 = time.perf_counter()
    for _ in range(7):
        _product(_A, _B)
    (_X * _Y) % (_Y + 12345)
    return time.perf_counter() - t0


def factor(slices: list[float]) -> float:
    """Multiplier that takes a time measured at the pace of ``slices``
    to the reference pace."""
    return REFERENCE_SLICE_S / statistics.median(slices)


class Sampler:
    """Times one slice on entry and then one every INTERVAL seconds until
    exit (main thread only).  ``slices`` holds the slice times, ``spent``
    the seconds taken by the slices after entry, to be left out of any
    timing that spans them.  An inactive sampler times nothing."""

    def __init__(self, active: bool = True) -> None:
        self.active = active
        self.slices: list[float] = []
        self.spent = 0.0
        self._old = None

    def _tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        self.slices.append(one_slice())
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        if self.active:
            self._tick()
            self.spent = 0.0
            self._old = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._old)
