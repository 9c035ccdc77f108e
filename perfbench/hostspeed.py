"""A fixed reference routine that tells how fast the host runs right now.

The benchmark's host is shared: the same pass of pure-Python work reads
up to about 60% slower for seconds to minutes at a time while its CPU
time equals its wall time.  Each child therefore times :func:`reference`
(standard-library ``Fraction`` polynomial products and dict updates, the
same kind of work grassq does, but no grassq code) right after its
set-up, and every ``INTERVAL`` seconds while its operations run, from a
timer signal (:class:`Sampler`).  ``run.py`` scales each measured time by
``REF_S`` over the mean reference time taken during it, so a reported
time reads as seconds at the host's usual speed.  A change to
grassq cannot move the reference; a change in the host's speed moves
both alike.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

ROUNDS = 16
# The reference's usual time, in seconds, on the shared 2-vCPU Intel Xeon
# virtual machine the baselines in README.md were taken on.
REF_S = 0.005
# Reference timings taken right after set-up.
AFTER_SETUP = 20
# Seconds of wall time between two reference timings while operations run.
INTERVAL = 0.25


def reference() -> float:
    """Seconds one run of the fixed routine takes now.

    The cyclic collector is off while it runs, so a large heap left by
    the measured work cannot slow the reference and flatter that work.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _routine()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Times :func:`reference` every ``INTERVAL`` seconds inside a ``with``
    block; ``spent`` is the time the timings took, which the caller takes
    off the time of the work they interrupted."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(reference())
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _routine() -> dict:
    # Products of degree-6 polynomials over Q, reduced modulo
    # x^7 - x - 1/2, with coefficients kept small, keyed into a dict.
    a = [Fraction(i + 1, 2 * i + 3) for i in range(7)]
    acc: dict = {}
    for r in range(ROUNDS):
        b = [Fraction((r * j) % 5 + 1, j + 2) for j in range(7)]
        p = [Fraction(0)] * 13
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                p[i + j] += x * y
        for d in range(12, 6, -1):
            c, p[d] = p[d], Fraction(0)
            p[d - 6] += c
            p[d - 7] += c / 2
        a = [x if x.denominator < 10**6 else
             Fraction(x.numerator % 101 + 1, x.denominator % 103 + 1)
             for x in p[:7]]
        key = (r % 17, tuple(x.numerator % 7 for x in a))
        acc[key] = acc.get(key, 0) + a[0]
    return acc
