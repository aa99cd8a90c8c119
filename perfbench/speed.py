"""Machine-speed probe for scaling timings to a nominal speed.

The 2-core virtual machine this benchmark was built on shares its CPUs and
switches between a fast and a slow state for seconds at a time: a fixed
pure-Python loop timed for a minute drifted by +-15 % on a scale of tens of
seconds (IQR/median 0.16 for 0.04 s blocks, still 0.12 for 7.5 s blocks),
and raw run-to-run spreads of the workloads reached 0.25-0.5.  The slow
state slows interpreter-bound code (1.7x) more than big-integer code
(1.3x), so ``probe`` times one loop of each kind, sharing no code with
hktwist.  The benchmark probes every ``PROBE_EVERY_S`` of measured time and
multiplies each timing by NOMINAL_S / (the median of the ``WINDOW`` probes
on either side of it, about 1.5 s of measured time, which smooths the
probe's own noise): the time the operation would take where the probe takes
NOMINAL_S.  A change in hktwist moves the scaled time by the same factor as
the raw one.
"""

from __future__ import annotations

import decimal
import statistics
from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.004  # the probe's time in the fast state of that machine
PROBE_EVERY_S = 0.25
WINDOW = 3
_COEFFS = tuple(Fraction(3 * i - 7, i + 2) for i in range(7))
_BIG = Fraction(3**2100 + 1, 2**3300 + 7)


def _small_rationals() -> Fraction:
    """Horner evaluation on small fractions: interpreter-bound."""
    acc = Fraction(0)
    for k in range(1, 80):
        x = Fraction(k, 37)
        value = Fraction(0)
        for c in reversed(_COEFFS):
            value = value * x + c
        acc += value
    return acc


def _big_numbers() -> Fraction:
    """Products and 1000-digit divisions of ~3300-bit numbers."""
    x = _BIG
    with decimal.localcontext() as ctx:
        ctx.prec = 1000
        for k in range(1, 7):
            x = (x * x) / (x + k)
            x = Fraction(x.numerator % (1 << 3400), x.denominator % (1 << 3400) + 1)
            decimal.Decimal(x.numerator) / decimal.Decimal(x.denominator)
    return x


def probe(repeats: int = 3) -> float:
    """Median seconds of the two reference loops, right now."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        _small_rationals()
        _big_numbers()
        times.append(perf_counter() - start)
    return statistics.median(times)


def scaled(seconds: float, around) -> float:
    """``seconds`` at nominal speed, given the probes taken around it."""
    return seconds * NOMINAL_S / statistics.median(around)
