"""The closed radical form of the Hilbert-cube threshold constant.

An independent cross-check for the isolated root of the K3_3 threshold
cubic: rational bounds by plain bisection on ``Fraction``s, sharing no code
with the Sturm isolation.
"""

from fractions import Fraction


def _sqrt_interval(value: Fraction, eps: Fraction) -> tuple[Fraction, Fraction]:
    """Rational bounds of width <= eps around sqrt(value), value >= 0."""
    if value < 0:
        raise ValueError("negative radicand")
    lo, hi = Fraction(0), max(Fraction(1), Fraction(value))
    while hi - lo > eps:
        mid = (lo + hi) / 2
        if mid * mid <= value:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _cbrt_interval(value: Fraction, eps: Fraction) -> tuple[Fraction, Fraction]:
    """Rational bounds of width <= eps around the real cube root of value."""
    if value < 0:
        lo, hi = _cbrt_interval(-value, eps)
        return -hi, -lo
    lo, hi = Fraction(0), max(Fraction(1), Fraction(value))
    while hi - lo > eps:
        mid = (lo + hi) / 2
        if mid**3 <= value:
            lo = mid
        else:
            hi = mid
    return lo, hi


def cube_radical_interval(eps: Fraction) -> tuple[Fraction, Fraction]:
    """Bounds of width <= eps around the closed form of the K3_3 constant:

        (2/21) * (18 + cbrt(6*(1875 - 7*sqrt(4233)))
                     + cbrt(6*(1875 + 7*sqrt(4233)))).

    Used to certify that the radical expression names the same number as
    the isolated cubic root.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    step = eps / 16
    s_lo, s_hi = _sqrt_interval(Fraction(4233), step)
    first_lo, _ = _cbrt_interval(6 * (1875 - 7 * s_hi), step)
    _, first_hi = _cbrt_interval(6 * (1875 - 7 * s_lo), step)
    second_lo, _ = _cbrt_interval(6 * (1875 + 7 * s_lo), step)
    _, second_hi = _cbrt_interval(6 * (1875 + 7 * s_hi), step)
    lo = Fraction(2, 21) * (18 + first_lo + second_lo)
    hi = Fraction(2, 21) * (18 + first_hi + second_hi)
    return lo, hi
