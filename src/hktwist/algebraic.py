"""Certified real-root isolation and exact algebraic real numbers.

Roots are located with Sturm's theorem: for square-free p, the number of
real roots in (a, b] is V(a) - V(b), where V(x) counts sign changes along
the Sturm chain evaluated at x.  Each isolated root becomes an
:class:`AlgebraicReal` — a square-free integer polynomial plus a rational
isolating interval — on which comparison, squaring, rescaling and decimal
rendering are all exact.  No floating point is involved anywhere.

Rational roots are recognized and snapped to exact points by the rational
root theorem: the isolating polynomial is primitive with integer
coefficients, so every rational root is m/L with L = |leading coefficient|.
A copy of the isolating interval is bisected until it is narrower than 1/L;
it then holds at most one such candidate, and a single evaluation decides.
The test is exact for every denominator.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .exact import DEFAULT_SIG_DIGITS, UniPoly, decimal_str, format_rational


# -- Sturm machinery ------------------------------------------------------


def sturm_chain(poly: UniPoly) -> list[UniPoly]:
    """Sturm chain of a square-free polynomial.

    Each remainder is rescaled by a positive rational to keep coefficients
    small; positive scaling preserves all sign information.
    """
    chain = [poly, poly.derivative()]
    while not chain[-1].is_zero and chain[-1].degree >= 1:
        rem = -(chain[-2] % chain[-1])
        if not rem.is_zero:
            rem = _positive_rescale(rem)
        chain.append(rem)
    if chain[-1].is_zero:
        chain.pop()
    return chain


def _positive_rescale(poly: UniPoly) -> UniPoly:
    sign = -1 if poly.leading < 0 else 1
    scaled = poly.primitive()
    if sign < 0:
        scaled = -scaled
    return scaled


def _sign_variations(values: Iterable[Fraction]) -> int:
    count = 0
    prev = 0
    for v in values:
        if v == 0:
            continue
        s = 1 if v > 0 else -1
        if prev and s != prev:
            count += 1
        prev = s
    return count


def count_roots(chain: Sequence[UniPoly], lo: Fraction, hi: Fraction) -> int:
    """Number of roots in the half-open interval (lo, hi]."""
    if lo >= hi:
        return 0
    va = _sign_variations(p(lo) for p in chain)
    vb = _sign_variations(p(hi) for p in chain)
    return va - vb


def cauchy_bound(poly: UniPoly) -> Fraction:
    """B with every real root of poly in [-B, B]."""
    lead = abs(poly.leading)
    peak = max(abs(c) for c in poly.coeffs[:-1]) if poly.degree >= 1 else Fraction(0)
    return 1 + peak / lead


def simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """The rational with smallest denominator in the open interval (lo, hi).

    Standard continued-fraction walk (Stern-Brocot).  Among rationals with
    the minimal denominator it returns the one with the smallest numerator
    magnitude.  Root isolation does not use it: rational roots are found by
    the rational root theorem (see the module docstring).
    """
    if not lo < hi:
        raise ValueError("empty interval")
    if lo < 0 < hi:
        return Fraction(0)
    if hi <= 0:
        return -simplest_between(-hi, -lo)
    # Now 0 <= lo < hi.
    floor_lo = lo.numerator // lo.denominator
    if floor_lo + 1 < hi:
        return Fraction(floor_lo + 1)
    frac_lo = lo - floor_lo
    frac_hi = hi - floor_lo
    if frac_lo == 0:
        # Interval is (n, n + frac_hi) with frac_hi <= 1: the simplest
        # member is n + 1/q for the least q with 1/q < frac_hi.
        inv = 1 / frac_hi
        q = inv.numerator // inv.denominator + 1
        return floor_lo + Fraction(1, q)
    inner = simplest_between(1 / frac_hi, 1 / frac_lo)
    return floor_lo + 1 / inner


class AlgebraicReal:
    """An exact real algebraic number.

    Represented as a square-free primitive integer polynomial together with
    a rational interval containing exactly one of its roots.  ``lo == hi``
    marks an exact rational value.  For a non-point interval the invariant
    poly(lo) * poly(hi) < 0 holds, so bisection refinement is sign-driven.

    Instances are immutable; refinement returns new instances.
    """

    __slots__ = ("poly", "lo", "hi")

    def __init__(self, poly: UniPoly, lo: Fraction, hi: Fraction):
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError("interval endpoints out of order")
        if lo == hi:
            if poly(lo) != 0:
                raise ValueError("point interval is not a root")
        elif poly(lo) * poly(hi) >= 0:
            raise ValueError("interval endpoints must straddle the root")
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraicReal is immutable")

    @classmethod
    def from_rational(cls, value) -> "AlgebraicReal":
        value = Fraction(value)
        poly = UniPoly((-value, 1)).primitive()
        return cls(poly, value, value)

    # -- structure ------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.lo == self.hi

    def rational_value(self) -> Fraction:
        if not self.is_rational:
            raise ValueError("not an exact rational")
        return self.lo

    def __repr__(self) -> str:
        return f"AlgebraicReal({self.poly!r}, {self.lo!r}, {self.hi!r})"

    def __str__(self) -> str:
        if self.is_rational:
            return format_rational(self.lo)
        return f"{self.decimal()} (root of {self.poly})"

    # -- refinement -------------------------------------------------------

    def _bisect(self) -> "AlgebraicReal":
        mid = (self.lo + self.hi) / 2
        value = self.poly(mid)
        if value == 0:
            return AlgebraicReal(self.poly, mid, mid)
        if self.poly(self.lo) * value < 0:
            return AlgebraicReal(self.poly, self.lo, mid)
        return AlgebraicReal(self.poly, mid, self.hi)

    def refine_to(self, width: Fraction) -> "AlgebraicReal":
        """Shrink the isolating interval to at most ``width``."""
        width = Fraction(width)
        if width <= 0:
            raise ValueError("width must be positive")
        current = self
        while current.hi - current.lo > width:
            current = current._bisect()
        return current

    # -- rendering ----------------------------------------------------------

    def decimal(self, sig_digits: int = DEFAULT_SIG_DIGITS) -> str:
        """Decimal string, correct to ``sig_digits`` significant digits.

        Refines until both interval endpoints round to the same string, so
        the result is certified rather than estimated.
        """
        return self._decimal_refined(sig_digits)[0]

    def _decimal_refined(self, sig_digits: int) -> tuple[str, "AlgebraicReal"]:
        """The certified decimal plus the refinement that certified it."""
        if self.is_rational:
            return decimal_str(self.lo, sig_digits), self
        current = self
        while True:
            a = decimal_str(current.lo, sig_digits)
            b = decimal_str(current.hi, sig_digits)
            if a == b:
                return a, current
            current = current._bisect()
            if current.is_rational:
                return decimal_str(current.lo, sig_digits), current

    def to_json(self, sig_digits: int = DEFAULT_SIG_DIGITS) -> dict:
        rendered, refined = self._decimal_refined(sig_digits)
        return {
            "poly": self.poly.to_json(),
            "interval": [format_rational(refined.lo), format_rational(refined.hi)],
            "decimal": rendered,
        }

    # -- exact comparisons ---------------------------------------------------

    def sign(self) -> int:
        if self.is_rational:
            v = self.lo
            return (v > 0) - (v < 0)
        current = self
        while current.lo < 0 < current.hi:
            if current.poly(0) == 0:
                return 0
            current = current._bisect()
            if current.is_rational:
                v = current.lo
                return (v > 0) - (v < 0)
        return 1 if current.lo >= 0 else -1

    def _compare_rational(self, other: Fraction) -> int:
        if self.is_rational:
            v = self.lo
            return (v > other) - (v < other)
        if self.poly(other) == 0 and self.lo < other < self.hi:
            return 0
        current = self
        while current.lo < other < current.hi:
            current = current._bisect()
            if current.is_rational:
                v = current.lo
                return (v > other) - (v < other)
        if current.hi <= other:
            return -1
        return 1

    def compare(self, other) -> int:
        """-1, 0, or 1; exact for rationals and other AlgebraicReals."""
        if isinstance(other, (int, Fraction)):
            return self._compare_rational(Fraction(other))
        if not isinstance(other, AlgebraicReal):
            raise TypeError(f"cannot compare AlgebraicReal with {type(other).__name__}")
        if other.is_rational:
            return self._compare_rational(other.lo)
        if self.is_rational:
            return -other._compare_rational(self.lo)
        # Equal values must be a shared root of gcd(p, q); detect it once,
        # otherwise the intervals separate after finitely many bisections.
        common = self.poly.gcd(other.poly)
        a, b = self, other
        while True:
            lo = max(a.lo, b.lo)
            hi = min(a.hi, b.hi)
            if lo >= hi:
                return -1 if a.hi <= b.lo else 1
            if common.degree >= 1:
                chain = sturm_chain(common.squarefree_part())
                if count_roots(chain, lo, hi) == 1:
                    # One common root inside both isolating intervals: that
                    # root is the unique root of either poly there, so a == b.
                    return 0
                common = UniPoly.zero()  # overlap holds no shared root; drop the test
            a = a._bisect()
            b = b._bisect()
            if a.is_rational:
                return -b._compare_rational(a.lo)
            if b.is_rational:
                return a._compare_rational(b.lo)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, AlgebraicReal)):
            return self.compare(other) == 0
        return NotImplemented

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def __hash__(self):
        raise TypeError("AlgebraicReal is unhashable; compare explicitly")

    def is_root_of(self, poly: UniPoly) -> bool:
        """Exact membership test: does ``poly`` vanish at this number?"""
        if self.is_rational:
            return poly(self.lo) == 0
        common = self.poly.gcd(poly)
        if common.degree < 1:
            return False
        chain = sturm_chain(common.squarefree_part())
        return count_roots(chain, self.lo, self.hi) == 1

    # -- exact algebra ----------------------------------------------------------

    def square(self) -> "AlgebraicReal":
        """The exact square of this number."""
        if self.is_rational:
            return AlgebraicReal.from_rational(self.lo * self.lo)
        # If x is a root of p(t) = E(t^2) + t*O(t^2), then u = x^2 is a root
        # of E(u)^2 - u*O(u)^2.
        even = UniPoly(self.poly.coeffs[0::2])
        odd = UniPoly(self.poly.coeffs[1::2])
        target = (even * even - UniPoly.variable() * odd * odd).squarefree_part().primitive()
        current = self
        while current.lo < 0 < current.hi:
            if current.poly(0) == 0:
                return AlgebraicReal.from_rational(0)
            current = current._bisect()
            if current.is_rational:
                return AlgebraicReal.from_rational(current.lo**2)
        # Squaring can fold other roots of p near the square of this one, so
        # a candidate interval may capture several roots of ``target``.
        # Shrink until the candidate meets exactly one isolated root: the
        # square itself always stays strictly inside the candidate, so that
        # surviving root is it.
        folded = isolate_real_roots(target)
        while True:
            lo2, hi2 = current._square_interval()
            matches = [r for r in folded if _overlaps_open(r, lo2, hi2)]
            if len(matches) == 1:
                return matches[0]
            current = current._bisect()
            if current.is_rational:
                return AlgebraicReal.from_rational(current.lo**2)

    def _square_interval(self) -> tuple[Fraction, Fraction]:
        a, b = self.lo, self.hi
        if a >= 0:
            return a * a, b * b
        return b * b, a * a

    def scale(self, factor) -> "AlgebraicReal":
        """The exact product factor * self, for a nonzero rational factor."""
        factor = Fraction(factor)
        if factor == 0:
            raise ValueError("scale factor must be nonzero")
        if self.is_rational:
            return AlgebraicReal.from_rational(self.lo * factor)
        # x root of p(t)  =>  factor*x root of p(t/factor); scaling is a
        # bijection on roots, so the scaled interval is still isolating.
        scaled = UniPoly(
            c / factor**i for i, c in enumerate(self.poly.coeffs)
        ).primitive()
        if factor > 0:
            return AlgebraicReal(scaled, self.lo * factor, self.hi * factor)
        return AlgebraicReal(scaled, self.hi * factor, self.lo * factor)


def _overlaps_open(root: AlgebraicReal, lo: Fraction, hi: Fraction) -> bool:
    """Does the root's certified range meet the open interval (lo, hi)?"""
    if root.is_rational:
        return lo < root.lo < hi
    return max(root.lo, lo) < min(root.hi, hi)


# -- isolation -----------------------------------------------------------------


def isolate_real_roots(poly: UniPoly) -> list[AlgebraicReal]:
    """All real roots of ``poly``, ascending, as exact AlgebraicReals.

    Works on the square-free part, so multiplicities collapse.  Rational
    roots, whatever their denominator, come back as exact points (by the
    rational root theorem, see the module docstring); irrational roots carry
    sign-straddling isolating intervals.
    """
    if poly.is_zero:
        raise ValueError("cannot isolate roots of the zero polynomial")
    reduced = poly.squarefree_part().primitive()
    if reduced.degree < 1:
        return []
    chain = sturm_chain(reduced)
    bound = cauchy_bound(reduced)
    total = count_roots(chain, -bound, bound)
    if reduced(-bound) == 0:  # pragma: no cover - Cauchy bound is strict
        raise AssertionError("root bound not strict")
    roots: list[AlgebraicReal] = []
    _split(reduced, chain, -bound, bound, total, roots)
    return roots


def _split(
    poly: UniPoly,
    chain: Sequence[UniPoly],
    lo: Fraction,
    hi: Fraction,
    count: int,
    out: list[AlgebraicReal],
) -> None:
    """Recursively bisect (lo, hi] until each piece holds one root."""
    if count == 0:
        return
    if count == 1:
        out.append(_certify_single(poly, chain, lo, hi))
        return
    mid = (lo + hi) / 2
    left = count_roots(chain, lo, mid)
    _split(poly, chain, lo, mid, left, out)
    _split(poly, chain, mid, hi, count - left, out)


def _certify_single(
    poly: UniPoly, chain: Sequence[UniPoly], lo: Fraction, hi: Fraction
) -> AlgebraicReal:
    """Turn a one-root Sturm interval (lo, hi] into an AlgebraicReal."""
    if poly(hi) == 0:
        return AlgebraicReal.from_rational(hi)
    while poly(lo) == 0:
        # lo is a root claimed by the interval to our left; walk the edge
        # inward until it clears our root's neighbourhood.
        mid = (lo + hi) / 2
        if poly(mid) == 0:
            return AlgebraicReal.from_rational(mid)
        if count_roots(chain, lo, mid) == 1:
            hi = mid
        else:
            lo = mid
    # Shrink until the endpoints straddle the root by sign.
    while poly(lo) * poly(hi) > 0:
        mid = (lo + hi) / 2
        if poly(mid) == 0:
            return AlgebraicReal.from_rational(mid)
        if count_roots(chain, lo, mid) == 1:
            hi = mid
        else:
            lo = mid
    candidate = _snap_rational(poly, lo, hi)
    if candidate is not None:
        return AlgebraicReal.from_rational(candidate)
    return AlgebraicReal(poly, lo, hi)


def _snap_rational(poly: UniPoly, lo: Fraction, hi: Fraction) -> Fraction | None:
    """The rational root of ``poly`` in (lo, hi), or None if the root is irrational.

    ``poly`` is primitive with integer coefficients, so by the rational root
    theorem every rational root is m/L with L = |leading coefficient|.  Once
    the sign-straddling interval is narrower than 1/L it holds at most one
    such point, floor(lo*L) + 1 over L, and one evaluation decides.
    """
    lead = abs(poly.leading)
    lo_sign = poly(lo) > 0
    while (hi - lo) * lead >= 1:
        mid = (lo + hi) / 2
        value = poly(mid)
        if value == 0:
            return mid
        if (value > 0) == lo_sign:
            lo = mid
        else:
            hi = mid
    candidate = Fraction(math.floor(lo * lead) + 1, lead)
    if candidate < hi and poly(candidate) == 0:
        return candidate
    return None


def largest_real_root(poly: UniPoly) -> AlgebraicReal:
    """The greatest real root of ``poly``; raises if there is none."""
    roots = isolate_real_roots(poly)
    if not roots:
        raise ValueError("polynomial has no real roots")
    return roots[-1]
