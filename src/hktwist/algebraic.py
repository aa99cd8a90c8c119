"""Certified real-root isolation and exact algebraic real numbers.

Roots are located with Sturm's theorem: the number of distinct real roots
of p in (a, b], for a and b not roots of p, is V(a) - V(b), where V(x)
counts sign changes along the Sturm chain evaluated at x.  The chain is
built from integer pseudo-remainders, each reduced to its primitive part,
so building it divides no ``Fraction`` (see ``sturm_chain``).  Each isolated
root becomes an :class:`AlgebraicReal` — a square-free integer polynomial
plus a rational isolating interval — on which comparison, squaring,
rescaling and decimal rendering are all exact.  No floating point is
involved anywhere.

Rational roots are recognized and snapped to exact points by the rational
root theorem: the isolating polynomial is primitive with integer
coefficients, so every rational root is m/L with L = |leading coefficient|.
The run that certified the isolating interval keeps bisecting until it is
narrower than 1/L; it then holds at most one such candidate, and a single
evaluation decides.  The test is exact for every denominator.

One walk of the Sturm splitting tree, ``_descending_roots``, isolates the
roots greatest first, right half first, certifying each root's cell as it
reaches it.  ``isolate_real_roots`` runs it to the end and reverses;
where only the greatest root is read (gamma_p, and the z-pairing's root in
the CLI), ``largest_real_root`` stops after the first, so it follows one
branch down to the rightmost root's cell and certifies that cell alone.

Only that Sturm-count splitting halves on ``Fraction`` endpoints.  Every
loop that halves an interval after that
(certification of each isolated root with its snapping, ``refine_to``,
``decimal``, ``to_json``, ``compare`` and ``square``) runs one integer
bisection kernel, :class:`_Bisection`.  It holds the polynomial with its
denominators cleared, the endpoints as integers a < b over one positive
denominator, and the sign of p just right of a, taken as -sign p(b), which
never changes.
It descends in runs: one call advances many levels in a local loop, to a
level its caller works out beforehand.  ``refine_to`` and the 1/L test below
compute the first level narrow enough; a certified decimal skips at once
every level whose endpoints are provably too far apart to render alike.
Each level doubles a, b and the denominator, decides the sign of p at the
midpoint a + b, and keeps the half on which p changes sign.  The sign comes
from one of two passes, chosen by the level alone: up to ``TAYLOR_LEVEL`` a
homogeneous integer Horner pass, whose products grow with the level; past
it the interval's Taylor form, an integer polynomial in y on [0, 1]
that is halved by shifts and moved to the right half by additions (the
subdivision step of Descartes-method isolation: Collins and Akritas 1976,
Rouillier and Zimmermann 2004).  Both read p at the midpoint times a
positive factor, so they give the same sign.  The intervals are exactly
those of halving on ``Fraction`` endpoints, but no ``Fraction`` and no
:class:`AlgebraicReal` is built per step; an ``AlgebraicReal`` is built,
through the validating constructor, only for a returned value.  Comparison
with a rational needs no refinement at all: the root lies left of a
rational x inside its interval exactly when p(x) and p(lo) differ in sign.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .exact import DEFAULT_SIG_DIGITS, UniPoly, decimal_str, format_rational


# ``_Bisection.descend`` reaches a level above this one by a Taylor-form step,
# not a Horner pass.  Time of one descent from level 0 to 200 / 400 / 830 /
# 1660 / 3320 levels (where 60-, 120-, 250-, 500- and 1000-digit decimals
# end), with the switch here over the switch at 448, in two runs, each the
# best of 7, on a 2-core VM: for degree 2 (C(K3_2), 4 + 4*sqrt(2)) 1.00-1.01 /
# 0.92-0.94 / 0.94-0.96 / 0.97-0.99 / 0.98-0.99; for degrees 3, 4 and 6
# (C(K3_3), gamma_p(K3_2, 7/3), gamma_p(K3_3, 7/3)) 0.90-1.01 / 0.74-0.89 /
# 0.88-1.01 / 0.73-0.97 / 0.98-1.11.  With the switch at 192 the 200-level
# descents of degrees 2 to 4 took 1-4 % longer, so 60-digit decimals stay on
# the Horner pass.
TAYLOR_LEVEL = 256


# -- Sturm machinery ------------------------------------------------------


def sturm_chain(poly: UniPoly) -> list[UniPoly]:
    """Sturm chain of any nonconstant polynomial p.

    Its first two elements are p and p' as given; each later one is a
    positive multiple of -(a mod b) for the two elements a, b before it, and
    the chain ends before a zero remainder.  Its last element is gcd(p, p')
    up to a positive factor: a constant exactly when p is square-free.
    Dividing the chain by that element changes no sign variation at a point
    where it is nonzero, so the chain counts the distinct roots of p between
    two points that are not roots.

    The remainders are integer pseudo-remainders reduced to their
    primitive parts (Collins, J. ACM 14, 1967; Brown and Traub, J. ACM 18,
    1971), so no ``Fraction`` is divided: each is the primitive positive
    multiple of -(a mod b), the element that rational division gives once
    rescaled; positive scaling keeps every sign.
    """
    chain = [poly, poly.derivative()]
    if chain[-1].is_zero:
        return chain[:1]
    a, b = _cleared(chain[0]), _cleared(chain[1])
    while len(b) > 1 and (rem := _negated_remainder(a, b)):
        a, b = b, rem
        chain.append(UniPoly(b))
    return chain


def _cleared(poly: UniPoly) -> list[int]:
    """The coefficients of ``poly`` times the lcm of their denominators."""
    clear = math.lcm(*(c.denominator for c in poly.coeffs))
    return [c.numerator * (clear // c.denominator) for c in poly.coeffs]


def _negated_remainder(a: list[int], b: list[int]) -> list[int]:
    """The primitive positive multiple of -(a mod b), for integer coefficients
    (lowest degree first) with deg a >= deg b >= 1; empty if b divides a.

    Each of the delta + 1 steps, delta = deg a - deg b, multiplies the
    remainder by lc(b) and takes off the multiple of b that clears its top
    coefficient.  That leaves the pseudo-remainder lc(b)^(delta+1) * a mod b,
    exact in integers, which times -sign(lc(b))^(delta+1) is a positive
    multiple of -(a mod b); dividing by the content keeps it one.
    """
    lead = b[-1]
    low = b[:-1]
    rem = a[:]
    steps = len(a) - len(b) + 1
    for shift in range(steps - 1, -1, -1):
        top = rem.pop()
        rem = [lead * c for c in rem]
        if top:
            for i, c in enumerate(low, shift):
                rem[i] -= top * c
    while rem and not rem[-1]:
        rem.pop()
    if not rem:
        return rem
    content = math.gcd(*rem)
    if lead > 0 or not steps & 1:  # -sign(lc(b))^(delta+1) is -1
        content = -content
    return [c // content for c in rem]


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

    def refine_to(self, width: Fraction) -> "AlgebraicReal":
        """Shrink the isolating interval to at most ``width``."""
        width = Fraction(width)
        if width <= 0:
            raise ValueError("width must be positive")
        if self.hi - self.lo <= width:
            return self
        run = _Bisection(self.poly, self.lo, self.hi)
        run.descend(run.level_within(width))
        return run.result()

    # -- rendering ----------------------------------------------------------

    def decimal(self, sig_digits: int = DEFAULT_SIG_DIGITS) -> str:
        """Decimal string, correct to ``sig_digits`` significant digits.

        Refines until both interval endpoints round to the same string, so
        the result is certified rather than estimated.  Steps on which the
        endpoints cannot round alike skip the rendering (see
        ``_decimal_refined``), so the certifying interval is the first
        bisection interval whose endpoints agree, as if every step were
        rendered.
        """
        return self._decimal_refined(sig_digits)[0]

    def _decimal_refined(self, sig_digits: int) -> tuple[str, Fraction, Fraction]:
        """The certified decimal plus the interval that certified it.

        A rational v with E(v) = floor(log10 |v|) renders as D, its rounding
        to ``sig_digits`` significant digits (an integer renders exactly), so
        |v - D| <= 10^(E(v) + 1 - sig_digits) / 2.  If lo and hi render to the
        same string they round to the same D, and with M = max(|lo|, |hi|),
        E(lo), E(hi) <= floor(log10 M) and 10^floor(log10 M) <= M:

            hi - lo <= 10^(floor(log10 M) + 1 - sig_digits) <= M * 10^(1 - sig_digits).

        So while (hi - lo) * 10^(sig_digits - 1) > M the renderings must
        differ and are skipped; every skipped check would have failed.

        Over the kernel's common denominator s * 2^k that test reads
        spread > max(-a, b), with spread = (b - a) * 10^(sig_digits - 1)
        fixed.  At level k, max(-a, b) <= max(|a0|, |b0|) * 2^k <
        2^(top + k) for the level-0 ends a0, b0 and top the bit length of
        max(|a0|, |b0|), so the test holds at every level up to
        spread.bit_length() - top - 1, and the run descends there in one go.
        """
        if self.is_rational or sig_digits < 1:  # decimal_str refuses sig_digits < 1
            return decimal_str(self.lo, sig_digits), self.lo, self.hi
        run = _Bisection(self.poly, self.lo, self.hi)
        spread = (run.b - run.a) * 10 ** (sig_digits - 1)
        level = spread.bit_length() - max(abs(run.a), abs(run.b)).bit_length() - 1
        while not run.descend(level):
            if spread <= max(-run.a, run.b):
                lo, hi = run.lo, run.hi
                rendered = decimal_str(lo, sig_digits)
                if rendered == decimal_str(hi, sig_digits):
                    return rendered, lo, hi
            level = run.k + 1
        point = run.lo
        return decimal_str(point, sig_digits), point, point

    def to_json(self, sig_digits: int = DEFAULT_SIG_DIGITS) -> dict:
        rendered, lo, hi = self._decimal_refined(sig_digits)
        return {
            "poly": self.poly.to_json(),
            "interval": [format_rational(lo), format_rational(hi)],
            "decimal": rendered,
        }

    # -- exact comparisons ---------------------------------------------------

    def sign(self) -> int:
        return self._compare_rational(Fraction(0))

    def _compare_rational(self, other: Fraction) -> int:
        if self.is_rational:
            v = self.lo
            return (v > other) - (v < other)
        if other <= self.lo:
            return 1
        if other >= self.hi:
            return -1
        # The root is the only one in (lo, hi), and p changes sign across it.
        value = self.poly(other)
        if value == 0:
            return 0
        return -1 if (value > 0) != (self.poly(self.lo) > 0) else 1

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
        # Equal values are a root of gcd(p, q) inside both intervals (it is
        # then the one root of either poly there); once that is ruled out,
        # the intervals separate after finitely many bisections.
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        if lo < hi and _shares_root(self.poly, other.poly, lo, hi):
            return 0
        a = _Bisection(self.poly, self.lo, self.hi)
        b = _Bisection(other.poly, other.lo, other.hi)
        while True:
            a_lo, a_hi, b_lo, b_hi = a.lo, a.hi, b.lo, b.hi
            if max(a_lo, b_lo) >= min(a_hi, b_hi):
                return -1 if a_hi <= b_lo else 1
            if a.step():
                return -b.result()._compare_rational(a.lo)
            if b.step():
                return a.result()._compare_rational(b.lo)

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
        return _shares_root(self.poly, poly, self.lo, self.hi)

    # -- exact algebra ----------------------------------------------------------

    def square(self) -> "AlgebraicReal":
        """The exact square of this number."""
        if self.is_rational:
            return AlgebraicReal.from_rational(self.lo * self.lo)
        # If x is a root of p(t) = E(t^2) + t*O(t^2), then u = x^2 is a root
        # of E(u)^2 - u*O(u)^2 (isolate_real_roots takes its square-free part).
        even = UniPoly(self.poly.coeffs[0::2])
        odd = UniPoly(self.poly.coeffs[1::2])
        target = even * even - UniPoly.variable() * odd * odd
        run = _Bisection(self.poly, self.lo, self.hi)
        if run.a < 0 < run.b and self.poly(0) == 0:
            return AlgebraicReal.from_rational(0)
        while run.a < 0 < run.b:
            if run.step():
                return AlgebraicReal.from_rational(run.lo**2)
        # Squaring can fold other roots of p near the square of this one, so
        # a candidate interval may capture several roots of ``target``.
        # Shrink until the candidate meets exactly one isolated root: the
        # square itself always stays strictly inside the candidate, so that
        # surviving root is it.
        folded = isolate_real_roots(target)
        while True:
            lo, hi = run.lo, run.hi
            lo2, hi2 = (lo * lo, hi * hi) if lo >= 0 else (hi * hi, lo * lo)
            matches = [r for r in folded if _overlaps_open(r, lo2, hi2)]
            if len(matches) == 1:
                return matches[0]
            if run.step():
                return AlgebraicReal.from_rational(run.lo**2)

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


class _Bisection:
    """Bisection of an isolating interval on integer endpoints.

    The interval is [a, b] / (s * 2^k), with a and b integers.  ``terms[j]``
    is c_(d - j) * s^j for the integer coefficients c_i of a positive
    multiple of the polynomial, highest degree first, so p(x / (s * 2^k))
    has the sign of

        P(x) = sum_j terms[j] * x^(d - j) * 2^(k * j),

    which Horner's rule evaluates with integer products and shifts.  The
    sign p takes left of the root is read as -sign p(hi), so lo may start
    on a root of p outside the interval (the neighbour isolated to the
    left, see ``_certify_single``).  ``descend(level)`` runs the levels up
    to ``level`` in one loop on local variables, and ``step`` is a descent
    by one level; a run that goes there level by level or in one descent
    ends on the same interval.  After a level that hits the root, a == b,
    and the run is not descended again.

    Horner's products grow with k, so a level above ``TAYLOR_LEVEL`` reads
    the interval's Taylor form ``taylor`` instead, built on the way to the
    first such level: the coefficients, lowest degree first, of
    Q(y) = P(a + (b - a) * y), which is p(lo + (hi - lo) * y) times the
    positive factor (s * 2^k)^d times the cleared denominators.  Every level
    keeps that invariant on the halved interval: the left half's form is
    2^d * Q(y / 2), q_i shifted left by d - i; the sign of p at the midpoint
    is the sign of that form at y = 1, the sum of its coefficients; the
    right half's form is its Taylor shift by 1, d(d + 1)/2 additions.  The
    shifts and the order of the additions depend on d alone, so ``plan``
    holds them from the moment the form is built.  Since each pass reads
    p(mid) times a positive factor, both give the same sign, so the
    intervals do not depend on the level of the switch, which was set from
    timings of whole descents (see ``TAYLOR_LEVEL``).
    """

    __slots__ = ("poly", "terms", "taylor", "plan", "a", "b", "s", "k", "lo_sign")

    def __init__(self, poly: UniPoly, lo: Fraction, hi: Fraction):
        self.poly = poly
        self.s = math.lcm(lo.denominator, hi.denominator)
        self.a = lo.numerator * (self.s // lo.denominator)
        self.b = hi.numerator * (self.s // hi.denominator)
        self.k = 0
        self.terms = [c * self.s**j for j, c in enumerate(reversed(_cleared(poly)))]
        self.taylor: list[int] | None = None
        self.plan: tuple[list[tuple[int, int]], list[int]] | None = None
        self.lo_sign = -self._sign_at(self.b)

    def _sign_at(self, x: int) -> int:
        """Sign of p(x / (s * 2^k)), by one Horner pass."""
        k = self.k
        acc = shift = 0
        for t in self.terms:
            acc = acc * x + (t << shift)
            shift += k
        return (acc > 0) - (acc < 0)

    def _build_taylor(self, a: int, b: int, k: int) -> None:
        """The Taylor form of [a, b] at level k, Q(y) = P(a + (b - a) * y),
        and its plan: the shift of each coefficient that halves it to the
        left, and the order of the additions that shift it by 1."""
        q = [t << (k * j) for j, t in enumerate(self.terms)][::-1]
        d = len(q) - 1
        order = [j for i in range(d) for j in range(d - 1, i - 1, -1)]
        for j in order:  # Taylor shift by a
            q[j] += a * q[j + 1]
        width = b - a
        self.taylor = [c * width**i for i, c in enumerate(q)]
        self.plan = [(i, d - i) for i in range(d)], order

    def descend(self, level: int) -> bool:
        """Halve the interval until it is at ``level`` (nothing if it is
        there already); True, with a == b, if a midpoint on the way is the
        root, where the run then stops.  Up to ``TAYLOR_LEVEL`` a level is a
        Horner pass, past it the Taylor-form halving (see the class)."""
        a, b, k = self.a, self.b, self.k
        left = self.lo_sign > 0  # p's sign left of the root
        terms = self.terms
        hit = False
        stop = min(level, TAYLOR_LEVEL)
        while k < stop:
            mid = a + b
            a <<= 1
            b <<= 1
            k += 1
            acc = shift = 0
            for t in terms:
                acc = acc * mid + (t << shift)
                shift += k
            if acc == 0:
                a = b = mid
                hit = True
                break
            if (acc > 0) == left:
                a = mid
            else:
                b = mid
        if not hit and k < level:
            if self.taylor is None:
                self._build_taylor(a, b, k)
            q = self.taylor
            halve, order = self.plan
            while k < level:
                mid = a + b
                a <<= 1
                b <<= 1
                k += 1
                for i, shift in halve:
                    q[i] <<= shift
                total = sum(q)
                if total == 0:
                    a = b = mid
                    hit = True
                    break
                if (total > 0) == left:
                    a = mid
                    for j in order:
                        q[j] += q[j + 1]
                else:
                    b = mid
        self.a, self.b, self.k = a, b, k
        return hit

    def step(self) -> bool:
        """Halve the interval once; True if the midpoint is the root."""
        return self.descend(self.k + 1)

    def level_within(self, width: Fraction) -> int:
        """The first level at which the interval is at most ``width`` wide:
        the least k with (b - a) * den <= (num * s) << k, since b - a over
        s * 2^k keeps its numerator from level to level."""
        span = (self.b - self.a) * width.denominator
        unit = width.numerator * self.s
        k = max(span.bit_length() - unit.bit_length(), 0)
        return k + 1 if unit << k < span else k

    @property
    def lo(self) -> Fraction:
        return Fraction(self.a, self.s << self.k)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.b, self.s << self.k)

    def result(self) -> "AlgebraicReal":
        return AlgebraicReal(self.poly, self.lo, self.hi)


def _overlaps_open(root: AlgebraicReal, lo: Fraction, hi: Fraction) -> bool:
    """Does the root's certified range meet the open interval (lo, hi)?"""
    if root.is_rational:
        return lo < root.lo < hi
    return max(root.lo, lo) < min(root.hi, hi)


def _shares_root(p: UniPoly, q: UniPoly, lo: Fraction, hi: Fraction) -> bool:
    """Does gcd(p, q) have exactly one root in (lo, hi]?

    Neither end may be a root of p.  The gcd need not be square-free: its
    Sturm chain counts distinct roots (see ``sturm_chain``), and its roots
    are roots of p, so the ends are not among them.
    """
    common = p.gcd(q)
    return common.degree >= 1 and count_roots(sturm_chain(common), lo, hi) == 1


# -- isolation -----------------------------------------------------------------


def isolate_real_roots(poly: UniPoly) -> list[AlgebraicReal]:
    """All real roots of ``poly``, ascending, as exact AlgebraicReals.

    Works on the square-free part, so multiplicities collapse (see
    ``_descending_roots``).  Rational roots, whatever their denominator, come
    back as exact points (by the rational root theorem, see the module
    docstring); irrational roots carry sign-straddling isolating intervals.
    """
    return list(_descending_roots(poly))[::-1]


def _descending_roots(poly: UniPoly) -> Iterator[AlgebraicReal]:
    """The real roots of ``poly``, greatest first, certified one at a time.

    It works on the square-free primitive part.  The Sturm chain of p ends
    in gcd(p, p') up to a positive factor, so one remainder sequence both
    detects a repeated root and, when there is none, is the chain used for
    counting; only a polynomial with a repeated root is divided by that gcd
    and gets a second chain.  It then bisects (-B, B], B a strict root
    bound, right half first, until each piece holds one root, and certifies
    that piece when it reaches it.  A node's halves get the same counts
    whichever half is counted, so the tree and its cells do not depend on
    the order of the walk; a caller that stops after the first root has
    followed one branch down to the greatest root's cell.  A stack, not
    recursion: close roots need more levels than Python allows frames.
    """
    if poly.is_zero:
        raise ValueError("cannot isolate roots of the zero polynomial")
    reduced = poly.primitive()
    if reduced.degree < 1:
        return
    chain = sturm_chain(reduced)
    if chain[-1].degree >= 1:
        reduced = (reduced // chain[-1]).primitive()
        chain = sturm_chain(reduced)
    bound = cauchy_bound(reduced)
    if reduced(-bound) == 0:  # pragma: no cover - Cauchy bound is strict
        raise AssertionError("root bound not strict")
    pending = [(-bound, bound, count_roots(chain, -bound, bound))]
    while pending:
        lo, hi, count = pending.pop()
        if count == 1:
            yield _certify_single(reduced, lo, hi)
        elif count > 1:
            mid = (lo + hi) / 2
            right = count_roots(chain, mid, hi)
            pending.append((lo, mid, count - right))
            pending.append((mid, hi, right))


def _certify_single(poly: UniPoly, lo: Fraction, hi: Fraction) -> AlgebraicReal:
    """Turn a one-root Sturm interval (lo, hi] of square-free ``poly`` into an
    AlgebraicReal, with one run of the bisection kernel.

    If lo is a root (the neighbour isolated to the left), p has the sign of
    -p(hi) between it and our root, so the kernel keeps the half holding
    our root; it steps until lo is no root.  That interval is the result
    for an irrational root.  The run then continues until it is narrower
    than 1/L, L = |leading coefficient|, where by the rational root theorem
    at most one m/L remains, floor(lo*L) + 1 over L, and one evaluation
    decides whether the root is rational (an open interval of width exactly
    1/L also holds at most one m/L).
    """
    if poly(hi) == 0:
        return AlgebraicReal.from_rational(hi)
    run = _Bisection(poly, lo, hi)
    while run._sign_at(run.a) == 0:
        if run.step():
            return AlgebraicReal.from_rational(run.lo)
    lo, hi = run.lo, run.hi
    lead = abs(poly.leading)
    if run.descend(run.level_within(1 / lead)):
        return AlgebraicReal.from_rational(run.lo)
    candidate = Fraction(math.floor(run.lo * lead) + 1, lead)
    if candidate < run.hi and poly(candidate) == 0:
        return AlgebraicReal.from_rational(candidate)
    return AlgebraicReal(poly, lo, hi)


def _largest_real_root(poly: UniPoly) -> AlgebraicReal | None:
    """The greatest real root of ``poly``, or None if there is none: the
    first root of ``_descending_roots``, the same cell ``isolate_real_roots``
    gives it."""
    return next(_descending_roots(poly), None)


def largest_real_root(poly: UniPoly) -> AlgebraicReal:
    """The greatest real root of ``poly``; raises if there is none."""
    root = _largest_real_root(poly)
    if root is None:
        raise ValueError("polynomial has no real roots")
    return root
