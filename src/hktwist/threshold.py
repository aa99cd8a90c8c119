"""Threshold polynomials and positivity thresholds for a family.

For a family of dimension 2n with Segre pairing constants d_0, ..., d_{2n}
the threshold polynomial is

    p(t) = sum_{i=0..n} binom(4n-1, 2i) * d_{2i} * t^i,    t = q(omega).

Its largest real root C splits the q-line: the twisted class zeta + pi*omega
is pseudoeffective whenever q(omega) >= C.  The positivity threshold
gamma_p(q) is the smallest lambda with p(lambda^2 q) > 0 beyond it, i.e.
sqrt(C/q) when C > 0.  All comparisons are exact; no epsilon enters any
decision.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .algebraic import AlgebraicReal, isolate_real_roots
from .exact import UniPoly
from .family import HKFamily


def build_threshold_poly(
    family: HKFamily, pairings: list[Fraction] | None = None
) -> UniPoly:
    """p(t) = sum binom(4n-1, 2i) d_{2i} t^i from the Segre pairings.

    ``pairings`` are ``family.segre_pairings()`` when the caller already
    holds them; otherwise they are computed here.
    """
    n = family.n
    if pairings is None:
        pairings = family.segre_pairings()
    return UniPoly(comb(4 * n - 1, 2 * i) * pairings[i] for i in range(n + 1))


def constant_C(family: HKFamily) -> AlgebraicReal | None:
    """Largest real root of the threshold polynomial, or None if there is none."""
    return threshold_result(family)[1]


def threshold_result(
    family: HKFamily, pairings: list[Fraction] | None = None
) -> tuple[UniPoly, AlgebraicReal | None]:
    """The threshold polynomial and its largest real root C (None if it has none)."""
    poly = build_threshold_poly(family, pairings)
    roots = isolate_real_roots(poly)
    return poly, (roots[-1] if roots else None)


def is_pseff_sufficient(family: HKFamily, qval: Fraction) -> bool:
    """Is q(omega) >= C?  (Sufficient for zeta + pi*omega pseudoeffective.)

    ``qval`` is the Beauville square of a nef and big class, hence must be
    nonnegative; a negative value is a caller error, not a "no".
    """
    qval = Fraction(qval)
    if qval < 0:
        raise ValueError("q(omega) of a nef and big class cannot be negative")
    c = constant_C(family)
    if c is None:
        return True
    return c <= qval


def gamma_p(family: HKFamily, qval: Fraction) -> AlgebraicReal:
    """The positivity threshold sqrt(C / qval), as an exact algebraic real.

    Computed without forming a quotient: the substitution t -> qval * s^2
    turns the threshold polynomial in t into one in s whose largest real
    root is exactly sqrt(C/qval).  When every real root of p is <= 0 (or p
    has none) the threshold is 0.
    """
    qval = Fraction(qval)
    if qval <= 0:
        raise ValueError("gamma_p needs a positive q value")
    poly = build_threshold_poly(family)
    substituted = poly.compose(UniPoly((0, 0, qval)))
    roots = isolate_real_roots(substituted)
    if not roots or roots[-1] < 0:
        return AlgebraicReal.from_rational(0)
    return roots[-1]


def pseff_cone_member(
    family: HKFamily, a: Fraction, q_delta: Fraction, delta_is_nef: bool
) -> bool:
    """Membership test for the class a*zeta-part + delta-part.

    True iff a >= 0, the delta part is nef (caller-asserted), and
    q(delta) >= a^2 * C, all compared exactly.  When the threshold
    polynomial has no real root the q-condition is vacuous.
    """
    a = Fraction(a)
    q_delta = Fraction(q_delta)
    if delta_is_nef and q_delta < 0:
        raise ValueError("a nef class cannot have negative Beauville square")
    if not delta_is_nef or a < 0:
        return False
    c = constant_C(family)
    if c is None:
        return True
    if a == 0:
        return True
    return c.scale(a * a) <= q_delta

