"""Threshold polynomials and positivity thresholds for a family.

For a family of dimension 2n with Segre pairing constants d_0, ..., d_{2n}
the threshold polynomial is

    p(t) = sum_{i=0..n} binom(4n-1, 2i) * d_{2i} * t^i,    t = q(omega).

Its largest real root C splits the q-line: the twisted class zeta + pi*omega
is pseudoeffective whenever q(omega) >= C.  The positivity threshold
gamma_p(q) is the smallest lambda with p(lambda^2 q) > 0 beyond it, i.e.
sqrt(C/q) when C > 0.  All comparisons are exact; no epsilon enters any
decision.

Every question reads one ``Threshold`` record per family object: the
pairings and the polynomial are built once, and C is isolated once, when
first asked for.  gamma_p follows only the largest root of its substituted
polynomial (the right-first walk of ``algebraic.largest_real_root``) and
certifies that one root alone.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import comb
from weakref import WeakKeyDictionary

from .algebraic import AlgebraicReal, _largest_real_root, isolate_real_roots
from .exact import UniPoly
from .family import HKFamily

# gamma_p's time grows with the size of q (its polynomial carries powers of
# q).  At 10^MAX_Q_DIGITS the slowest preset, K3_2 at q = 10^-100, takes
# about 0.16 s on a 2-core VM (in-process median of 5; 0.34 s when every
# root was certified); a larger numerator or denominator is refused.
MAX_Q_DIGITS = 100

# A polynomial to isolate is refused when its size passes MAX_POLY_BITS: the
# larger of its degree times the bits of its primitive form's largest
# coefficient (isolation time grows fast with it) and the bits of its widest
# numerator or denominator (which must print).  The largest preset, K3_3 at
# q = 10^-100, is about 6000 bits; random tables of degree 2-20 took at most
# 1.8 s under the limit on a 2-core VM, and up to 5.5 s just above it.
MAX_POLY_BITS = 8000


def _bounded(poly: UniPoly, what: str) -> UniPoly:
    """``poly``, or a ValueError if its size passes ``MAX_POLY_BITS``."""
    reduced = poly.primitive()
    isolating = reduced.degree * max(c.numerator.bit_length() for c in reduced.coeffs)
    printing = max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in poly.coeffs)
    size = max(isolating, printing)
    if size > MAX_POLY_BITS:
        raise ValueError(f"{what} is too large: {size} bits, over {MAX_POLY_BITS}")
    return poly


class Threshold:
    """What every threshold question about one family reads: the Segre
    pairings d_0, ..., d_{2n}, the threshold polynomial, and its largest
    real root C, isolated on first use."""

    def __init__(self, family: HKFamily):
        self.pairings = tuple(family.segre_pairings())
        n = family.n
        self.poly = _bounded(
            UniPoly(comb(4 * n - 1, 2 * i) * d for i, d in enumerate(self.pairings)),
            "the threshold polynomial",
        )

    @cached_property
    def constant(self) -> AlgebraicReal | None:
        """C, or None if the threshold polynomial has no real root."""
        roots = isolate_real_roots(self.poly)
        return roots[-1] if roots else None


# One record per family object, dropped with the family.  A family's table
# is read-only, so its record cannot go stale.
_records: WeakKeyDictionary[HKFamily, Threshold] = WeakKeyDictionary()


def threshold_record(family: HKFamily) -> Threshold:
    """The family's threshold record, built on the first request."""
    record = _records.get(family)
    if record is None:
        record = _records[family] = Threshold(family)
    return record


def build_threshold_poly(family: HKFamily) -> UniPoly:
    """p(t) = sum binom(4n-1, 2i) d_{2i} t^i from the Segre pairings."""
    return threshold_record(family).poly


def constant_C(family: HKFamily) -> AlgebraicReal | None:
    """Largest real root of the threshold polynomial, or None if there is none."""
    return threshold_record(family).constant


def threshold_result(family: HKFamily) -> tuple[UniPoly, AlgebraicReal | None]:
    """The threshold polynomial and its largest real root C (None if it has none)."""
    return build_threshold_poly(family), constant_C(family)


def is_pseff_sufficient(family: HKFamily, qval: Fraction) -> bool:
    """Is q(omega) >= C?  (Sufficient for zeta + pi*omega pseudoeffective.)

    ``qval`` is the Beauville square of a nef and big class, hence must be
    nonnegative; a negative value is a caller error, not a "no".
    """
    qval = Fraction(qval)
    if qval < 0:
        raise ValueError("q(omega) of a nef and big class cannot be negative")
    c = constant_C(family)
    return c is None or c <= qval


def gamma_p(family: HKFamily, qval: Fraction) -> AlgebraicReal:
    """The positivity threshold sqrt(C / qval), as an exact algebraic real.

    Computed without forming a quotient: the substitution t -> qval * s^2
    turns the threshold polynomial in t into one in s whose largest real
    root is exactly sqrt(C/qval).  It is built coefficient by coefficient,
    c_i * qval^i at s^(2i) and 0 at odd powers, with no polynomial product.
    Only that root is isolated and certified, by the right-first walk of
    ``largest_real_root``.  When every real root
    of p is < 0 (or p has none) the substituted polynomial has no real root
    and the threshold is 0.  A q past ``MAX_Q_DIGITS``, or one that
    makes the substituted polynomial pass ``MAX_POLY_BITS``, is refused.
    """
    qval = Fraction(qval)
    if qval <= 0:
        raise ValueError("gamma_p needs a positive q value")
    if max(qval.numerator, qval.denominator) > 10**MAX_Q_DIGITS:
        raise ValueError(f"gamma_p needs q's numerator and denominator at most 10^{MAX_Q_DIGITS}")
    coeffs = []
    power = Fraction(1)
    for c in build_threshold_poly(family).coeffs:
        coeffs += (c * power, 0)
        power *= qval
    substituted = _bounded(UniPoly(coeffs), "gamma_p's polynomial at this q")
    root = _largest_real_root(substituted)
    # p(q*s^2) is even in s, so a largest real root is never negative.
    return AlgebraicReal.from_rational(0) if root is None else root


def pseff_cone_member(
    family: HKFamily, a: Fraction, q_delta: Fraction, delta_is_nef: bool
) -> bool:
    """Membership test for the class a*zeta-part + delta-part.

    True iff a >= 0, the delta part is nef (caller-asserted), and
    q(delta) >= a^2 * C, all compared exactly.  When the threshold
    polynomial has no real root, or a = 0, the q-condition is vacuous.
    """
    a = Fraction(a)
    q_delta = Fraction(q_delta)
    if delta_is_nef and q_delta < 0:
        raise ValueError("a nef class cannot have negative Beauville square")
    if not delta_is_nef or a < 0:
        return False
    c = constant_C(family)
    return c is None or a == 0 or c <= q_delta / (a * a)
