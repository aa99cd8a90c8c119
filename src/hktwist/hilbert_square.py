"""Exact intersection calculus on the Hilbert square of a K3 surface.

X denotes the Hilbert square: the 4-fold resolving the symmetric square of
a K3 surface S.  Classes are polynomials in the commuting symbols

    alpha (weight 1)  - the class induced by a K3 class of square a,
    delta (weight 1)  - half the exceptional divisor (E = 2*delta),
    sbar  (weight 2)  - the class of a fiber {pt} x S,

with rational coefficients: the ``GradedSeries`` algebra of the Todd series,
truncated at weight 4 and keyed by ``SquareMonomial``.  The symbol
l = sbar*delta (weight 3) is accepted as input and rewritten eagerly.
Intersection numbers come from one minimal table of weight-4 monomials,
polynomials in the formal parameter a = alpha_S^2; every other printed
value is derived from it.

P denotes the 7-dimensional projectivized cotangent bundle over X with
tautological class zeta.  A class there is stored as its fiber degree D and
one class beta on X: it is sum_w zeta^(D-w) * pi^*(beta_w), where beta_w is
the weight-w part of beta.  Top intersections push forward through the
Segre class s(X) = c(X)^-1: zeta^(3+i) * pi^*(beta) integrates to
s_i . beta on X (Fulton, *Intersection Theory*, sections 3.1 and 3.2), so
the integral over P is that of the weight-4 part of s(X) * beta, and the
inverse of c(X) = 1 + c2 + c4 is the series rule that also gives the square
root of the Todd series.  X has no odd Chern classes, so odd weights never
reach weight 4.  The one Chern number the table does not give, c4, is read
from the K3_2 family table.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import NamedTuple

from .exact import UniPoly
from .family import preset
from .series import ChernMonomial, GradedSeries

# Weight-4 monomial values, keyed by exponents of (alpha, delta, sbar);
# entries are polynomials in a (ascending coefficients).
_TABLE: dict[tuple[int, int, int], UniPoly] = {
    (4, 0, 0): UniPoly((0, 0, 3)),   # alpha^4        = 3a^2
    (3, 1, 0): UniPoly(()),          # alpha^3*delta  = 0
    (2, 2, 0): UniPoly((0, -2)),     # alpha^2*delta^2 = -2a
    (1, 3, 0): UniPoly(()),          # alpha*delta^3  = 0
    (0, 4, 0): UniPoly((12,)),       # delta^4        = 12
    (2, 0, 1): UniPoly((0, 1)),      # alpha^2*sbar   = a
    (1, 1, 1): UniPoly(()),          # alpha*delta*sbar = 0
    (0, 2, 1): UniPoly((-1,)),       # delta^2*sbar   = -1
    (0, 0, 2): UniPoly((1,)),        # sbar^2         = 1
}


class SquareMonomial(NamedTuple):
    """alpha^alpha * delta^delta * sbar^sbar, of weight alpha + delta + 2*sbar.

    It equals the plain exponent tuple, so it reads ``_TABLE`` directly.
    """

    alpha: int = 0
    delta: int = 0
    sbar: int = 0

    @property
    def weight(self) -> int:
        return self.alpha + self.delta + 2 * self.sbar

    def __mul__(self, other: "SquareMonomial") -> "SquareMonomial":
        return SquareMonomial(*(x + y for x, y in zip(self, other)))

    def __str__(self) -> str:
        parts = [
            name if e == 1 else f"{name}^{e}" for name, e in zip(self._fields, self) if e > 0
        ]
        return "*".join(parts) if parts else "1"


class SquareClass(GradedSeries):
    """A cohomology class on X: a rational combination of symbol monomials.

    It is a ``GradedSeries`` of truncation 4 keyed by ``SquareMonomial``, so
    monomials of weight above 4 vanish on the 4-fold and are dropped on the
    spot.  The parameter a enters only when a class is integrated.
    """

    __slots__ = ()
    unit_monomial = SquareMonomial()


def _class(**exponents: int) -> SquareClass:
    return SquareClass(4, {SquareMonomial(**exponents): 1})


def unit() -> SquareClass:
    return _class()


def alpha() -> SquareClass:
    return _class(alpha=1)


def delta() -> SquareClass:
    return _class(delta=1)


def sbar() -> SquareClass:
    return _class(sbar=1)


def ell() -> SquareClass:
    """The weight-3 class l, stored in rewritten form sbar*delta."""
    return sbar() * delta()


def exceptional() -> SquareClass:
    """The exceptional divisor E = 2*delta."""
    return delta() * 2


def segre2() -> SquareClass:
    """The weight-2 Segre class s2 = -24*sbar + 3*delta^2 = -c2."""
    return sbar() * -24 + delta() ** 2 * 3


def square_intersect(cls: SquareClass) -> UniPoly:
    """Integrate a weight-4 class over X; result is a polynomial in a.

    Every stored monomial must have weight exactly 4 (the class must be a
    top-degree form).
    """
    total = UniPoly.zero()
    for key, coeff in cls.terms.items():
        if key.weight != 4:
            raise ValueError(f"cannot integrate weight-{key.weight} term {key}")
        total = total + _TABLE[key] * coeff
    return total


def _part(cls: SquareClass, weight: int) -> SquareClass:
    return SquareClass(4, cls.component(weight))


@cache
def _segre_class() -> SquareClass:
    """s(X) = c(X)^-1 with c(X) = 1 + c2 + c4 * sbar^2 (sbar^2 is a point)."""
    c2 = -segre2()
    c4 = preset("K3_2").pair(ChernMonomial({4: 1}))
    return (1 + c2 + sbar() ** 2 * c4).inverse()


class PBClass:
    """A class on the 7-fold P: sum_w zeta^(degree - w) * pi^*(beta_w).

    ``beta`` is one class on X and beta_w its weight-w part; no weight may
    exceed ``degree``, so every summand has cohomological degree ``degree``.
    A product adds the degrees and multiplies the classes on X.
    """

    __slots__ = ("degree", "beta")

    def __init__(self, degree: int, beta: SquareClass | int = 0):
        beta = unit() * beta  # a rational is a constant class
        if degree < 0:
            raise ValueError("negative degree")
        if max((m.weight for m in beta.terms), default=0) > degree:
            raise ValueError(f"a weight of {beta} exceeds the fiber degree {degree}")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "beta", beta)

    def __setattr__(self, name, value):
        raise AttributeError("PBClass is immutable")

    def component(self, weight: int) -> SquareClass:
        return _part(self.beta, weight)

    def __mul__(self, other: "PBClass") -> "PBClass":
        if not isinstance(other, PBClass):
            return NotImplemented
        return PBClass(self.degree + other.degree, self.beta * other.beta)

    def __pow__(self, exponent: int) -> "PBClass":
        return PBClass(self.degree * exponent, self.beta**exponent)

    def __repr__(self) -> str:
        return f"PBClass({self.degree}, {self.beta!r})"


def pb_top_intersect(cls: PBClass) -> UniPoly:
    """Integrate a degree-7 class over P; result is a polynomial in a.

    zeta^(7-w) * pi^*(beta_w) pushes forward to s_{4-w} . beta_w, so the
    integral is that of the weight-4 part of s(X) * beta over X.
    """
    if cls.degree != 7:
        raise ValueError(f"top intersection needs total degree 7, got {cls.degree}")
    return square_intersect(_part(_segre_class() * cls.beta, 4))


def z_class() -> PBClass:
    """The incidence-divisor class 2*zeta^2 + 2*zeta*pi^*(delta) + pi^*(24*sbar - 6*delta^2)."""
    return PBClass(2, unit() * 2 + delta() * 2 + sbar() * 24 - delta() ** 2 * 6)


def z_pairing() -> UniPoly:
    """The degree-7 pairing (zeta + pi^*(alpha - delta))^5 . z_class().

    Returned as an exact polynomial in a = alpha_S^2; its sign governs
    pseudoeffectivity of the twisted class against the incidence divisor.
    """
    omega = PBClass(1, unit() + alpha() - delta())
    return pb_top_intersect(omega**5 * z_class())


def kahler_criterion(a_value: Fraction | None = None):
    """The four positivity values of omega = alpha - delta, plus the predicate.

    Returns (omega^4, omega^3*E, omega^2*sbar, omega*l) as polynomials in a
    when a_value is None, or as rationals with the all-positive predicate
    when a rational a_value is supplied.  The four values are positive
    exactly when a > 2.
    """
    omega = alpha() - delta()
    values = (
        square_intersect(omega**4),
        square_intersect(omega**3 * exceptional()),
        square_intersect(omega**2 * sbar()),
        square_intersect(omega * ell()),
    )
    if a_value is None:
        return values
    a_value = Fraction(a_value)
    evaluated = tuple(v(a_value) for v in values)
    return evaluated, all(v > 0 for v in evaluated)


def square_chern_table() -> dict:
    """Derived characteristic-class pairings of X, self-checked.

    Returns {s2 (class), s2^2, s4, c4} and verifies the minimal table
    against the K3_2 family table before returning: alpha^4 = top * a^2,
    -s2 . alpha^2 = (c2 pairing) * a and s2^2 = (c2^2 pairing), with
    q(alpha) = a, and the derived row s2 . delta^2 = 60.  A mismatch means
    a table entry was mistyped.
    """
    family = preset("K3_2")
    top, c2, c2_sq, c4 = (
        family.pair(ChernMonomial(m)) for m in ({}, {2: 1}, {2: 2}, {4: 1})
    )
    s2 = segre2()
    checks = (
        ("alpha^4", alpha() ** 4, UniPoly((0, 0, top))),
        ("-s2.alpha^2", -s2 * alpha() ** 2, UniPoly((0, c2))),
        ("s2^2", s2 * s2, UniPoly.constant(c2_sq)),
        ("s2.delta^2", s2 * delta() ** 2, UniPoly.constant(60)),
    )
    for label, cls, expected in checks:
        value = square_intersect(cls)
        if value != expected:
            raise AssertionError(f"{label} evaluated to {value}, expected {expected}")
    return {"s2": s2, "s2^2": c2_sq, "s4": c2_sq - c4, "c4": c4}


def minimal_table() -> list[tuple[str, UniPoly]]:
    """The nine stored weight-4 rows, in display order."""
    return [(str(SquareMonomial(*key)), value) for key, value in _TABLE.items()]


def pushforward_rows() -> list[tuple[str, UniPoly]]:
    """Degree-7 pairings on P, each computed from the minimal table."""
    return [
        ("zeta^7", pb_top_intersect(PBClass(7, unit()))),
        ("zeta^5*sbar", pb_top_intersect(PBClass(7, sbar()))),
        ("zeta^5*delta^2", pb_top_intersect(PBClass(7, delta() ** 2))),
        ("zeta^5*alpha*delta", pb_top_intersect(PBClass(7, alpha() * delta()))),
        ("zeta^5*alpha^2", pb_top_intersect(PBClass(7, alpha() ** 2))),
        ("zeta^3*sbar*delta^2", pb_top_intersect(PBClass(7, sbar() * delta() ** 2))),
        ("zeta^3*delta^4", pb_top_intersect(PBClass(7, delta() ** 4))),
        ("zeta^3*sbar^2", pb_top_intersect(PBClass(7, sbar() ** 2))),
    ]
