"""Exact intersection calculus on the Hilbert square of a K3 surface.

X denotes the Hilbert square: the 4-fold resolving the symmetric square of
a K3 surface S.  Classes are polynomials in the commuting symbols

    alpha (weight 1)  - the class induced by a K3 class of square a,
    delta (weight 1)  - half the exceptional divisor (E = 2*delta),
    sbar  (weight 2)  - the class of a fiber {pt} x S,

with coefficients that are polynomials in the formal parameter a = alpha_S^2.
The symbol l = sbar*delta (weight 3) is accepted as input and rewritten
eagerly.  Intersection numbers come from one minimal table of weight-4
monomials; every other printed value is derived from it.

P denotes the 7-dimensional projectivized cotangent bundle over X with
tautological class zeta.  A class there is stored as its fiber degree D and
one class beta on X: it is sum_w zeta^(D-w) * pi^*(beta_w), where beta_w is
the weight-w part of beta.  Top intersections push forward through the
Segre class s(X) = 1 + s2 + s4: zeta^(3+i) * pi^*(beta) integrates to
s_i . beta on X (Fulton, *Intersection Theory*, section 3.1), so the
integral over P is that of the weight-4 part of s(X) * beta.  X has no odd
Chern classes, so odd weights never reach weight 4.  The one Chern number
the table does not give, c4, is read from the K3_2 family table.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Mapping

from .exact import UniPoly, format_rational
from .family import preset
from .series import ChernMonomial

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


class SquareClass:
    """A cohomology class on X: a linear combination of symbol monomials.

    terms maps (i_alpha, i_delta, i_sbar) to a UniPoly coefficient in the
    parameter a.  Monomials of weight above 4 vanish on the 4-fold and
    are dropped on the spot.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int, int], UniPoly] = ()):
        cleaned: dict[tuple[int, int, int], UniPoly] = {}
        for key, coeff in dict(terms).items():
            if min(key) < 0:
                raise ValueError(f"negative exponent in {key}")
            if not isinstance(coeff, UniPoly):
                coeff = UniPoly.constant(coeff)
            if coeff.is_zero or _weight(key) > 4:
                continue
            cleaned[key] = coeff
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("SquareClass is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def weights(self) -> set[int]:
        return {_weight(k) for k in self.terms}

    def __add__(self, other) -> "SquareClass":
        other = _as_square(other)
        if other is None:
            return NotImplemented
        merged = dict(self.terms)
        for key, coeff in other.terms.items():
            merged[key] = merged.get(key, UniPoly.zero()) + coeff
        return SquareClass(merged)

    __radd__ = __add__

    def __neg__(self) -> "SquareClass":
        return SquareClass({k: -c for k, c in self.terms.items()})

    def __sub__(self, other) -> "SquareClass":
        other = _as_square(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "SquareClass":
        return -(self - other)

    def __mul__(self, other) -> "SquareClass":
        if isinstance(other, (int, Fraction, UniPoly)):
            factor = other if isinstance(other, UniPoly) else UniPoly.constant(other)
            return SquareClass({k: c * factor for k, c in self.terms.items()})
        if not isinstance(other, SquareClass):
            return NotImplemented
        out: dict[tuple[int, int, int], UniPoly] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = tuple(x + y for x, y in zip(k1, k2))
                if _weight(key) > 4:
                    continue
                out[key] = out.get(key, UniPoly.zero()) + c1 * c2
        return SquareClass(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "SquareClass":
        if exponent < 0:
            raise ValueError("negative power")
        result = unit()
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, SquareClass):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        raise TypeError("SquareClass is unhashable")

    def __repr__(self) -> str:
        return f"SquareClass({dict(self.terms)!r})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for key in sorted(self.terms, key=lambda k: (_weight(k), k)):
            coeff = self.terms[key]
            body = _monomial_str(key)
            if body == "1":
                parts.append(_coeff_str(coeff))
            elif coeff == UniPoly.constant(1):
                parts.append(body)
            else:
                parts.append(f"{_coeff_str(coeff)}*{body}")
        return " + ".join(parts)


def _weight(key: tuple[int, int, int]) -> int:
    ia, idl, isb = key
    return ia + idl + 2 * isb


def _monomial_str(key: tuple[int, int, int]) -> str:
    names = ("alpha", "delta", "sbar")
    parts = [
        name if e == 1 else f"{name}^{e}" for name, e in zip(names, key) if e > 0
    ]
    return "*".join(parts) if parts else "1"


def _coeff_str(coeff: UniPoly) -> str:
    if coeff.degree <= 0:
        return format_rational(coeff.coeff(0)) if not coeff.is_zero else "0"
    return f"({coeff.render('a')})"


def _as_square(value) -> "SquareClass | None":
    if isinstance(value, SquareClass):
        return value
    if isinstance(value, (int, Fraction)):
        return SquareClass({(0, 0, 0): UniPoly.constant(value)})
    if isinstance(value, UniPoly):
        return SquareClass({(0, 0, 0): value})
    return None


def unit() -> SquareClass:
    return SquareClass({(0, 0, 0): UniPoly.constant(1)})


def alpha() -> SquareClass:
    return SquareClass({(1, 0, 0): UniPoly.constant(1)})


def delta() -> SquareClass:
    return SquareClass({(0, 1, 0): UniPoly.constant(1)})


def sbar() -> SquareClass:
    return SquareClass({(0, 0, 1): UniPoly.constant(1)})


def ell() -> SquareClass:
    """The weight-3 class l, stored in rewritten form sbar*delta."""
    return SquareClass({(0, 1, 1): UniPoly.constant(1)})


def exceptional() -> SquareClass:
    """The exceptional divisor E = 2*delta."""
    return SquareClass({(0, 1, 0): UniPoly.constant(2)})


def segre2() -> SquareClass:
    """The weight-2 Segre class s2 = -24*sbar + 3*delta^2 = -c2."""
    return SquareClass(
        {(0, 0, 1): UniPoly.constant(-24), (0, 2, 0): UniPoly.constant(3)}
    )


def square_intersect(cls: SquareClass) -> UniPoly:
    """Integrate a weight-4 class over X; result is a polynomial in a.

    Every stored monomial must have weight exactly 4 (the class must be a
    top-degree form).
    """
    total = UniPoly.zero()
    for key, coeff in cls.terms.items():
        if _weight(key) != 4:
            raise ValueError(f"cannot integrate weight-{_weight(key)} term {key}")
        total = total + coeff * _TABLE[key]
    return total


def _part(cls: SquareClass, weight: int) -> SquareClass:
    return SquareClass({k: c for k, c in cls.terms.items() if _weight(k) == weight})


@cache
def _segre_class() -> SquareClass:
    """s(X) = 1 + s2 + s4, with s4 = s2^2 - c4 * sbar^2 (sbar^2 is a point)."""
    s2 = segre2()
    c4 = preset("K3_2").pair(ChernMonomial({4: 1}))
    return unit() + s2 + s2 * s2 - sbar() ** 2 * c4


class PBClass:
    """A class on the 7-fold P: sum_w zeta^(degree - w) * pi^*(beta_w).

    ``beta`` is one class on X and beta_w its weight-w part; no weight may
    exceed ``degree``, so every summand has cohomological degree ``degree``.
    A product adds the degrees and multiplies the classes on X.
    """

    __slots__ = ("degree", "beta")

    def __init__(self, degree: int, beta: SquareClass | int = 0):
        beta = _as_square(beta)
        if degree < 0:
            raise ValueError("negative degree")
        if max(beta.weights(), default=0) > degree:
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
    return [(_monomial_str(key), value) for key, value in _TABLE.items()]


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
