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
tautological class zeta.  A class there is stored by its fiber degree D and
pullback components: sum_w zeta^(D-w) * pi^*(beta_w).  Top intersections
push forward through the Segre classes of X: zeta powers pair against
s_{4-w}, and the odd pushforwards vanish because X has no odd Chern
classes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .exact import UniPoly, format_rational

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

# zeta^7 on P equals the s4-pairing of X: s2^2 - c4 = 828 - 324 = 504,
# with c4 = 324 coming from the degree-4 Chern number 648 of the pullback
# bundle on the two-to-one blow-up cover.
C4_VALUE = Fraction(324)


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


class PBClass:
    """A class on the 7-fold P, decomposed along fiber degree.

    Stored as sum_w zeta^(degree - w) * pi^*(components[w]); the total
    cohomological degree of every summand is ``degree``.
    """

    __slots__ = ("degree", "components")

    def __init__(self, degree: int, components: Mapping[int, SquareClass] = ()):
        if degree < 0:
            raise ValueError("negative degree")
        cleaned: dict[int, SquareClass] = {}
        for w, cls in dict(components).items():
            if w < 0 or w > 4 or degree - w < 0:
                raise ValueError(f"component weight {w} out of range for degree {degree}")
            if not isinstance(cls, SquareClass):
                cls = _as_square(cls)
            filtered = SquareClass(
                {k: c for k, c in cls.terms.items() if _weight(k) == w}
            )
            if filtered.terms != cls.terms:
                raise ValueError(f"component at weight {w} has mixed weights")
            if not cls.is_zero:
                cleaned[w] = cls
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "components", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("PBClass is immutable")

    def component(self, weight: int) -> SquareClass:
        return self.components.get(weight, SquareClass())

    def __mul__(self, other: "PBClass") -> "PBClass":
        if not isinstance(other, PBClass):
            return NotImplemented
        out: dict[int, SquareClass] = {}
        for w1, c1 in self.components.items():
            for w2, c2 in other.components.items():
                w = w1 + w2
                if w > 4:
                    continue
                prod = c1 * c2
                out[w] = out.get(w, SquareClass()) + prod
        return PBClass(self.degree + other.degree, out)

    def __pow__(self, exponent: int) -> "PBClass":
        if exponent < 0:
            raise ValueError("negative power")
        result = PBClass(0, {0: unit()})
        for _ in range(exponent):
            result = result * self
        return result

    def __repr__(self) -> str:
        return f"PBClass({self.degree}, {self.components!r})"


def pb_top_intersect(cls: PBClass) -> UniPoly:
    """Integrate a degree-7 class over P; result is a polynomial in a.

    Pushforward rules: zeta^7 integrates to 504 (= s2^2 - c4 = 828 - 324);
    zeta^5 * pi^*(beta_2) pairs beta_2 against s2; zeta^3 * pi^*(beta_4)
    integrates beta_4 directly; zeta^6 and zeta^4 kill the odd-weight
    components because the odd Segre classes of X vanish.
    """
    if cls.degree != 7:
        raise ValueError(f"top intersection needs total degree 7, got {cls.degree}")
    zeta7 = square_intersect(segre2() * segre2()) - C4_VALUE
    total = UniPoly.zero()
    for w, beta in cls.components.items():
        if w % 2 == 1:
            continue
        if w == 0:
            total = total + beta.terms.get((0, 0, 0), UniPoly.zero()) * zeta7
        elif w == 2:
            total = total + square_intersect(segre2() * beta)
        else:  # w == 4
            total = total + square_intersect(beta)
    return total


def z_class() -> PBClass:
    """The incidence-divisor class 2*zeta^2 + 2*zeta*pi^*(delta) + pi^*(24*sbar - 6*delta^2)."""
    return PBClass(
        2,
        {
            0: unit() * 2,
            1: delta() * 2,
            2: sbar() * 24 - SquareClass({(0, 2, 0): UniPoly.constant(6)}),
        },
    )


def z_pairing() -> UniPoly:
    """The degree-7 pairing (zeta + pi^*(alpha - delta))^5 . z_class().

    Returned as an exact polynomial in a = alpha_S^2; its sign governs
    pseudoeffectivity of the twisted class against the incidence divisor.
    """
    omega = PBClass(1, {0: unit(), 1: alpha() - delta()})
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

    Returns {s2 (class), s2^2, s4, c4} and verifies the derived zeta^5 rows
    against the minimal table before returning; a mismatch means a table
    entry was mistyped.
    """
    s2 = segre2()
    s2_sq = square_intersect(s2 * s2)
    if s2_sq != UniPoly.constant(828):
        raise AssertionError(f"s2^2 evaluated to {s2_sq}, expected 828")
    row_delta2 = square_intersect(s2 * delta() * delta())
    if row_delta2 != UniPoly.constant(60):
        raise AssertionError(f"s2.delta^2 evaluated to {row_delta2}, expected 60")
    row_alpha2 = square_intersect(s2 * alpha() * alpha())
    if row_alpha2 != UniPoly((0, -30)):
        raise AssertionError(f"s2.alpha^2 evaluated to {row_alpha2}, expected -30a")
    return {
        "s2": s2,
        "s2^2": Fraction(828),
        "s4": Fraction(828) - C4_VALUE,
        "c4": C4_VALUE,
    }


def minimal_table() -> list[tuple[str, UniPoly]]:
    """The nine stored weight-4 rows, in display order."""
    return [(_monomial_str(key), value) for key, value in _TABLE.items()]


def pushforward_rows() -> list[tuple[str, UniPoly]]:
    """Degree-7 pairings on P, each computed from the minimal table."""
    return [
        ("zeta^7", pb_top_intersect(PBClass(7, {0: unit()}))),
        ("zeta^5*sbar", pb_top_intersect(PBClass(7, {2: sbar()}))),
        ("zeta^5*delta^2", pb_top_intersect(PBClass(7, {2: delta() ** 2}))),
        ("zeta^5*alpha*delta", pb_top_intersect(PBClass(7, {2: alpha() * delta()}))),
        ("zeta^5*alpha^2", pb_top_intersect(PBClass(7, {2: alpha() ** 2}))),
        ("zeta^3*sbar*delta^2", pb_top_intersect(PBClass(7, {4: sbar() * delta() ** 2}))),
        ("zeta^3*delta^4", pb_top_intersect(PBClass(7, {4: delta() ** 4}))),
        ("zeta^3*sbar^2", pb_top_intersect(PBClass(7, {4: sbar() ** 2}))),
    ]
