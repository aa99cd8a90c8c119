"""Truncated graded series: characteristic classes cut off by weight.

Elements are finite Q-linear combinations of graded monomials.  A series
carries a truncation N and silently drops every product term of weight
above N, which is exactly the arithmetic of characteristic classes on a
manifold of complex dimension N.  ``GradedSeries`` is keyed by Chern
monomials in c2, c4, c6, ... (c2k has weight 2k); a subclass with another
``unit_monomial`` is keyed by that monomial type (``hilbert_square``).
Monomials of either type are tuples, so a series sorts its terms by
weight and then by the tuple.

Inverse and square root are defined for series with constant term 1 and
follow one power-series rule: for a = 1 + x, each is f(x) = sum_k f_k x^k
with f the geometric series for 1/(1+x) or the binomial series for
sqrt(1+x) (Fulton, Intersection Theory, 3.2).  The same rule with
log(1 + x) gives the logarithm that ``riemann_roch`` reads power sums
from.  The sum is finite because x^k has weight at least k times the
least weight in x, and exact because every f_k is rational.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod
from typing import Callable, Iterable, Mapping

from .exact import format_rational, json_kind, parse_integer, parse_json_rational


class ChernMonomial(tuple):
    """A monomial in the symbols c2, c4, ...: e.g. c2^2*c4.

    The tuple of its (index, exponent) pairs, sorted, with even positive
    indices and positive exponents, so equality, hashing, ordering and
    immutability are the tuple's.  The empty monomial is the unit.
    """

    __slots__ = ()

    def __new__(cls, factors: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = dict(factors)
        for index, exponent in items.items():
            if index <= 0 or index % 2 != 0:
                raise ValueError(f"Chern symbol index must be even and positive: {index}")
            if exponent < 0:
                raise ValueError(f"negative exponent on c{index}")
        return super().__new__(cls, sorted((i, e) for i, e in items.items() if e > 0))

    @property
    def weight(self) -> int:
        return sum(index * exponent for index, exponent in self)

    @property
    def is_unit(self) -> bool:
        return not self

    def __mul__(self, other: "ChernMonomial") -> "ChernMonomial":
        merged = dict(self)
        for index, exponent in other:
            merged[index] = merged.get(index, 0) + exponent
        return ChernMonomial(merged)

    def __repr__(self) -> str:
        return f"ChernMonomial({dict(self)!r})"

    def __str__(self) -> str:
        if self.is_unit:
            return "1"
        return "*".join(
            f"c{index}" if exponent == 1 else f"c{index}^{exponent}"
            for index, exponent in self
        )

    def to_json(self) -> dict:
        return {str(index): exponent for index, exponent in self}

    @classmethod
    def from_json(cls, data: Mapping[str, int]) -> "ChernMonomial":
        if not isinstance(data, dict):
            raise ValueError(f"a monomial must be a JSON object, not {json_kind(data)}")
        return cls({
            parse_integer(index, "a Chern index"):
                parse_integer(exponent, f"the exponent of c{index}")
            for index, exponent in data.items()
        })


UNIT = ChernMonomial()


class GradedSeries:
    """Finite series sum_m a_m * m over graded monomials, truncated by weight.

    A monomial type is a tuple with a ``weight`` and a product; terms sort
    by weight and then as tuples.  ``symbol`` and the JSON form are those
    of Chern monomials.
    """

    __slots__ = ("truncation", "terms")
    unit_monomial = UNIT

    def __init__(self, truncation: int, terms: Mapping = ()):
        if truncation < 0:
            raise ValueError("truncation must be nonnegative")
        cleaned = {}
        for monomial, coeff in dict(terms).items():
            coeff = Fraction(coeff)
            if coeff == 0 or monomial.weight > truncation:
                continue
            cleaned[monomial] = coeff
        object.__setattr__(self, "truncation", truncation)
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def one(cls, truncation: int) -> "GradedSeries":
        return cls(truncation, {cls.unit_monomial: Fraction(1)})

    @classmethod
    def symbol(cls, index: int, truncation: int) -> "GradedSeries":
        return cls(truncation, {ChernMonomial({index: 1}): Fraction(1)})

    def coeff(self, monomial) -> Fraction:
        return self.terms.get(monomial, Fraction(0))

    def component(self, weight: int) -> dict:
        """All terms of the given weight."""
        return {m: c for m, c in self.terms.items() if m.weight == weight}

    @property
    def constant(self) -> Fraction:
        return self.coeff(self.unit_monomial)

    def _operand(self, other) -> "GradedSeries | None":
        """other as a series of this algebra: a rational is a constant."""
        if isinstance(other, (int, Fraction)):
            return type(self)(self.truncation, {self.unit_monomial: Fraction(other)})
        if type(other) is not type(self):
            return None
        if self.truncation != other.truncation:
            raise ValueError(
                f"truncation mismatch: {self.truncation} vs {other.truncation}"
            )
        return other

    def __add__(self, other) -> "GradedSeries":
        other = self._operand(other)
        if other is None:
            return NotImplemented
        merged = dict(self.terms)
        for monomial, coeff in other.terms.items():
            merged[monomial] = merged.get(monomial, Fraction(0)) + coeff
        return type(self)(self.truncation, merged)

    __radd__ = __add__

    def __neg__(self) -> "GradedSeries":
        return type(self)(self.truncation, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "GradedSeries":
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "GradedSeries":
        return -(self - other)

    def __mul__(self, other) -> "GradedSeries":
        if isinstance(other, (int, Fraction)):
            return type(self)(
                self.truncation, {m: c * other for m, c in self.terms.items()}
            )
        other = self._operand(other)
        if other is None:
            return NotImplemented
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                if m1.weight + m2.weight > self.truncation:
                    continue
                prod = m1 * m2
                out[prod] = out.get(prod, Fraction(0)) + c1 * c2
        return type(self)(self.truncation, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "GradedSeries":
        if exponent < 0:
            raise ValueError("negative power")
        result = self.one(self.truncation)
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        if type(other) is type(self):
            return self.truncation == other.truncation and self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        raise TypeError(f"{type(self).__name__} is unhashable")

    def inverse(self) -> "GradedSeries":
        """Multiplicative inverse of a series with constant term 1."""
        if self.constant != 1:
            raise ValueError("inverse requires constant term 1")
        return (self - 1)._apply(lambda k: (-1) ** k)

    def sqrt(self) -> "GradedSeries":
        """Square root with constant term 1, for a series with constant term 1."""
        if self.constant != 1:
            raise ValueError("sqrt requires constant term 1")
        # binom(1/2, k) = prod_{j<k} (1/2 - j) / k!
        return (self - 1)._apply(
            lambda k: Fraction(prod(Fraction(1, 2) - j for j in range(k)), factorial(k))
        )

    def _apply(self, coeff: Callable[[int], Fraction | int]) -> "GradedSeries":
        """sum_k coeff(k) * self^k for a series with constant term 0.

        Every term of self has weight at least w > 0, so self^k vanishes once
        k * w passes the truncation; the finite sum is evaluated by Horner's
        rule.
        """
        if self.constant != 0:
            raise ValueError("a power series is applied to a series with constant term 0")
        lowest = min((m.weight for m in self.terms), default=self.truncation + 1)
        top = self.truncation // lowest
        result = type(self)(self.truncation, {self.unit_monomial: coeff(top)})
        for k in range(top - 1, -1, -1):
            result = result * self + coeff(k)
        return result

    # -- rendering / serialization ------------------------------------

    def sorted_terms(self) -> list[tuple]:
        return sorted(self.terms.items(), key=lambda kv: (kv[0].weight, kv[0]))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for monomial, coeff in self.sorted_terms():
            if monomial == self.unit_monomial:
                parts.append(format_rational(coeff))
            elif coeff == 1:
                parts.append(str(monomial))
            elif coeff == -1:
                parts.append(f"-{monomial}")
            else:
                parts.append(f"{format_rational(coeff)}*{monomial}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.truncation}, {dict(self.terms)!r})"

    def to_json(self) -> dict:
        return {
            "truncation": self.truncation,
            "terms": [
                {"monomial": m.to_json(), "coeff": format_rational(c)}
                for m, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "GradedSeries":
        terms: dict[ChernMonomial, Fraction] = {}
        for entry in data["terms"]:
            monomial = ChernMonomial.from_json(entry["monomial"])
            coeff = parse_json_rational(entry["coeff"], "a coefficient")
            terms[monomial] = terms.get(monomial, Fraction(0)) + coeff
        return cls(parse_integer(data["truncation"], "truncation"), terms)
