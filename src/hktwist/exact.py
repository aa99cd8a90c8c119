"""Exact rational arithmetic and univariate polynomials over Q.

Rationals are stdlib ``fractions.Fraction`` throughout the package: they
already give canonical reduced p/q with arbitrary precision.  This module
adds the text/JSON conventions used everywhere else (coefficient strings,
6-significant-digit decimal rendering) and an immutable dense polynomial
type with exact euclidean division, gcd and composition.  The root isolator
gets gcd(p, p') from its Sturm chain; ``squarefree_part`` is the tests'
reference for it.

Decimal strings are for display only; nothing in the package ever feeds a
decimal back into a computation.
"""

from __future__ import annotations

import decimal
import re
import sys
from fractions import Fraction
from typing import Iterable, Sequence, Union

Rational = Fraction
RationalLike = Union[Fraction, int]

DEFAULT_SIG_DIGITS = 6

# Below the interpreter's default 4300-digit limit on printing an int.
MAX_DIGITS = 4000


# A numerator, denominator, mantissa or exponent: digits, perhaps grouped by "_".
# The interpreter's limit on reading one into an int is never below
# str_digits_check_threshold, so shorter text needs no look.
_DIGIT_RUN = re.compile(r"\d+(?:_\d+)*")
_UNCHECKED_LENGTH = sys.int_info.str_digits_check_threshold
# How much of a longer malformed text an error shows.
_SHOWN_PREFIX = 40


def parse_rational(text: str) -> Fraction:
    """Parse "p/q", "p" or a decimal such as "1.5e-3" (ASCII or U+2212 minus)
    into a Fraction.  A run of digits past the interpreter's limit on reading
    an int could not be read, so it is refused first, by its length.  A
    decimal exponent e costs time growing with |e|, so text needing over
    ``MAX_DIGITS`` digits (length plus |e|) is refused next.  An error
    shows a text of over ``_UNCHECKED_LENGTH`` characters by its prefix and
    its length."""
    cleaned = text.strip().replace("−", "-")
    if len(cleaned) > _UNCHECKED_LENGTH and (limit := sys.get_int_max_str_digits()):
        longest = max(len(run.replace("_", "")) for run in _DIGIT_RUN.findall(cleaned) or [""])
        if longest > limit:
            raise ValueError(
                f"a number with a run of {longest} digits, over the interpreter's limit of {limit}"
            )
    if "e" in cleaned or "E" in cleaned:
        mantissa, _, exponent = cleaned.replace("E", "e").partition("e")
        try:
            digits = len(mantissa) + abs(int(exponent))
        except ValueError:  # no integer exponent: Fraction judges the text
            digits = 0
        if digits > MAX_DIGITS:
            raise ValueError(f"exponent out of range in {_quoted(text)}: over {MAX_DIGITS} digits")
    try:
        return Fraction(cleaned)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {_quoted(text)}") from exc


def _quoted(text: str) -> str:
    """``text`` as repr shows it, or past ``_UNCHECKED_LENGTH`` characters
    a prefix of ``_SHOWN_PREFIX`` and the text's length, so that an error
    line stays short."""
    if len(text) <= _UNCHECKED_LENGTH:
        return repr(text)
    return f"{text[:_SHOWN_PREFIX]!r}... ({len(text)} characters)"


def parse_integer(value, what: str) -> int:
    """An integer from a JSON number or string; a fraction, an infinity or a
    boolean is refused rather than truncated."""
    if (
        isinstance(value, bool)
        or isinstance(value, float) and not value.is_integer()
        or isinstance(value, Fraction) and value.denominator != 1
    ):
        raise ValueError(f"{what} must be an integer, not {_shown(value)}")
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be an integer, not {_shown(value)}") from None


def parse_json_rational(value, what: str) -> Fraction:
    """A rational from a JSON number or string; any other kind is refused by name."""
    try:
        return parse_rational(str(value))
    except ValueError:
        kind = json_kind(value)
        if kind in ("number", "string"):
            raise
        raise ValueError(f"{what} must be a JSON number or string, not {kind}") from None


def json_kind(value) -> str:
    """The JSON name of a decoded value's kind: object, array, string,
    number, true, false or null."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, dict):
        return "object"
    if isinstance(value, list):
        return "array"
    return "string" if isinstance(value, str) else "number"


def _shown(value) -> str:
    """A number or string as written, any other JSON value by its kind."""
    kind = json_kind(value)
    return repr(value) if kind in ("number", "string") else kind


def format_rational(value: RationalLike) -> str:
    """Canonical "p/q" (or "p" for integers) rendering."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def decimal_str(value: RationalLike, sig_digits: int = DEFAULT_SIG_DIGITS) -> str:
    """Round a rational to ``sig_digits`` significant digits, as a string.

    Exact integers shed their fractional part entirely (8 prints as "8",
    never "8.00000"), which keeps rational threshold constants readable.
    """
    value = Fraction(value)
    if sig_digits < 1:
        raise ValueError("sig_digits must be positive")
    if value.denominator == 1:
        return str(value.numerator)
    with decimal.localcontext() as ctx:
        ctx.prec = sig_digits
        ctx.rounding = decimal.ROUND_HALF_EVEN
        result = decimal.Decimal(value.numerator) / decimal.Decimal(value.denominator)
    return str(result)


class UniPoly:
    """Dense univariate polynomial over Q, coefficients ascending.

    Immutable.  The zero polynomial has an empty coefficient tuple and
    degree -1.  Instances are normalized on construction (trailing zero
    coefficients stripped), so equality is structural.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        normalized = [Fraction(c) for c in coeffs]
        while normalized and normalized[-1] == 0:
            normalized.pop()
        object.__setattr__(self, "coeffs", tuple(normalized))

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls(())

    @classmethod
    def constant(cls, value: RationalLike) -> "UniPoly":
        return cls((Fraction(value),))

    @classmethod
    def variable(cls) -> "UniPoly":
        return cls((0, 1))

    # -- basic structure ----------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, power: int) -> Fraction:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return Fraction(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, UniPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other) -> "UniPoly":
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(self.coeff(i) + other.coeff(i) for i in range(n))

    __radd__ = __add__

    def __neg__(self) -> "UniPoly":
        return UniPoly(-c for c in self.coeffs)

    def __sub__(self, other) -> "UniPoly":
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "UniPoly":
        return -(self - other)

    def __mul__(self, other) -> "UniPoly":
        if isinstance(other, (int, Fraction)):
            return UniPoly(c * other for c in self.coeffs)
        if not isinstance(other, UniPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return UniPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "UniPoly":
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = UniPoly.constant(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, divisor: "UniPoly"):
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        quotient = [Fraction(0)] * max(len(self.coeffs) - len(divisor.coeffs) + 1, 0)
        rem = list(self.coeffs)
        dlead = divisor.leading
        ddeg = divisor.degree
        while len(rem) - 1 >= ddeg and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < ddeg:
                break
            shift = len(rem) - 1 - ddeg
            factor = rem[-1] / dlead
            quotient[shift] = factor
            for i, c in enumerate(divisor.coeffs):
                rem[shift + i] -= factor * c
        return UniPoly(quotient), UniPoly(rem)

    def __mod__(self, divisor: "UniPoly") -> "UniPoly":
        return divmod(self, divisor)[1]

    def __floordiv__(self, divisor: "UniPoly") -> "UniPoly":
        return divmod(self, divisor)[0]

    # -- calculus and evaluation ----------------------------------------

    def derivative(self) -> "UniPoly":
        return UniPoly(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def __call__(self, point: RationalLike) -> Fraction:
        """Evaluate by Horner's rule, exactly."""
        point = Fraction(point)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def compose(self, inner: "UniPoly") -> "UniPoly":
        """self(inner(t)), exactly."""
        acc = UniPoly.zero()
        for c in reversed(self.coeffs):
            acc = acc * inner + UniPoly.constant(c)
        return acc

    # -- gcd / normalization --------------------------------------------

    def monic(self) -> "UniPoly":
        if self.is_zero:
            return self
        return self * (1 / self.leading)

    def gcd(self, other: "UniPoly") -> "UniPoly":
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        if a.is_zero:
            return a
        return a.monic()

    def squarefree_part(self) -> "UniPoly":
        """p / gcd(p, p'): same roots, all simple."""
        if self.degree < 1:
            return self
        g = self.gcd(self.derivative())
        if g.degree < 1:
            return self
        return self // g

    def primitive(self) -> "UniPoly":
        """Integer coefficients, content 1, positive leading coefficient."""
        if self.is_zero:
            return self
        from math import gcd, lcm
        denoms = lcm(*(c.denominator for c in self.coeffs))
        ints = [int(c * denoms) for c in self.coeffs]
        content = 0
        for v in ints:
            content = gcd(content, v)
        ints = [v // content for v in ints]
        if ints[-1] < 0:
            ints = [-v for v in ints]
        return UniPoly(ints)

    # -- rendering / serialization --------------------------------------

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"UniPoly({list(self.coeffs)!r})"

    def render(self, var: str = "t") -> str:
        """Human form, descending powers: "105t^2 - 630t + 504"."""
        if self.is_zero:
            return "0"
        parts = []
        for power in range(self.degree, -1, -1):
            c = self.coeff(power)
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if power == 0:
                body = format_rational(mag)
            else:
                if mag == 1:
                    head = ""
                elif mag.denominator == 1:
                    head = format_rational(mag)
                else:
                    head = f"({format_rational(mag)})"
                body = f"{head}{var}" if power == 1 else f"{head}{var}^{power}"
            if not parts:
                parts.append(body if sign == "+" else "-" + body)
            else:
                parts.append(f"{sign} {body}")
        return " ".join(parts)

    def to_json(self) -> list:
        """Coefficient strings, ascending powers."""
        return [format_rational(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data: Sequence[str]) -> "UniPoly":
        return cls(parse_json_rational(c, "a coefficient") for c in data)


def _as_poly(value) -> UniPoly | None:
    if isinstance(value, UniPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return UniPoly.constant(value)
    return None
