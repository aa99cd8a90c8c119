"""Independent oracle for the benchmark's correctness checks.

Everything here is standard-library exact arithmetic written for the
benchmark alone; nothing imports or mirrors the hktwist code path it checks.

* Segre pairings come from the closed form of 1/c (Fulton, Intersection
  Theory, section 3.2): the coefficient of the monomial m = prod c_i^e_i in
  1/(1 + c2 + c4 + ...) is (-1)^|m| * |m|! / prod e_i!, where |m| = sum e_i.
* Threshold polynomials are rebuilt from those pairings.
* A certified decimal is accepted only if the polynomial changes sign
  across its half-ulp interval, a Sturm count shows no larger root, and a
  rational-root-theorem test agrees with the rational/irrational claim.
* The paper's exact values are pinned below and checked by ``self_check``.

Polynomials are lists of ints or Fractions, ascending powers.  Sturm chains
use integer pseudo-remainders and evaluation is homogeneous integer Horner,
so no Fraction division enters a sign decision.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from math import comb, factorial, gcd, lcm

# -- the paper's exact values ------------------------------------------------

# Pairing tables, keyed by the monomial's sorted (index, exponent) factors.
PRESET_TABLES = {
    "K3": (1, {(): 1, ((2, 1),): 24}),
    "K3_2": (2, {(): 3, ((2, 1),): 30, ((2, 2),): 828, ((4, 1),): 324}),
    "K3_3": (3, {
        (): 15, ((2, 1),): 108, ((2, 2),): 1848, ((4, 1),): 2424,
        ((2, 3),): 36800, ((2, 1), (4, 1)): 14720, ((6, 1),): 3200,
    }),
}
C_K3 = Fraction(8)
K3_2_SHIFTED_SQUARE = Fraction(21, 5)  # (C(K3_2) - 3)^2
K3_3_POLY = [-10560, -31680, -35640, 6930]
Z_POLY = [-16, -8, 1]  # minimal polynomial of the z-pairing root 4 + 4*sqrt(2)
DERIVED_WEIGHT4 = (Fraction(1848), Fraction(2424))  # (c2^2, c4) pairings
DERIVED_WEIGHT6 = (Fraction(36800), Fraction(14720))  # (c2^3, c2*c4)
QUOTED_C_K3_3 = "5.9538"  # the commonly quoted, wrong, rounding


class OracleReject(ValueError):
    """A family document that a correct program must refuse."""


# -- integer polynomials -----------------------------------------------------


def trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def primitive(p) -> list[int]:
    """Integer multiple with content 1 and positive leading coefficient."""
    p = [Fraction(c) for c in trim(p)]
    if not p:
        return []
    den = lcm(*(c.denominator for c in p))
    ints = _content_free([int(c * den) for c in p])
    return [-c for c in ints] if ints[-1] < 0 else ints


def _derivative(p):
    return [i * c for i, c in enumerate(p)][1:]


def _divmod(a, b):
    """Quotient and remainder of a by b over Q (long division on Fractions)."""
    a = [Fraction(c) for c in a]
    quotient = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b) and a:
        factor = a[-1] / b[-1]
        shift = len(a) - len(b)
        quotient[shift] = factor
        for i, c in enumerate(b):
            a[shift + i] -= factor * c
        a = trim(a)
    return quotient, a


def squarefree(p) -> list[int]:
    """Primitive square-free part of p."""
    p = primitive(p)
    if len(p) <= 2:
        return p
    a, b = p, _derivative(p)
    while b:
        a, b = b, _divmod(a, b)[1]
    if len(a) <= 1:
        return p
    return primitive(_divmod(p, a)[0])


def _prem_positive(a: list[int], b: list[int]) -> list[int]:
    """|lc(b)|^k * a mod b, for the k that keeps the division integral."""
    lc = abs(b[-1])
    sign = 1 if b[-1] > 0 else -1
    a = list(a)
    while len(a) >= len(b) and a:
        lead = a[-1]
        shift = len(a) - len(b)
        a = [c * lc for c in a]
        for i, c in enumerate(b):
            a[shift + i] -= lead * sign * c
        a = trim(a)
    return a


def sturm(p: list[int]) -> list[list[int]]:
    """Sturm chain of a square-free integer polynomial, up to positive factors."""
    chain = [p, _derivative(p)]
    while len(chain[-1]) > 1:
        rem = _prem_positive(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in _content_free(rem)])
    return chain


def _content_free(p: list[int]) -> list[int]:
    g = 0
    for c in p:
        g = gcd(g, c)
    return [c // g for c in p]


def sign_at(p: list[int], x: Fraction) -> int:
    """Sign of p(x), by integer Horner on the homogenised polynomial."""
    num, den = x.numerator, x.denominator
    acc = 0
    scale = 1
    for c in reversed(p):
        acc = acc * num + c * scale
        scale *= den
    # acc = p(x) * den^deg with den > 0, so it has the sign of p(x)
    return (acc > 0) - (acc < 0)


def _variations(signs) -> int:
    count, prev = 0, 0
    for s in signs:
        if s == 0:
            continue
        if prev and s != prev:
            count += 1
        prev = s
    return count


def _v_at(chain, x: Fraction) -> int:
    return _variations(sign_at(q, x) for q in chain)


def _v_plus_inf(chain) -> int:
    return _variations((1 if q[-1] > 0 else -1) for q in chain)


def _v_minus_inf(chain) -> int:
    return _variations(
        ((1 if q[-1] > 0 else -1) * (-1 if (len(q) - 1) % 2 else 1)) for q in chain
    )


def roots_above(chain, x: Fraction) -> int:
    """Number of distinct real roots strictly greater than x."""
    return _v_at(chain, Fraction(x)) - _v_plus_inf(chain)


def real_root_count(chain) -> int:
    return _v_minus_inf(chain) - _v_plus_inf(chain)


# -- certified decimals -------------------------------------------------------


def parse_decimal(text: str) -> tuple[Fraction, Fraction, int]:
    """(value, ulp, significant digits) of a decimal string."""
    dec = Decimal(text)
    if not dec.is_finite():
        raise ValueError(f"not a finite decimal: {text!r}")
    _, digits, exponent = dec.as_tuple()
    return Fraction(dec), Fraction(10) ** exponent, len(digits)


def check_largest_root(poly, decimal: str | None, sig_digits: int,
                       rational: str | None = None) -> str | None:
    """Why the claim about the largest real root of ``poly`` is wrong, or None.

    ``decimal`` None claims there is no real root.  ``rational`` names an
    exact rational value; None claims the root is irrational.
    """
    p = squarefree(poly)
    if len(p) < 2:
        return "polynomial is constant"
    chain = sturm(p)
    if decimal is None:
        count = real_root_count(chain)
        return None if count == 0 else f"claimed no real root, found {count}"
    try:
        value, ulp, digits = parse_decimal(decimal)
    except ArithmeticError as exc:
        return f"unparseable decimal {decimal!r}: {exc}"
    except ValueError as exc:
        return str(exc)
    if rational is not None:
        r = Fraction(rational)
        if sign_at(p, r) != 0:
            return f"claimed rational root {rational} is not a root"
        if roots_above(chain, r) != 0:
            return f"{rational} is a root but not the largest"
        if abs(r - value) * 2 > ulp:
            return f"decimal {decimal} does not round {rational}"
        return None
    if digits != sig_digits:
        return f"decimal {decimal} has {digits} significant digits, wanted {sig_digits}"
    lo, hi = value - ulp / 2, value + ulp / 2
    s_lo, s_hi = sign_at(p, lo), sign_at(p, hi)
    if s_lo * s_hi >= 0:
        return f"no sign change across the half-ulp interval of {decimal}"
    if roots_above(chain, hi) != 0:
        return f"a root larger than {decimal} exists"
    # Every rational root of the primitive p is N/L with L its leading
    # coefficient; shrink below width 1/L and test the candidates left.
    lead = p[-1]
    while (hi - lo) * lead >= 1:
        mid = (lo + hi) / 2
        s_mid = sign_at(p, mid)
        if s_mid == 0:
            return f"root {mid} is rational but was reported irrational"
        if s_mid == s_lo:
            lo = mid
        else:
            hi = mid
    first = (lo * lead).__floor__() + 1
    for n in range(first, (hi * lead).__ceil__()):
        if sign_at(p, Fraction(n, lead)) == 0:
            return f"root {Fraction(n, lead)} is rational but was reported irrational"
    return None


def rounds_to(value: Fraction, decimal: str) -> bool:
    """Does ``value`` lie in the closed half-ulp interval of ``decimal``?"""
    center, ulp, _ = parse_decimal(decimal)
    return abs(value - center) * 2 <= ulp


# -- families ----------------------------------------------------------------


def even_partitions(weight: int, largest: int | None = None):
    """Monomials of the given weight in c2, c4, ...: sorted factor tuples."""
    if largest is None:
        largest = weight
    if weight == 0:
        yield ()
        return
    top = min(weight, largest)
    top -= top % 2
    for part in range(top, 1, -2):
        for rest in even_partitions(weight - part, part):
            counts = dict(rest)
            counts[part] = counts.get(part, 0) + 1
            yield tuple(sorted(counts.items()))


def segre_pairings(n: int, table) -> list[Fraction]:
    """[d_0, d_2, ..., d_2n] by the closed form of the Segre class 1/c."""
    out = []
    for j in range(n + 1):
        total = Fraction(0)
        for mono in even_partitions(2 * n - 2 * j):
            size = sum(e for _, e in mono)
            coeff = factorial(size)
            for _, e in mono:
                coeff //= factorial(e)
            total += (-1) ** size * coeff * Fraction(table[mono])
        out.append(total)
    return out


def threshold_poly(n: int, table) -> list[Fraction]:
    """p(t) = sum binom(4n-1, 2i) d_{2i} t^i."""
    d = segre_pairings(n, table)
    return trim(comb(4 * n - 1, 2 * i) * d[i] for i in range(n + 1))


def gamma_poly(poly, q: Fraction) -> list[Fraction]:
    """p(q s^2): its largest root is sqrt(C/q) when C > 0."""
    out = [Fraction(0)] * (2 * len(poly) - 1)
    for i, c in enumerate(poly):
        out[2 * i] = Fraction(c) * Fraction(q) ** i
    return out


def validate_doc(doc) -> tuple[int, dict]:
    """(n, table) of a well-formed, complete family document.

    Raises OracleReject for anything a careful reader must refuse: a
    non-integer or non-positive n, a bad monomial, a wrong omega power, a
    duplicate, an unparseable constant, a zero top pairing or a missing
    monomial.
    """
    n = doc["n"]
    if not isinstance(n, int) or n < 1:
        raise OracleReject(f"bad n {n!r}")
    table = {}
    for entry in doc["pairings"]:
        factors = []
        for index, exponent in entry["monomial"].items():
            index, exponent = int(index), int(exponent)
            if index <= 0 or index % 2 or exponent < 0:
                raise OracleReject(f"bad Chern factor c{index}^{exponent}")
            if exponent:
                factors.append((index, exponent))
        mono = tuple(sorted(factors))
        weight = sum(i * e for i, e in mono)
        if weight > 2 * n:
            raise OracleReject(f"weight {weight} above dimension {2 * n}")
        if entry["omega_power"] != 2 * n - weight:
            raise OracleReject(f"wrong omega power for {mono}")
        if mono in table:
            raise OracleReject(f"duplicate {mono}")
        try:
            table[mono] = Fraction(str(entry["constant"]).strip())
        except (ValueError, ZeroDivisionError):
            raise OracleReject(f"bad constant {entry['constant']!r}") from None
    if table.get((), 0) == 0:
        raise OracleReject("missing or zero top pairing")
    for w in range(2, 2 * n + 1, 2):
        for mono in even_partitions(w):
            if mono not in table:
                raise OracleReject(f"missing monomial {mono}")
    return n, table


# -- self check ---------------------------------------------------------------


def preset_poly(name: str) -> list[Fraction]:
    n, table = PRESET_TABLES[name]
    return threshold_poly(n, table)


def self_check() -> None:
    """The closed form must reproduce the paper's exact values."""
    k3 = preset_poly("K3")
    if sign_at(primitive(k3), C_K3) != 0 or len(k3) != 2:
        raise AssertionError("C(K3) is not 8")
    # p(t) = 105 t^2 - 630 t + 504 = 105 ((t - 3)^2 - 21/5)
    shifted = [Fraction(105) * (9 - K3_2_SHIFTED_SQUARE), Fraction(-630), Fraction(105)]
    if preset_poly("K3_2") != shifted:
        raise AssertionError("(C(K3_2) - 3)^2 is not 21/5")
    if preset_poly("K3_3") != [Fraction(c) for c in K3_3_POLY]:
        raise AssertionError("K3_3 threshold polynomial differs from the paper")
    if check_largest_root(K3_3_POLY, "5.95368", 6) is not None:
        raise AssertionError("C(K3_3) does not certify as 5.95368")
    if check_largest_root(Z_POLY, "9.65685", 6) is not None:
        raise AssertionError("4 + 4*sqrt(2) does not certify as 9.65685")
