from fractions import Fraction
from math import comb, factorial

from hktwist.family import preset
from hktwist.riemann_roch import (
    TRUNCATION,
    _log_todd_coeffs,
    chi_cube_poly,
    cube_chern_numbers,
    derivation_trace,
    derive_constants,
    nieper_match,
    rr_lhs,
    rr_match,
    rr_rhs,
    sqrt_todd6,
    todd6,
)
from hktwist.series import ChernMonomial, GradedSeries, UNIT

C2 = ChernMonomial({2: 1})
C2SQ = ChernMonomial({2: 2})
C4 = ChernMonomial({4: 1})
C2CUBE = ChernMonomial({2: 3})
C2C4 = ChernMonomial({2: 1, 4: 1})
C6 = ChernMonomial({6: 1})


def test_todd_series_through_weight6():
    td = todd6()
    assert td.constant == 1
    assert td.coeff(C2) == Fraction(1, 12)
    assert td.coeff(C2SQ) == Fraction(1, 240)
    assert td.coeff(C4) == Fraction(-1, 720)
    assert td.coeff(C2CUBE) == Fraction(1, 6048)
    assert td.coeff(C2C4) == Fraction(-1, 6720)
    assert td.coeff(C6) == Fraction(1, 30240)


def _newton_power_sums():
    """Newton's identities with the odd Chern classes zero: p2, p4, p6."""
    c2, c4, c6 = (GradedSeries.symbol(k, TRUNCATION) for k in (2, 4, 6))
    return {2: c2 * -2, 4: c2 * c2 * 2 - c4 * 4, 6: c2**3 * -2 + c2 * c4 * 6 - c6 * 6}


def test_power_sums_are_read_off_log_c():
    """(-1)^(k+1) k times the weight-k part of log c(X) is Newton's p_k, and
    the Todd series built from Newton's power sums is todd6()."""
    c_minus_1 = GradedSeries(TRUNCATION, {C2: 1, C4: 1, C6: 1})
    log_c = c_minus_1._apply(lambda k: Fraction((-1) ** (k + 1), k) if k else 0)
    newton = _newton_power_sums()
    for k in range(1, TRUNCATION + 1):
        read_off = GradedSeries(TRUNCATION, log_c.component(k)) * ((-1) ** (k + 1) * k)
        assert read_off == newton.get(k, GradedSeries(TRUNCATION)), k
    logq = _log_todd_coeffs(TRUNCATION)
    log_td = sum((p * logq[k] for k, p in newton.items()), GradedSeries(TRUNCATION))
    assert log_td._apply(lambda k: Fraction(1, factorial(k))) == todd6()


def test_sqrt_todd_coefficients():
    root = sqrt_todd6()
    assert root.coeff(C2) == Fraction(1, 24)
    assert root.coeff(C2SQ) == Fraction(7, 5760)
    assert root.coeff(C4) == Fraction(-1, 1440)
    assert root.coeff(C2CUBE) == Fraction(31, 967680)
    assert root.coeff(C2C4) == Fraction(-11, 241920)
    assert root.coeff(C6) == Fraction(1, 60480)
    assert root * root == todd6()


def test_chi_cubic():
    cubic = chi_cube_poly()
    assert cubic.coeffs == (
        Fraction(4),
        Fraction(13, 6),
        Fraction(3, 8),
        Fraction(1, 48),
    )


def test_rr_expansion_factors():
    lhs = rr_lhs()
    assert lhs[3].coeff(UNIT) == Fraction(1, 720)
    assert lhs[2].coeff(C2) == Fraction(1, 288)
    assert lhs[1].coeff(C2SQ) == Fraction(1, 480)
    assert lhs[1].coeff(C4) == Fraction(-1, 1440)
    rhs = rr_rhs()
    assert rhs[0].constant == 4


def test_rr_match():
    m = rr_match()
    assert m["top"] == 15
    assert m["c2"] == 108
    assert m["equation1"] == (Fraction(3), Fraction(-1), Fraction(3120))


def test_cube_chern_numbers():
    assert cube_chern_numbers() == (
        Fraction(36800),
        Fraction(14720),
        Fraction(3200),
    )


def test_nieper_match():
    n = nieper_match()
    assert n["lambda"] == Fraction(1, 3)
    assert n["r6"] == Fraction(9, 16)
    assert n["sqrt_td_c2sq"] == Fraction(7, 5760)
    assert n["equation2"] == (Fraction(7, 4), Fraction(-1), Fraction(810))


def test_derive_constants_matches_preset():
    constants = derive_constants()
    assert constants[UNIT] == 15
    assert constants[C2] == 108
    assert constants[C2SQ] == 1848
    assert constants[C4] == 2424
    fam = preset("K3_3")
    for monomial, value in constants.items():
        assert fam.pair(monomial) == value


def test_solved_pair_satisfies_both_equations():
    constants = derive_constants()
    a, b = constants[C2SQ], constants[C4]
    assert 3 * a - b == 3120
    assert Fraction(7, 4) * a - b == 810


def test_derivation_trace_mentions_key_steps():
    text = "\n".join(derivation_trace())
    assert "3*A - B = 3120" in text
    assert "7/4*A - B = 810" in text
    assert "lambda coefficient = 1/3" in text
    assert "top = 15, c2 = 108, c2^2 = 1848, c4 = 2424" in text


def _sqrt_todd_rows(family):
    """The rows of integral sqrt(Td) * e^L on ``family``, q^0 first: the q^k row
    pairs sqrt(Td)'s weight-(2n - 2k) part with L^(2k), weighted 1/(2k)!."""
    root, n = sqrt_todd6(), family.n
    return [
        sum(
            (c * family.pair(m) for m, c in root.component(2 * n - 2 * k).items()),
            Fraction(0),
        ) / factorial(2 * k)
        for k in range(n + 1)
    ]


def test_sqrt_todd_identity_holds_row_by_row_with_factorial_weights():
    """integral sqrt(Td) * e^L = integral sqrt(Td) * (1 + 2q/(n + 3))^n, row by
    row, with integral sqrt(Td) = (n + 3)^n / (4^n * n!), on the K3 and K3_2
    tables.  Read with unit weight instead, the K3_2 q^1 row would be 5/4."""
    expected = {
        "K3": [1, Fraction(1, 2)],
        "K3_2": [Fraction(25, 32), Fraction(5, 8), Fraction(1, 8)],
    }
    for name, rows in expected.items():
        family = preset(name)
        n = family.n
        volume = Fraction((n + 3) ** n, 4**n * factorial(n))
        assert _sqrt_todd_rows(family) == rows
        assert rows == [volume * comb(n, k) * Fraction(2, n + 3) ** k for k in range(n + 1)]
