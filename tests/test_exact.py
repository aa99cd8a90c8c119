from fractions import Fraction

import pytest

from hktwist.exact import UniPoly, decimal_str, format_rational, parse_rational


def test_parse_rational_refuses_huge_exponents():
    """Refused from the text alone: 10^10000000 would take seconds to build
    and could not be printed."""
    assert parse_rational("1.5e-3") == Fraction(3, 2000)
    assert parse_rational("1E3999") == 10**3999  # mantissa length 1 + 3999 digits
    assert parse_rational("-1e-3998") == Fraction(-1, 10**3998)
    for text in ("1e4000", "1e-4000", "1e3_999_0", "−1E+5000", "1e-10000000"):
        with pytest.raises(ValueError, match="exponent out of range"):
            parse_rational(text)
    with pytest.raises(ValueError):
        parse_rational("1e" + "9" * 5000)


def test_parse_rational_forms():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == Fraction(-2)
    assert parse_rational("0.25") == Fraction(1, 4)
    assert parse_rational("−5") == Fraction(-5)  # unicode minus
    with pytest.raises(ValueError):
        parse_rational("one half")


def test_format_roundtrip():
    for text in ["0", "7", "-3", "21/5", "-7/4"]:
        assert format_rational(parse_rational(text)) == text


def test_decimal_str():
    assert decimal_str(Fraction(1, 3), 6) == "0.333333"
    assert decimal_str(Fraction(8), 6) == "8"
    assert decimal_str(Fraction(-21, 5), 4) == "-4.2"
    assert decimal_str(Fraction(123456789, 1000), 6) == "123457"


def test_poly_basics():
    p = UniPoly((-24, 3))
    assert p.degree == 1
    assert p(Fraction(8)) == 0
    assert p.coeff(5) == 0
    assert UniPoly.zero().degree == -1
    assert str(p) == "3t - 24"


def test_poly_arithmetic():
    p = UniPoly((1, 1))
    q = UniPoly((-1, 1))
    assert p * q == UniPoly((-1, 0, 1))
    assert p + q == UniPoly((0, 2))
    assert p - p == UniPoly.zero()
    assert p**3 == UniPoly((1, 3, 3, 1))
    assert (p * 2)(Fraction(1)) == 4


def test_poly_divmod():
    p = UniPoly((-1, 0, 1))
    quo, rem = divmod(p, UniPoly((-1, 1)))
    assert quo == UniPoly((1, 1)) and rem.is_zero
    quo, rem = divmod(p, UniPoly((0, 1)))
    assert quo == UniPoly((0, 1)) and rem == UniPoly((-1,))


def test_gcd_and_squarefree():
    p = UniPoly((-1, 1)) ** 2 * UniPoly((2, 1))
    g = p.gcd(p.derivative())
    assert g == UniPoly((-1, 1))
    sf = p.squarefree_part()
    assert sf == (UniPoly((-1, 1)) * UniPoly((2, 1))).monic()


def test_primitive():
    p = UniPoly((Fraction(1, 2), Fraction(3, 4)))
    prim = p.primitive()
    assert prim == UniPoly((2, 3))
    assert UniPoly((-2, -4)).primitive() == UniPoly((1, 2))


def test_compose():
    p = UniPoly((-24, 3))
    inner = UniPoly((0, 0, Fraction(2)))  # 2s^2
    assert p.compose(inner) == UniPoly((-24, 0, 6))


def test_render():
    assert UniPoly((504, -630, 105)).render() == "105t^2 - 630t + 504"
    assert UniPoly((0, -1, 0, 1)).render("a") == "a^3 - a"
    assert UniPoly((Fraction(1, 2),)).render() == "1/2"
    assert UniPoly((0, Fraction(-1, 3))).render() == "-(1/3)t"
    assert UniPoly.zero().render() == "0"


def test_json_roundtrip():
    p = UniPoly((Fraction(-10560), Fraction(-31680), Fraction(-35640), Fraction(6930)))
    assert UniPoly.from_json(p.to_json()) == p
    assert p.to_json() == ["-10560", "-31680", "-35640", "6930"]
