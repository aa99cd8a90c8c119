from fractions import Fraction

import pytest

from hktwist.algebraic import AlgebraicReal, isolate_real_roots
from hktwist.exact import UniPoly
from hktwist.hilbert_square import (
    PBClass,
    _part,
    _segre_class,
    alpha,
    delta,
    ell,
    exceptional,
    kahler_criterion,
    minimal_table,
    pb_top_intersect,
    pushforward_rows,
    sbar,
    segre2,
    square_chern_table,
    square_intersect,
    unit,
    z_class,
    z_pairing,
)


def test_minimal_table_rows():
    rows = dict(minimal_table())
    assert rows["alpha^4"] == UniPoly((0, 0, 3))
    assert rows["alpha^2*delta^2"] == UniPoly((0, -2))
    assert rows["delta^4"] == UniPoly((12,))
    assert rows["alpha^2*sbar"] == UniPoly((0, 1))
    assert rows["delta^2*sbar"] == UniPoly((-1,))
    assert rows["sbar^2"] == UniPoly((1,))
    assert rows["alpha^3*delta"].is_zero
    assert rows["alpha*delta^3"].is_zero
    assert rows["alpha*delta*sbar"].is_zero


@pytest.mark.parametrize("u, v", [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1)])
def test_divisor_rows_satisfy_the_fujiki_relation(u, v):
    # x = u*alpha + v*delta with q(alpha) = a, q(delta) = -2, q(alpha, delta) = 0:
    # integral of x^4 = 3 q(x)^2 (Fujiki constant 3 of K3^[2])
    q_x = UniPoly((-2 * v * v, u * u))
    assert square_intersect((alpha() * u + delta() * v) ** 4) == q_x * q_x * 3


def test_segre_class_is_the_inverse_of_the_total_chern_class():
    total_chern = unit() + sbar() * 24 - delta() ** 2 * 3 + sbar() ** 2 * 324
    s = _segre_class()
    assert s * total_chern == unit()
    assert s == unit() + segre2() + segre2() ** 2 - sbar() ** 2 * 324
    assert square_intersect(_part(s, 4)) == UniPoly((504,))  # s4 = s2^2 - c4


def test_square_intersect_requires_weight4():
    with pytest.raises(ValueError):
        square_intersect(alpha() * alpha())


def test_ell_rewrites_to_sbar_delta():
    assert square_intersect(ell() * delta()) == square_intersect(
        sbar() * delta() * delta()
    )


def test_pushforward_rows():
    rows = dict(pushforward_rows())
    assert rows["zeta^7"] == UniPoly((504,))
    assert rows["zeta^5*sbar"] == UniPoly((-27,))
    assert rows["zeta^5*delta^2"] == UniPoly((60,))
    assert rows["zeta^5*alpha*delta"].is_zero
    assert rows["zeta^5*alpha^2"] == UniPoly((0, -30))
    assert rows["zeta^3*sbar*delta^2"] == UniPoly((-1,))
    assert rows["zeta^3*delta^4"] == UniPoly((12,))
    assert rows["zeta^3*sbar^2"] == UniPoly((1,))


def test_pushforward_requires_degree7():
    with pytest.raises(ValueError):
        pb_top_intersect(PBClass(5, unit()))


def test_odd_pullback_weights_vanish():
    assert pb_top_intersect(PBClass(7, delta() + ell())).is_zero


def test_z_class_components():
    z = z_class()
    assert z.degree == 2
    assert z.component(0) == unit() * 2
    assert z.component(1) == delta() * 2
    assert z.component(2) == sbar() * 24 - delta() * delta() * 6


def test_z_pairing_polynomial():
    assert z_pairing() == UniPoly((-480, -240, 30))
    assert z_pairing()(Fraction(0)) == -480


def test_z_pairing_largest_root():
    roots = isolate_real_roots(z_pairing())
    top = roots[-1]
    assert top.decimal(6) == "9.65685"
    # equals 4 + 4*sqrt(2): (x - 4)^2 == 32
    shifted = AlgebraicReal(
        top.poly.compose(UniPoly((4, 1))), top.lo - 4, top.hi - 4
    )
    assert shifted.square().rational_value() == 32


def test_kahler_polynomials():
    w4, w3e, w2s, wl = kahler_criterion()
    assert w4 == UniPoly((12, -12, 3))  # 3(a-2)^2
    assert w3e == UniPoly((-24, 12))  # 12(a-2)
    assert w2s == UniPoly((-1, 1))  # a - 1
    assert wl == UniPoly((1,))


def test_kahler_predicate():
    for a, expected in [
        (Fraction(1), False),
        (Fraction(2), False),
        (Fraction(5, 2), True),
        (Fraction(3), True),
        (Fraction(10), True),
    ]:
        values, positive = kahler_criterion(a)
        assert positive is expected
        if expected:
            assert all(v > 0 for v in values)


def test_exceptional_is_twice_delta():
    assert exceptional() == delta() * 2


def test_square_chern_table_self_checks():
    table = square_chern_table()
    assert table["s2"] == segre2()
    assert table["s2^2"] == 828
    assert table["c4"] == 324
    assert table["s4"] == 504


def test_segre2_squared_from_minimal_table():
    assert square_intersect(segre2() * segre2()) == UniPoly((828,))


def test_pbclass_validates_components():
    with pytest.raises(ValueError):
        PBClass(2, ell())  # weight above the fiber degree
    with pytest.raises(ValueError):
        PBClass(-1)


@pytest.mark.parametrize("j", [0, 1, 2])
def test_pushforward_agrees_with_closed_form_segre_pairings(j):
    # zeta^(7-2j) . pi^*(alpha^(2j)) pushes forward to s_{4-2j} . alpha^(2j) = d_{2j} a^j
    from hktwist.family import preset

    d = preset("K3_2").segre_pairings()
    assert d == [504, -30, 3]
    expected = UniPoly([0] * j + [d[j]])
    assert pb_top_intersect(PBClass(7, alpha() ** (2 * j))) == expected
