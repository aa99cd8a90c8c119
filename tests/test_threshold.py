from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hktwist.algebraic import AlgebraicReal
from hktwist.exact import UniPoly
from hktwist.family import preset
from hktwist.threshold import (
    build_threshold_poly,
    constant_C,
    gamma_p,
    is_pseff_sufficient,
    pseff_cone_member,
    threshold_result,
)

from radical_form import cube_radical_interval


def test_threshold_polys():
    assert build_threshold_poly(preset("K3")) == UniPoly((-24, 3))
    assert build_threshold_poly(preset("K3_2")) == UniPoly((504, -630, 105))
    assert build_threshold_poly(preset("K3_3")) == UniPoly(
        (-10560, -31680, -35640, 6930)
    )


def test_constant_k3_exact():
    c = constant_C(preset("K3"))
    assert c.is_rational and c.rational_value() == 8


def test_constant_k3_2():
    poly, c = threshold_result(preset("K3_2"))
    assert not c.is_rational
    assert c.decimal(6) == "5.04939"
    assert c.is_root_of(poly)
    # (C - 3)^2 == 21/5 exactly
    shifted = AlgebraicReal(c.poly.compose(UniPoly((3, 1))), c.lo - 3, c.hi - 3)
    assert shifted.square().rational_value() == Fraction(21, 5)


def test_constant_k3_3():
    from hktwist.algebraic import isolate_real_roots

    poly, c = threshold_result(preset("K3_3"))
    roots = isolate_real_roots(poly)
    assert len(roots) == 1
    assert c.decimal(6) == "5.95368"
    assert c.is_root_of(poly)
    # beyond C the polynomial stays positive
    assert poly(Fraction(6)) > 0 and poly(Fraction(100)) > 0
    assert poly(Fraction(5)) < 0


def test_cube_radical_matches_root():
    lo, hi = cube_radical_interval(Fraction(1, 10**9))
    assert hi - lo <= Fraction(1, 10**9)
    root = constant_C(preset("K3_3")).refine_to(Fraction(1, 10**9))
    assert not (root.hi < lo or hi < root.lo)


def test_is_pseff_sufficient():
    assert is_pseff_sufficient(preset("K3"), Fraction(8)) is True
    assert is_pseff_sufficient(preset("K3"), Fraction(7)) is False
    assert is_pseff_sufficient(preset("K3_2"), Fraction(5)) is False
    assert is_pseff_sufficient(preset("K3_2"), Fraction(6)) is True
    with pytest.raises(ValueError):
        is_pseff_sufficient(preset("K3"), Fraction(-1))


def test_gamma_p_values():
    g = gamma_p(preset("K3"), Fraction(32))
    assert g.is_rational and g.rational_value() == Fraction(1, 2)
    assert gamma_p(preset("K3"), Fraction(8)).rational_value() == 1
    g2 = gamma_p(preset("K3_2"), Fraction(6))
    assert g2.decimal(6) == "0.917369"
    with pytest.raises(ValueError):
        gamma_p(preset("K3"), Fraction(0))
    with pytest.raises(ValueError):
        gamma_p(preset("K3"), Fraction(-3))


def test_cone_membership():
    fam = preset("K3")
    assert pseff_cone_member(fam, Fraction(1), Fraction(8), True) is True
    assert pseff_cone_member(fam, Fraction(1), Fraction(8), False) is False
    assert pseff_cone_member(fam, Fraction(-1), Fraction(8), True) is False
    assert pseff_cone_member(fam, Fraction(0), Fraction(0), True) is True
    assert pseff_cone_member(fam, Fraction(2), Fraction(31), True) is False
    assert pseff_cone_member(fam, Fraction(2), Fraction(32), True) is True
    with pytest.raises(ValueError):
        pseff_cone_member(fam, Fraction(1), Fraction(-1), True)


_presets = st.sampled_from(["K3", "K3_2", "K3_3"])
_positive_q = st.fractions(
    min_value=Fraction(1, 4), max_value=60, max_denominator=8
)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_presets, _positive_q)
def test_gamma_squared_times_q_is_C(name, q):
    """gamma_p(q)^2 * q == C for every family and positive q."""
    fam = preset(name)
    gamma = gamma_p(fam, q)
    assert gamma.square().scale(q) == constant_C(fam)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    _presets,
    st.fractions(min_value=0, max_value=12, max_denominator=6),
    st.fractions(min_value=0, max_value=80, max_denominator=6),
    st.fractions(min_value=Fraction(1, 3), max_value=9, max_denominator=4),
)
def test_cone_membership_is_homogeneous(name, a, q_delta, s):
    """member(a, q) iff member(s*a, s^2*q) for every scaling s > 0."""
    fam = preset(name)
    direct = pseff_cone_member(fam, a, q_delta, True)
    scaled = pseff_cone_member(fam, s * a, s * s * q_delta, True)
    assert direct == scaled
