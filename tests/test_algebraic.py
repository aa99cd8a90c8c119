import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from hktwist.algebraic import (
    AlgebraicReal,
    count_roots,
    isolate_real_roots,
    largest_real_root,
    simplest_between,
    sturm_chain,
)
from hktwist.exact import UniPoly


def test_sturm_counts_halfopen():
    p = UniPoly((-2, 0, 1))  # t^2 - 2
    chain = sturm_chain(p)
    assert count_roots(chain, Fraction(0), Fraction(2)) == 1
    assert count_roots(chain, Fraction(-2), Fraction(2)) == 2
    # right endpoint included, left excluded
    q = UniPoly((-1, 1))
    chain_q = sturm_chain(q)
    assert count_roots(chain_q, Fraction(0), Fraction(1)) == 1
    assert count_roots(chain_q, Fraction(1), Fraction(2)) == 0


def test_simplest_between():
    assert simplest_between(Fraction(2), Fraction(5, 2)) == Fraction(7, 3)
    assert simplest_between(Fraction(0), Fraction(1, 2)) == Fraction(1, 3)
    assert simplest_between(Fraction(-5, 2), Fraction(-2)) == Fraction(-7, 3)
    assert simplest_between(Fraction(77, 10), Fraction(83, 10)) == Fraction(8)


def test_rational_roots_snap():
    roots = isolate_real_roots(UniPoly((-24, 3)))
    assert len(roots) == 1
    assert roots[0].is_rational and roots[0].rational_value() == 8


@pytest.mark.parametrize("denominator", [1000003, 10**12 + 39])
def test_large_denominator_rational_root_is_exact(denominator):
    """A rational root with any denominator snaps exactly, and quickly."""
    start = time.perf_counter()
    roots = isolate_real_roots(UniPoly((-1, denominator)) * UniPoly((-2, 0, 1)))
    elapsed = time.perf_counter() - start
    assert len(roots) == 3
    assert [r.is_rational for r in roots] == [False, True, False]
    assert roots[1].rational_value() == Fraction(1, denominator)
    assert elapsed < 1.0


def test_sqrt2():
    r = largest_real_root(UniPoly((-2, 0, 1)))
    assert not r.is_rational
    assert r.decimal(6) == "1.41421"
    assert r.square().rational_value() == 2
    assert r.is_root_of(UniPoly((-4, 0, 0, 0, 1)))  # t^4 - 4
    assert not r.is_root_of(UniPoly((-3, 0, 1)))


def test_no_real_roots():
    assert isolate_real_roots(UniPoly((1, 0, 1))) == []


def test_zero_root_and_multiplicity():
    roots = isolate_real_roots(UniPoly((0, 0, 1)))  # t^2
    assert len(roots) == 1 and roots[0].rational_value() == 0
    # (t-1)^3 collapses to a single root
    roots = isolate_real_roots(UniPoly((-1, 3, -3, 1)))
    assert len(roots) == 1 and roots[0].rational_value() == 1


def test_ordering_and_equality():
    sqrt2 = largest_real_root(UniPoly((-2, 0, 1)))
    sqrt2_again = largest_real_root(UniPoly((-4, 0, 2)))
    assert sqrt2 == sqrt2_again
    assert sqrt2 < Fraction(3, 2)
    assert sqrt2 > Fraction(7, 5)
    cbrt3 = largest_real_root(UniPoly((-3, 0, 0, 1)))
    assert sqrt2 < cbrt3


def test_square_folds_negative_roots():
    # roots 1, sqrt2, -sqrt2, -3: squares are {1, 2, 2, 9}
    p = UniPoly((-2, 0, 1)) * UniPoly((-1, 1)) * UniPoly((3, 1))
    squares = sorted(r.square() for r in isolate_real_roots(p))
    values = [s.rational_value() for s in squares]
    assert values == [1, 2, 2, 9]


def test_scale():
    sqrt2 = largest_real_root(UniPoly((-2, 0, 1)))
    scaled = sqrt2.scale(Fraction(3, 2))
    assert scaled.decimal(6) == "2.12132"
    assert scaled.square().rational_value() == Fraction(9, 2)
    neg = sqrt2.scale(Fraction(-1))
    assert neg < 0 and neg.square().rational_value() == 2


def test_refine_and_endpoint_invariant():
    r = largest_real_root(UniPoly((-10560, -31680, -35640, 6930)))
    tight = r.refine_to(Fraction(1, 10**9))
    assert tight.hi - tight.lo <= Fraction(1, 10**9)
    assert tight.poly(tight.lo) * tight.poly(tight.hi) < 0
    assert tight.decimal(12) == "5.95367895498"


def test_point_interval_requires_root():
    with pytest.raises(ValueError):
        AlgebraicReal(UniPoly((-2, 0, 1)), Fraction(1), Fraction(1))


def test_compare_rejects_wrong_interval():
    with pytest.raises(ValueError):
        AlgebraicReal(UniPoly((-2, 0, 1)), Fraction(2), Fraction(3))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    st.lists(
        st.fractions(min_value=-30, max_value=30, max_denominator=12),
        min_size=1,
        max_size=5,
        unique=True,
    )
)
def test_recovers_rational_roots(roots):
    """Products of (t - r_i) are isolated back to exactly {r_i}."""
    poly = UniPoly((1,))
    for r in roots:
        poly = poly * UniPoly((-r, 1))
    found = isolate_real_roots(poly)
    assert len(found) == len(roots)
    assert all(f.is_rational for f in found)
    assert sorted(f.rational_value() for f in found) == sorted(roots)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    st.fractions(min_value=Fraction(1, 50), max_value=100, max_denominator=50),
)
def test_square_of_sqrt_recovers_value(value):
    """sqrt(v)^2 == v for v drawn from positive rationals."""
    p = UniPoly((-value, 0, 1))
    root = largest_real_root(p)
    assert root.square() == AlgebraicReal.from_rational(value)


def _fraction(value) -> Fraction:
    return Fraction(int(value.p), int(value.q))


_planted = st.tuples(
    st.integers(min_value=1, max_value=10**9),  # denominator d
    st.integers(min_value=-3, max_value=3),  # the root m/d lies near this integer
    st.integers(min_value=-5, max_value=5),  # m = that integer * d + this offset
    st.integers(min_value=1, max_value=3),  # multiplicity
    st.booleans(),  # also plant the neighbour (m + 1)/d: a tight cluster
)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    st.lists(_planted, min_size=1, max_size=3),
    st.lists(st.integers(min_value=-9, max_value=9), min_size=0, max_size=3),
    st.integers(min_value=1, max_value=9),
)
def test_isolation_matches_sympy(planted, cofactor_low, cofactor_lead):
    """Planted (d*t - m) factors times a random cofactor, checked against sympy.

    Root count and order must match ``Poly.intervals()``, and the exact
    rational roots must equal ``Poly.ground_roots()``.
    """
    poly = UniPoly(cofactor_low + [cofactor_lead])
    for d, whole, offset, mult, neighbour in planted:
        m = whole * d + offset
        poly = poly * UniPoly((-m, d)) ** mult
        if neighbour:
            poly = poly * UniPoly((-(m + 1), d))
    roots = isolate_real_roots(poly)

    t = sympy.Symbol("t")
    reference = sympy.Poly([int(c) for c in reversed(poly.coeffs)], t)
    intervals = reference.intervals()
    assert len(roots) == len(intervals)
    for root, ((a, b), _) in zip(roots, intervals):
        assert _fraction(a) <= root and root <= _fraction(b)
    rational = {_fraction(r) for r in reference.ground_roots()}
    assert {r.rational_value() for r in roots if r.is_rational} == rational
