import math
import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from hktwist.algebraic import (
    TAYLOR_LEVEL,
    AlgebraicReal,
    _Bisection,
    _shares_root,
    cauchy_bound,
    count_roots,
    isolate_real_roots,
    largest_real_root,
    simplest_between,
    sturm_chain,
)
from hktwist.exact import UniPoly, decimal_str, format_rational


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


def _ref_sturm_chain(poly):
    """The chain as rational long division builds it: -(a % b), rescaled to
    its primitive multiple of the same sign."""
    chain = [poly, poly.derivative()]
    while not chain[-1].is_zero and chain[-1].degree >= 1:
        rem = -(chain[-2] % chain[-1])
        if not rem.is_zero:
            rem = rem.primitive() if rem.leading > 0 else -rem.primitive()
        chain.append(rem)
    if chain[-1].is_zero:
        chain.pop()
    return chain


def _sturm_corpus():
    """Seeded polynomials of degree 1-20 with Fraction coefficients, some with
    a squared factor, sparse ones (whose remainders skip degrees, some under
    a negative leading coefficient), monic gcds of two polynomials sharing a
    factor (what ``_shares_root`` passes), and constants."""
    rng = random.Random(26)

    def fraction_poly(degree):
        coeffs = [Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(degree)]
        return UniPoly(coeffs + [Fraction(rng.choice([-5, -2, -1, 1, 3, 7]), rng.randint(1, 6))])

    polys = []
    for degree in range(1, 21):
        polys.append(fraction_poly(degree))
        factor = fraction_poly(rng.randint(1, 3))
        polys.append(fraction_poly(rng.randint(0, 4)) * factor * factor)
        sparse = [rng.choice([0, 0, 0, 1, -1, 2, -3]) for _ in range(degree)]
        polys.append(UniPoly(sparse + [rng.choice([-2, -1, 1, 3])]))
        shared = fraction_poly(rng.randint(1, 4))
        common = (shared * fraction_poly(2)).gcd(shared * shared * fraction_poly(3))
        assert common.leading == 1 and common.degree >= 1
        polys.append(common)
    polys += [UniPoly((Fraction(-7, 3),)), UniPoly((5,))]
    return polys


def test_sturm_chain_matches_rational_remainders():
    """Integer pseudo-remainders give the very chain that rational long
    division gives, element by element, p and p' included as given."""
    gaps = 0
    for poly in _sturm_corpus():
        chain = sturm_chain(poly)
        assert chain == _ref_sturm_chain(poly), poly
        assert chain[0] is poly
        gaps += any(a.degree - b.degree > 1 for a, b in zip(chain[1:], chain[2:]))
    assert sturm_chain(UniPoly((4,))) == [UniPoly((4,))]
    assert gaps > 0


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


def _isolate_via_squarefree_part(poly):
    """Reference isolation: divide by UniPoly.gcd(p, p') first, then split
    the Sturm chain of that square-free part with the Fraction reference
    (``_ref_isolate`` below)."""
    return _ref_isolate(poly)[0]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    st.lists(_planted, min_size=0, max_size=3),
    st.lists(  # t^2 - v to a power: repeated irrational roots (or none, v < 0)
        st.tuples(st.integers(min_value=-5, max_value=30), st.integers(min_value=1, max_value=3)),
        max_size=1,
    ),
    st.lists(st.integers(min_value=-9, max_value=9), min_size=0, max_size=3),
    st.integers(min_value=-9, max_value=9).filter(bool),
)
def test_one_remainder_sequence_matches_squarefree_part(planted, quadratics, low, lead):
    """Reusing the Sturm chain's last remainder as gcd(p, p') gives the same
    polynomial and the same intervals as dividing by UniPoly.gcd first."""
    poly = UniPoly(low + [lead])
    for d, whole, offset, mult, neighbour in planted:
        m = whole * d + offset
        poly = poly * UniPoly((-m, d)) ** mult
        if neighbour:
            poly = poly * UniPoly((-(m + 1), d))
    for v, mult in quadratics:
        poly = poly * UniPoly((-v, 0, 1)) ** mult
    got = [(r.poly, r.lo, r.hi) for r in isolate_real_roots(poly)]
    assert got == [(r.poly, r.lo, r.hi) for r in _isolate_via_squarefree_part(poly)]


# -- certification on the kernel against the Fraction walk --------------------
#
# The reference certifies each one-root Sturm interval (lo, hi] as the code
# did before it stepped the integer kernel: while lo is a root (the neighbour
# isolated to the left), halve on Fraction endpoints and keep the half whose
# Sturm count is 1; then snap a rational root by halving a copy of the
# interval below width 1/L.  It is driven by a recursion over the same
# splitting tree, left half first, and reports how many walk steps it took
# and the tree's nodes that hold more than one root.


def _ref_snap_rational(poly, lo, hi):
    lead = abs(poly.leading)
    while (hi - lo) * lead > 1:
        lo, hi = _halve(poly, lo, hi)
        if lo == hi:
            return lo
    candidate = Fraction(math.floor(lo * lead) + 1, lead)
    if candidate < hi and poly(candidate) == 0:
        return candidate
    return None


def _ref_certify_single(poly, chain, lo, hi, walks):
    if poly(hi) == 0:
        return AlgebraicReal.from_rational(hi)
    while poly(lo) == 0:
        walks.append(lo)
        mid = (lo + hi) / 2
        if poly(mid) == 0:
            return AlgebraicReal.from_rational(mid)
        if count_roots(chain, lo, mid) == 1:
            hi = mid
        else:
            lo = mid
    candidate = _ref_snap_rational(poly, lo, hi)
    if candidate is not None:
        return AlgebraicReal.from_rational(candidate)
    return AlgebraicReal(poly, lo, hi)


def _ref_split(poly, chain, lo, hi, count, out, walks, nodes):
    if count == 0:
        return
    if count == 1:
        out.append(_ref_certify_single(poly, chain, lo, hi, walks))
        return
    nodes.append((lo, hi, count))
    mid = (lo + hi) / 2
    left = count_roots(chain, lo, mid)
    _ref_split(poly, chain, lo, mid, left, out, walks, nodes)
    _ref_split(poly, chain, mid, hi, count - left, out, walks, nodes)


def _ref_isolate(poly):
    """The reference on the square-free part from UniPoly.gcd(p, p'): the
    roots ascending, its walk steps, and the splitting tree's nodes
    (lo, hi, count) with count > 1."""
    reduced = poly.squarefree_part().primitive()
    roots, walks, nodes = [], [], []
    if reduced.degree >= 1:
        chain = sturm_chain(reduced)
        bound = cauchy_bound(reduced)
        total = count_roots(chain, -bound, bound)
        _ref_split(reduced, chain, -bound, bound, total, roots, walks, nodes)
    return roots, walks, nodes


def _certified_like_fraction_walk(poly):
    """The new isolation equals the Fraction-walk reference; returns its walk steps."""
    roots, walks, _ = _ref_isolate(poly)
    got = [(r.poly, r.lo, r.hi) for r in isolate_real_roots(poly)]
    assert got == [(r.poly, r.lo, r.hi) for r in roots]
    return len(walks)


T = UniPoly.variable()

_WALK_POLYS = [
    T * (T * T - 2),  # 0 is a split midpoint: sqrt(2)'s interval starts on it
    (T - 1) * T * (T + 1),  # the walk lands on the rational root 1
    T * (3 * T - 1),  # the walk lands on 1/3
    T * (7 * T - 2) * (T * T - 3),  # the walk ends, then 2/7 is snapped
    (T * T - 2) * (T * T - 8) * T,
    (T + 1) * T * (2 * T - 3),
]


@pytest.mark.parametrize("poly", _WALK_POLYS, ids=str)
def test_certification_walk_matches_fraction_walk(poly):
    assert _certified_like_fraction_walk(poly) > 0


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    st.lists(_planted, min_size=1, max_size=3),
    st.lists(st.integers(min_value=-9, max_value=9), min_size=0, max_size=3),
    st.integers(min_value=1, max_value=9),
)
def test_certification_matches_fraction_walk(planted, cofactor_low, cofactor_lead):
    poly = UniPoly(cofactor_low + [cofactor_lead])
    for d, whole, offset, mult, neighbour in planted:
        m = whole * d + offset
        poly = poly * UniPoly((-m, d)) ** mult
        if neighbour:
            poly = poly * UniPoly((-(m + 1), d))
    _certified_like_fraction_walk(poly)


# -- one shared-root test for compare and is_root_of --------------------------


def _ref_is_root_of(x, poly):
    """is_root_of as it was: the Sturm count of the square-free part of the gcd."""
    if x.is_rational:
        return poly(x.lo) == 0
    common = x.poly.gcd(poly)
    return common.degree >= 1 and count_roots(
        sturm_chain(common.squarefree_part()), x.lo, x.hi
    ) == 1


def test_shared_root_with_repeated_factors():
    """A hand-built sqrt(2) on a polynomial with a double root at 3."""
    p = (T * T - 2) * (T - 3) ** 2
    x = AlgebraicReal(p, Fraction(1), Fraction(2))
    y = AlgebraicReal((T * T - 2) * (T - 3) ** 3, Fraction(5, 4), Fraction(3, 2))
    sqrt2 = largest_real_root(T * T - 2)
    assert sqrt2.poly == T * T - 2
    assert x == sqrt2 and sqrt2 == x and x == y
    assert x.compare(largest_real_root(T * T - 3)) == -1
    assert x.compare(AlgebraicReal((T - 3) ** 2 * (T * T - 3), Fraction(1), Fraction(2))) == -1
    # gcd(p, y.poly) = (t^2 - 2)(t - 3)^2 is not square-free
    assert _shares_root(p, y.poly, Fraction(5, 4), Fraction(3, 2))
    assert not _shares_root(p, (T - 3) ** 3, Fraction(1), Fraction(2))
    for q, shared in (
        (T * T - 2, True),
        ((T * T - 2) ** 2, True),
        ((T * T - 2) * (T - 3) ** 3, True),
        ((T + 1) * (T * T - 2) ** 3 * (T - 3), True),
        ((T - 3) ** 2, False),
        (T * T - 3, False),
        (T + 3, False),
        (T * T + 2, False),
    ):
        assert x.is_root_of(q) == _ref_is_root_of(x, q) == shared, q


# -- differential check against halving on Fraction endpoints ----------------
#
# The reference below halves on Fraction endpoints: each step evaluates p at
# the midpoint and at lo, keeps the half whose ends differ in sign, and every
# decimal check renders both endpoints.  The integer kernel must reproduce
# its intervals, decimals and comparisons exactly.


def _halve(poly, lo, hi):
    mid = (lo + hi) / 2
    value = poly(mid)
    if value == 0:
        return mid, mid
    if poly(lo) * value < 0:
        return lo, mid
    return mid, hi


def _ref_to_json(x, digits):
    lo, hi = x.lo, x.hi
    while decimal_str(lo, digits) != decimal_str(hi, digits):
        lo, hi = _halve(x.poly, lo, hi)
    return {
        "poly": x.poly.to_json(),
        "interval": [format_rational(lo), format_rational(hi)],
        "decimal": decimal_str(lo, digits),
    }


def _ref_refine(x, width):
    lo, hi = x.lo, x.hi
    while hi - lo > width:
        lo, hi = _halve(x.poly, lo, hi)
    return lo, hi


def _ref_compare_rational(x, q):
    lo, hi = x.lo, x.hi
    if lo < q < hi and x.poly(q) == 0:
        return 0
    while lo < q < hi:
        lo, hi = _halve(x.poly, lo, hi)
    if lo == hi:
        return (lo > q) - (lo < q)
    return -1 if hi <= q else 1


def _ref_compare(x, y):
    if y.is_rational:
        return _ref_compare_rational(x, y.lo)
    if x.is_rational:
        return -_ref_compare_rational(y, x.lo)
    common = x.poly.gcd(y.poly)
    (alo, ahi), (blo, bhi) = (x.lo, x.hi), (y.lo, y.hi)
    while True:
        lo, hi = max(alo, blo), min(ahi, bhi)
        if lo >= hi:
            return -1 if ahi <= blo else 1
        if common.degree >= 1 and count_roots(sturm_chain(common.squarefree_part()), lo, hi) == 1:
            return 0
        alo, ahi = _halve(x.poly, alo, ahi)
        blo, bhi = _halve(y.poly, blo, bhi)
        if alo == ahi:
            return -_ref_compare_rational(AlgebraicReal(y.poly, blo, bhi), alo)
        if blo == bhi:
            return _ref_compare_rational(AlgebraicReal(x.poly, alo, ahi), blo)


def _ref_square(x):
    if x.is_rational:
        return AlgebraicReal.from_rational(x.lo**2)
    even, odd = UniPoly(x.poly.coeffs[0::2]), UniPoly(x.poly.coeffs[1::2])
    target = (even * even - UniPoly.variable() * odd * odd).squarefree_part().primitive()
    lo, hi = x.lo, x.hi
    while lo < 0 < hi:
        if x.poly(0) == 0:
            return AlgebraicReal.from_rational(0)
        lo, hi = _halve(x.poly, lo, hi)
    folded = isolate_real_roots(target)
    while lo != hi:
        lo2, hi2 = sorted((lo * lo, hi * hi))
        matches = [
            r for r in folded
            if (lo2 < r.lo < hi2 if r.is_rational else max(r.lo, lo2) < min(r.hi, hi2))
        ]
        if len(matches) == 1:
            return matches[0]
        lo, hi = _halve(x.poly, lo, hi)
    return AlgebraicReal.from_rational(lo**2)


def _same_number(a, b):
    return (a.poly, a.lo, a.hi) == (b.poly, b.lo, b.hi)


def _check_against_reference(x, digits, rationals, others=()):
    reference = _ref_to_json(x, digits)
    assert x.to_json(digits) == reference
    assert x.decimal(digits) == reference["decimal"]
    for width in (Fraction(1, 10**digits), Fraction(3, 7)):
        refined = x.refine_to(width)
        assert (refined.lo, refined.hi) == _ref_refine(x, width)
        assert refined.poly == x.poly
    assert x.sign() == _ref_compare_rational(x, Fraction(0))
    for q in rationals:
        assert x.compare(q) == _ref_compare_rational(x, Fraction(q))
    for y in others:
        assert x.compare(y) == _ref_compare(x, y)
    assert _same_number(x.square(), _ref_square(x))


def _named_roots():
    from hktwist.family import preset
    from hktwist.hilbert_square import z_pairing
    from hktwist.threshold import constant_C, gamma_p

    roots = [constant_C(preset(name)) for name in ("K3", "K3_2", "K3_3")]
    roots.append(isolate_real_roots(z_pairing())[-1])  # 4 + 4*sqrt(2)
    roots += [gamma_p(preset(name), q) for name in ("K3_2", "K3_3") for q in (1, 6, Fraction(7, 3))]
    return roots


_NAMED = _named_roots()


def test_named_roots_cover_the_constants():
    assert [r.decimal(7) for r in _NAMED[:4]] == ["8", "5.049390", "5.953679", "9.656854"]
    assert not any(r.is_rational for r in _NAMED[1:])


@pytest.mark.parametrize("digits", range(1, 121))
def test_named_roots_match_reference(digits):
    """Preset constants, the z-root 4 + 4*sqrt(2) and gamma_p roots, d = 1 .. 120."""
    roots = _NAMED if digits % 10 == 0 else [_NAMED[1 + digits % 3]]
    rationals = [Fraction(k, 3) for k in (-3, 0, 14, 17, 18, 29, 30)]
    for x in roots:
        _check_against_reference(x, digits, rationals, _NAMED[:4] if digits <= 12 else ())


# Roots at a rounding boundary: 9.999995 (decade carry at 6 digits), a midpoint
# 1.234565 between two 7-digit decimals, and 1.4e-5 far below 1.
_BOUNDARY = [
    (UniPoly((Fraction(-999999, 10000), 0, 1)), 6),  # t^2 - 99.9999
    (UniPoly((-1, 0, 0, 1)) * 10**18 - UniPoly((999999**3,)), 6),
    (UniPoly((Fraction(-1234565**2, 10**12) - Fraction(1, 10**30), 0, 1)), 7),
    (UniPoly((Fraction(-196, 10**12) - Fraction(1, 10**40), 0, 1)), 2),
]


@pytest.mark.parametrize("poly,digits", _BOUNDARY)
def test_boundary_roots_match_reference(poly, digits):
    roots = isolate_real_roots(poly)
    assert roots and not any(r.is_rational for r in roots)
    for x in roots:
        for d in (digits - 1, digits, digits + 1, 3 * digits, 40):
            if d >= 1:
                _check_against_reference(x, d, [Fraction(0), Fraction(10), x.lo, x.hi], roots)


# Intervals built by hand around a rational root that some bisection midpoint
# hits exactly, so each refinement ends on a point interval.
_HAND_BUILT = [
    AlgebraicReal(UniPoly((-1, 0, 1)), Fraction(0), Fraction(2)),  # 1 at the first midpoint
    AlgebraicReal(UniPoly((Fraction(-1, 4), 0, 1)), Fraction(0), Fraction(2)),  # 1/2 at the second
    AlgebraicReal(UniPoly((-1, 2)), Fraction(-1), Fraction(2)),  # 1/2, straddling 0
    AlgebraicReal(UniPoly((-1, 0, 1)), Fraction(-2), Fraction(0)),  # -1
]


@pytest.mark.parametrize("x", _HAND_BUILT)
def test_hand_built_intervals_match_reference(x):
    sqrt2 = AlgebraicReal(UniPoly((-2, 0, 1)), Fraction(0), Fraction(2))
    others = _HAND_BUILT + [sqrt2, sqrt2.scale(-1)]
    for digits in (1, 6, 30):
        _check_against_reference(x, digits, [Fraction(1), Fraction(1, 2), Fraction(-1)], others)
        for y in others:
            assert y.compare(x) == _ref_compare(y, x)


_small_fraction = st.fractions(min_value=Fraction(1, 10**6), max_value=999, max_denominator=10**6)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.one_of(
        # t^2 - v: roots +-sqrt(v), one of them negative, often inside (0, 1)
        _small_fraction.map(lambda v: UniPoly((-v, 0, 1))),
        # (t - r)(t^2 - v) and t^3 - c*t + v: cubics with roots of both signs
        st.tuples(st.fractions(min_value=-9, max_value=9, max_denominator=20), _small_fraction)
        .map(lambda rv: UniPoly((-rv[0], 1)) * UniPoly((-rv[1], 0, 1))),
        st.tuples(st.integers(min_value=-9, max_value=9), st.integers(min_value=-30, max_value=30))
        .map(lambda cv: UniPoly((cv[1], cv[0], 0, 1))),
        # a root within 10^-20 of a midpoint m + 1/2 over 10^k (a rounding boundary)
        st.tuples(st.integers(min_value=1, max_value=10**6), st.integers(min_value=0, max_value=8))
        .map(lambda mk: UniPoly((-(Fraction(2 * mk[0] + 1, 2 * 10 ** mk[1]) ** 2
                                   + Fraction(1, 10**20)), 0, 1))),
    ),
    st.integers(min_value=1, max_value=120),
)
def test_planted_roots_match_reference(poly, digits):
    roots = isolate_real_roots(poly)
    for x in roots:
        _check_against_reference(x, digits, [Fraction(0), Fraction(1, 2), Fraction(-1), x.lo], roots)


def test_decimal_1000_makes_bounded_calls(monkeypatch):
    """z.decimal(1000) refines on integers: a few evaluations and constructions,
    where halving on Fraction endpoints made thousands of each."""
    from hktwist.hilbert_square import z_pairing

    z = isolate_real_roots(z_pairing())[-1]
    counts = {"call": 0, "init": 0}
    poly_call, real_init = UniPoly.__call__, AlgebraicReal.__init__

    def counted_call(self, point):
        counts["call"] += 1
        return poly_call(self, point)

    def counted_init(self, *args):
        counts["init"] += 1
        real_init(self, *args)

    monkeypatch.setattr(UniPoly, "__call__", counted_call)
    monkeypatch.setattr(AlgebraicReal, "__init__", counted_init)
    text = z.decimal(1000)
    doc = z.to_json(1000)
    assert text == doc["decimal"] and text.startswith("9.65685424949238019520")
    assert counts["call"] <= 10 and counts["init"] <= 10


def test_close_roots_need_no_frame_per_bisection_level():
    """Roots 10^-400 apart take about 1330 bisection levels to separate,
    more than the interpreter's recursion limit."""
    eps = Fraction(1, 10**400)
    roots = isolate_real_roots(UniPoly((-1, 1)) * UniPoly((-1 - eps, 1)))
    assert [root.rational_value() for root in roots] == [1, 1 + eps]


def test_gamma_polynomial_with_a_tiny_q_isolates():
    from hktwist.family import preset
    from hktwist.threshold import build_threshold_poly

    q = Fraction(1, 10**200)
    poly = build_threshold_poly(preset("K3_2")).compose(UniPoly((0, 0, q)))
    assert isolate_real_roots(poly)[-1].decimal(6) == "2.24708E+100"


# -- the right-first walk against isolating every root ------------------------


def _threshold_corpus(rng):
    """The presets' threshold polynomials, each with gamma_p's p(q*s^2) at 12
    seeded q."""
    from hktwist.family import preset
    from hktwist.threshold import build_threshold_poly

    polys = []
    for name in ("K3", "K3_2", "K3_3"):
        poly = build_threshold_poly(preset(name))
        polys.append(poly)
        for _ in range(12):
            q = Fraction(rng.randint(1, 400), rng.randint(1, 12))
            polys.append(poly.compose(UniPoly((0, 0, q))))
    return polys


def _largest_root_corpus():
    rng = random.Random(16)
    polys = _threshold_corpus(rng)
    for degree in range(1, 21):  # seeded integer polynomials, up to degree 20
        for _ in range(2):
            coeffs = [rng.randint(-30, 30) for _ in range(degree)]
            polys.append(UniPoly(coeffs + [rng.choice([-3, -1, 1, 2, 7])]))
        roots = [rng.randint(-12, 12) for _ in range(degree)]  # every root real
        polys.append(math.prod((UniPoly((-r, rng.randint(1, 5))) for r in roots), start=UniPoly((1,))))
    polys += [
        UniPoly((-2, 0, 1)) ** 2 * UniPoly((-1, 1)) ** 3 * UniPoly((4, 1)),  # repeated roots
        UniPoly((0, 1, -2, -1, 2)),  # -1, 0, 1/2 and 1, each a split point of (-2, 2]
        UniPoly((0, -1, 2)),  # 0 and 1/2
        UniPoly((6, 11, 6, 1)) * UniPoly((2, 0, 1)),  # -1, -2, -3 and no other real root
        UniPoly((-1, 1)) * UniPoly((-1 - Fraction(1, 10**30), 1))  # a tight cluster
        * UniPoly((-1 + Fraction(1, 10**30), 1)) * UniPoly((-2, 0, 1 + Fraction(1, 10**25))),
    ]
    return polys


def test_largest_real_root_walk_matches_isolating_every_root():
    """The walk certifies the very cell that the Fraction reference, which
    isolates every root, certifies for the rightmost root: same polynomial,
    same interval."""
    checked = 0
    for poly in _largest_root_corpus():
        roots = _ref_isolate(poly)[0]
        if not roots:
            continue
        top = largest_real_root(poly)
        assert (top.poly, top.lo, top.hi) == (roots[-1].poly, roots[-1].lo, roots[-1].hi), poly
        checked += 1
    assert checked >= 100


def test_isolation_counts_once_per_reference_tree_node(monkeypatch):
    """One Sturm count on (-B, B] plus one per reference tree node holding
    more than one root: all of them to isolate every root, and to reach the
    greatest only those on its right-first path, the nodes whose interval
    (lo, hi] holds it."""
    import hktwist.algebraic as algebraic

    calls = []
    count_roots_traced = algebraic.count_roots
    monkeypatch.setattr(
        algebraic, "count_roots", lambda *args: calls.append(args) or count_roots_traced(*args)
    )
    path_nodes = 0
    for poly in _WALK_POLYS + _threshold_corpus(random.Random(16)):
        roots, _, nodes = _ref_isolate(poly)
        calls.clear()
        isolate_real_roots(poly)
        assert len(calls) == len(nodes) + 1, poly
        path = [node for node in nodes if node[0] < roots[-1] <= node[1]]
        calls.clear()
        largest_real_root(poly)
        assert len(calls) == len(path) + 1, poly
        path_nodes += len(path)
    assert path_nodes > 0


def test_largest_real_root_without_a_real_root_raises():
    for poly in (UniPoly((1, 0, 1)), UniPoly((5,)), UniPoly((2, 0, 0, 0, 1)) ** 2):
        with pytest.raises(ValueError, match="no real roots"):
            largest_real_root(poly)
    with pytest.raises(ValueError):
        largest_real_root(UniPoly(()))


# -- the Taylor form past TAYLOR_LEVEL against the Horner pass ----------------
#
# The reference steps the kernel as it stepped before it had a Taylor form:
# one homogeneous integer Horner pass decides every midpoint sign, at every
# level.  The kernel must reach the same (a, b, k) and return the same
# hit flag after every step, below and above the switch.


class _HornerRun:
    def __init__(self, poly, lo, hi):
        self.s = math.lcm(lo.denominator, hi.denominator)
        self.a = lo.numerator * (self.s // lo.denominator)
        self.b = hi.numerator * (self.s // hi.denominator)
        self.k = 0
        clear = math.lcm(*(c.denominator for c in poly.coeffs))
        d = poly.degree
        self.terms = [int(c * clear) * self.s ** (d - i) for i, c in enumerate(poly.coeffs)]
        self.lo_sign = -self.sign_at(self.b)

    def sign_at(self, x):
        d = len(self.terms) - 1
        acc = self.terms[d]
        for i in range(d - 1, -1, -1):
            acc = acc * x + (self.terms[i] << (self.k * (d - i)))
        return (acc > 0) - (acc < 0)

    def step(self):
        mid = self.a + self.b
        self.a, self.b, self.k = self.a << 1, self.b << 1, self.k + 1
        sign = self.sign_at(mid)
        if sign == 0:
            self.a = self.b = mid
        elif sign == self.lo_sign:
            self.a = mid
        else:
            self.b = mid
        return sign == 0

    def interval(self):
        return Fraction(self.a, self.s << self.k), Fraction(self.b, self.s << self.k)


def _horner_to_json(x, digits):
    """to_json by the Horner reference.  An interval inside one whose ends
    round alike rounds alike too, so the ends are rendered every 64 steps
    and the first agreeing interval is then looked for among the last 64."""
    run = _HornerRun(x.poly, x.lo, x.hi)

    def agree(lo, hi):
        return decimal_str(lo, digits) == decimal_str(hi, digits)

    batch = [run.interval()]
    while not agree(*batch[-1]):
        batch = []
        for _ in range(64):
            run.step()
            batch.append(run.interval())
    lo, hi = next(interval for interval in batch if agree(*interval))
    return {
        "poly": x.poly.to_json(),
        "interval": [format_rational(lo), format_rational(hi)],
        "decimal": decimal_str(lo, digits),
    }


def _n20_constant():
    """C of a seeded n = 20 table of one-digit fractions (degree 20)."""
    from hktwist.family import HKFamily, _monomials
    from hktwist.series import ChernMonomial
    from hktwist.threshold import constant_C

    rng = random.Random(20)
    table = {}
    for weight in range(0, 41, 2):
        for m in _monomials(weight, weight):
            table[ChernMonomial(m)] = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    return constant_C(HKFamily("random n=20", 20, table))


_TAYLOR_ROOTS = {
    "C(K3_2), degree 2": lambda: _NAMED[1],
    "C(K3_3), degree 3": lambda: _NAMED[2],
    "4 + 4*sqrt(2), degree 2": lambda: _NAMED[3],
    "gamma_p(K3_2, 7/3), degree 4": lambda: _NAMED[6],
    "gamma_p(K3_3, 7/3), degree 6": lambda: _NAMED[9],
    "C of an n = 20 table, degree 20": _n20_constant,
}


@pytest.mark.parametrize("name", _TAYLOR_ROOTS)
def test_taylor_steps_match_horner_steps(name):
    x = _TAYLOR_ROOTS[name]()
    assert f"degree {x.poly.degree}" in name
    run, ref = _Bisection(x.poly, x.lo, x.hi), _HornerRun(x.poly, x.lo, x.hi)
    for _ in range(TAYLOR_LEVEL + 600):
        assert run.step() == ref.step()
        assert (run.a, run.b, run.k) == (ref.a, ref.b, ref.k)
    assert run.taylor is not None
    assert run._sign_at(run.a) == ref.sign_at(ref.a) == ref.lo_sign


@pytest.mark.parametrize("index", [1, 3], ids=["C(K3_2)", "4 + 4*sqrt(2)"])
def test_taylor_to_json_1000_matches_horner(index):
    x = _NAMED[index]
    ref = _HornerRun(x.poly, x.lo, x.hi)
    while ref.b - ref.a > ref.s << ref.k >> 3000:
        ref.step()
    refined = x.refine_to(Fraction(1, 2**3000))
    assert (refined.lo, refined.hi) == ref.interval()
    assert x.to_json(1000) == _horner_to_json(x, 1000)


# 1 + (4^240 - 1) / (3 * 2^480), binary 1.0101...01 with 480 bits after the
# point, is the bisection midpoint of (1, 2] at level 480, past the switch,
# so each refinement that goes that deep ends on a point interval.  Its
# bisection keeps the left and the right half in turn.
_DEEP = 1 + Fraction((4**240 - 1) // 3, 2**480)


def test_point_past_the_switch_matches_reference():
    assert TAYLOR_LEVEL < 480
    x = AlgebraicReal(UniPoly((-_DEEP, 1)) * UniPoly((-5, 0, 1)), Fraction(1), Fraction(2))
    near = largest_real_root(UniPoly((-(_DEEP**2 + Fraction(1, 2**504)), 0, 1)))
    others = [near, near.scale(-1), _NAMED[3]]
    rationals = [Fraction(1), _DEEP, _DEEP + Fraction(1, 2**481), Fraction(4, 3)]
    width = Fraction(1, 2**470)
    assert (x.refine_to(width).lo, x.refine_to(width).hi) == _ref_refine(x, width)
    _check_against_reference(x, 160, rationals, others)
    assert x.refine_to(Fraction(1, 10**160)).is_rational
    for y in others:
        assert y.compare(x) == -x.compare(y)
    # 140 digits take the refinement past the switch but not to the hit
    assert x.to_json(140) == _ref_to_json(x, 140)
    assert x.to_json(140)["interval"][0] != x.to_json(140)["interval"][1]


def test_square_folding_a_point_past_the_switch_matches_reference():
    """-(_DEEP + 2^-504) squares to within 2^-501 of the square of _DEEP, so
    the candidate interval of the square narrows until the run hits _DEEP."""
    x = AlgebraicReal(
        UniPoly((-_DEEP, 1)) * UniPoly((_DEEP + Fraction(1, 2**504), 1)), Fraction(1), Fraction(2)
    )
    width = Fraction(1, 2**470)
    assert (x.refine_to(width).lo, x.refine_to(width).hi) == _ref_refine(x, width)
    assert _same_number(x.square(), _ref_square(x))


# -- runs of levels against single steps --------------------------------------
#
# ``descend`` runs many levels in one loop, and certified decimals and
# ``refine_to`` compute how deep to go before they descend.  The reference
# steps ``_HornerRun`` one level at a time.

_RUN_LEVELS = (1, 7, 200, TAYLOR_LEVEL - 1, TAYLOR_LEVEL, TAYLOR_LEVEL + 1, TAYLOR_LEVEL + 600)


def _planted_hit():
    """_DEEP is the root that the run from (1, 2] hits at level 480."""
    return AlgebraicReal(UniPoly((-_DEEP, 1)) * UniPoly((-5, 0, 1)), Fraction(1), Fraction(2))


def _horner_states(x, levels):
    """(a, b, k, hit) of single Horner steps at each of ``levels``: the
    state at that level, or at the hit if the run hits the root before."""
    ref, hit, states = _HornerRun(x.poly, x.lo, x.hi), False, {}
    for level in sorted(levels):
        while ref.k < level and not hit:
            hit = ref.step()
        states[level] = (ref.a, ref.b, ref.k, hit)
    return states


@pytest.mark.parametrize("name", [*_TAYLOR_ROOTS, "planted hit at level 480"])
def test_one_descent_matches_single_steps(name):
    x = _TAYLOR_ROOTS[name]() if name in _TAYLOR_ROOTS else _planted_hit()
    states = _horner_states(x, _RUN_LEVELS)
    for level in _RUN_LEVELS:
        run = _Bisection(x.poly, x.lo, x.hi)
        hit = run.descend(level)
        assert (run.a, run.b, run.k, hit) == states[level], level
    deepest = (TAYLOR_LEVEL + 600, False) if name in _TAYLOR_ROOTS else (480, True)
    assert states[TAYLOR_LEVEL + 600][2:] == deepest


# The named roots among them: C(K3_2), C(K3_3), 4 + 4*sqrt(2) and two gamma_p.
_DECIMAL_ROOTS = {name: root for name, root in _TAYLOR_ROOTS.items() if "n = 20" not in name}


@pytest.mark.parametrize("name", _DECIMAL_ROOTS)
def test_decimal_interval_is_the_first_agreeing_level(name):
    """The to_json interval is the single-step interval at the first level k
    whose ends render alike: the one at k - 1 renders differently, and at no
    level up to the blind descent's could the ends have rendered alike."""
    x = _DECIMAL_ROOTS[name]()
    width = x.hi - x.lo
    for digits in (6, 60, 120, 250, 1000):
        doc = x.to_json(digits)
        lo, hi = (Fraction(end) for end in doc["interval"])
        k = (width / (hi - lo)).numerator.bit_length() - 1
        assert hi - lo == width / 2**k
        assert decimal_str(lo, digits) == decimal_str(hi, digits) == doc["decimal"]

        ref = _HornerRun(x.poly, x.lo, x.hi)
        spread = (ref.b - ref.a) * 10 ** (digits - 1)
        blind = spread.bit_length() - max(abs(ref.a), abs(ref.b)).bit_length() - 1
        assert 0 < blind < k
        while ref.k < k - 1:
            if ref.k <= blind:
                assert spread > max(-ref.a, ref.b)
            assert not ref.step()
        before = ref.interval()
        assert decimal_str(before[0], digits) != decimal_str(before[1], digits)
        assert not ref.step()
        assert ref.interval() == (lo, hi)


@pytest.mark.parametrize("name", _DECIMAL_ROOTS)
def test_refine_to_stops_at_the_first_narrow_enough_level(name):
    """Widths exactly w / 2^k for the isolating width w, and one unit of
    their denominator either side, against single steps."""
    x = _DECIMAL_ROOTS[name]()
    width = x.hi - x.lo
    ref, intervals = _HornerRun(x.poly, x.lo, x.hi), [(x.lo, x.hi)]
    while ref.k < max(_RUN_LEVELS) + 1:
        assert not ref.step()
        intervals.append(ref.interval())
    for level in _RUN_LEVELS:
        exact = width / 2**level
        unit = Fraction(1, exact.denominator)
        for target, expected in ((exact, level), (exact - unit, level + 1), (exact + unit, level)):
            refined = x.refine_to(target)
            assert (refined.lo, refined.hi) == intervals[expected], (level, target)
