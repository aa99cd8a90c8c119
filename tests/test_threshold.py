import gc
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hktwist import algebraic, cli, threshold
from hktwist.algebraic import AlgebraicReal
from hktwist.exact import UniPoly
from hktwist.family import HKFamily, PRESET_NAMES, preset
from hktwist.series import UNIT
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


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_gamma_p_certifies_one_root(name, monkeypatch):
    """gamma_p certifies the largest root of p(q*s^2) alone, not every root."""
    certified = []
    certify_single = algebraic._certify_single

    def counted_certify(poly, lo, hi):
        certified.append(poly)
        return certify_single(poly, lo, hi)

    monkeypatch.setattr(algebraic, "_certify_single", counted_certify)
    family = preset(name)
    rng = random.Random(16)
    for _ in range(12):
        certified.clear()
        gamma_p(family, Fraction(rng.randint(1, 400), rng.randint(1, 12)))
        assert len(certified) == 1


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


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_one_record_answers_every_question(name, monkeypatch):
    """One family object: one Segre pass and one isolation of its threshold
    polynomial, whatever mix of questions is asked."""
    family = preset(name)
    pairing_runs = []
    segre_pairings = HKFamily.segre_pairings

    def counted_pairings(self):
        pairing_runs.append(self)
        return segre_pairings(self)

    isolated = []

    def counted_isolate(poly):
        isolated.append(poly)
        return algebraic.isolate_real_roots(poly)

    monkeypatch.setattr(HKFamily, "segre_pairings", counted_pairings)
    monkeypatch.setattr(threshold, "isolate_real_roots", counted_isolate)
    poly, c = threshold_result(family)
    assert constant_C(family) is c
    assert build_threshold_poly(family) is poly
    for q in (Fraction(1, 3), Fraction(6), Fraction(32)):
        gamma_p(family, q)
    for a, q_delta in ((Fraction(0), Fraction(0)), (Fraction(2), Fraction(31))):
        pseff_cone_member(family, a, q_delta, True)
    for q in (Fraction(5), Fraction(9)):
        is_pseff_sufficient(family, q)
    assert pairing_runs == [family]
    assert sum(p == poly for p in isolated) == 1


def test_poly_command_isolates_nothing(monkeypatch, capsys):
    isolated = []

    def counted(isolate):
        def counted_isolate(poly):
            isolated.append(poly)
            return isolate(poly)
        return counted_isolate

    for module, name in ((threshold, "isolate_real_roots"), (threshold, "_largest_real_root"),
                         (cli, "largest_real_root")):
        monkeypatch.setattr(module, name, counted(getattr(module, name)))
    assert cli.main(["poly", "--family", "K3_3"]) == 0
    assert "6930t^3" in capsys.readouterr().out
    assert isolated == []


def test_family_table_is_read_only():
    family = preset("K3")
    with pytest.raises(TypeError):
        family.pairings[UNIT] = Fraction(2)


def test_record_dies_with_its_family():
    family = preset("K3_2")
    assert constant_C(family) is not None
    ref = weakref.ref(family)
    del family
    gc.collect()
    assert ref() is None


def _scaled_cone_rule(family, a, q_delta, delta_is_nef):
    """The membership rule as it stood before the record: C scaled by a^2."""
    if delta_is_nef and q_delta < 0:
        raise ValueError("a nef class cannot have negative Beauville square")
    if not delta_is_nef or a < 0:
        return False
    c = constant_C(family)
    return c is None or a == 0 or c.scale(a * a) <= q_delta


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    _presets,
    st.one_of(st.just(Fraction(0)), st.fractions(min_value=-6, max_value=12, max_denominator=6)),
    st.one_of(st.none(), st.fractions(min_value=-4, max_value=80, max_denominator=6)),
    st.booleans(),
)
def test_cone_membership_matches_the_scaled_rule(name, a, q_delta, nef):
    """q_delta None stands for 8 a^2, the boundary of K3, where C = 8."""
    if q_delta is None:
        q_delta = 8 * a * a
    family = preset(name)
    try:
        expected = _scaled_cone_rule(family, a, q_delta, nef)
    except ValueError:
        with pytest.raises(ValueError):
            pseff_cone_member(family, a, q_delta, nef)
        return
    assert pseff_cone_member(family, a, q_delta, nef) is expected


def test_gamma_p_refuses_q_past_the_size_bound():
    from hktwist.threshold import MAX_Q_DIGITS

    bound = 10**MAX_Q_DIGITS
    family = preset("K3")  # gamma_p(q) = sqrt(8/q)
    assert gamma_p(family, Fraction(8, bound)).rational_value() == 10**50
    assert gamma_p(family, Fraction(bound, bound - 1)).decimal(6) == "2.82843"
    for q in (Fraction(1, bound + 1), Fraction(bound + 1), Fraction(bound + 1, bound)):
        with pytest.raises(ValueError, match="at most 10"):
            gamma_p(family, q)


# -- gamma_p's substitution against composing with q*s^2 ----------------------

# Twelve q drawn as the benchmark's gamma_p corpus draws them, plus 7/3, 32
# and 10^(+-100).
_rng = random.Random(0)
_GAMMA_QS = [Fraction(_rng.randint(1, 400), _rng.randint(1, 12)) for _ in range(12)] + [
    Fraction(7, 3), Fraction(32), Fraction(1, 10**100), Fraction(10**100),
]


def _random_family(n, seed):
    """A complete n table of seeded one-digit fractions."""
    from hktwist.family import _monomials
    from hktwist.series import ChernMonomial

    rng = random.Random(seed)
    return HKFamily(f"random n={n}", n, {
        ChernMonomial(m): Fraction(rng.randint(1, 9), rng.randint(1, 9))
        for weight in range(0, 2 * n + 1, 2) for m in _monomials(weight, weight)
    })


@pytest.mark.parametrize("family", [*PRESET_NAMES, "random n=5"])
def test_gamma_p_substitutes_as_compose_does(family, monkeypatch):
    """gamma_p's p(q*s^2), built by scaling coefficients, is the polynomial
    composing with q*s^2 gives: its root has the same (poly, lo, hi), and a
    polynomial past the size bound is refused with the same text."""
    seen = []
    largest = threshold._largest_real_root
    monkeypatch.setattr(
        threshold, "_largest_real_root", lambda poly: seen.append(poly) or largest(poly)
    )
    family = _random_family(5, 1) if family == "random n=5" else preset(family)
    poly = build_threshold_poly(family)
    refused = 0
    for q in _GAMMA_QS:
        composed = poly.compose(UniPoly((0, 0, q)))
        seen.clear()
        try:
            threshold._bounded(composed, "gamma_p's polynomial at this q")
        except ValueError as exc:
            with pytest.raises(ValueError) as refusal:
                gamma_p(family, q)
            assert str(refusal.value) == str(exc) and seen == []
            refused += 1
            continue
        root = gamma_p(family, q)
        assert seen == [composed]
        expected = largest(composed)
        assert (root.poly, root.lo, root.hi) == (expected.poly, expected.lo, expected.hi)
    assert refused == (2 if family.name == "random n=5" else 0)
