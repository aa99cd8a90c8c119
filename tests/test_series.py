from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hktwist.family import HKFamily
from hktwist.series import ChernMonomial, GradedSeries, UNIT


def c(factors):
    return ChernMonomial(factors)


def test_monomial_validation():
    with pytest.raises(ValueError):
        ChernMonomial({3: 1})
    with pytest.raises(ValueError):
        ChernMonomial({0: 1})
    with pytest.raises(ValueError):
        ChernMonomial({2: -1})


def test_monomial_weight_and_mul():
    m = c({2: 2, 4: 1})
    assert m.weight == 8
    assert c({2: 1}) * c({2: 1, 4: 1}) == c({2: 2, 4: 1})
    assert UNIT.weight == 0 and UNIT.is_unit


def test_monomial_is_one_value_in_every_form():
    """A monomial from a dict, from pairs in any order or from JSON is one
    value: equal, hashed alike, sorted as its pair tuple, immutable."""
    forms = [
        ChernMonomial({2: 2, 4: 1, 6: 0}),
        ChernMonomial([(4, 1), (2, 2)]),
        ChernMonomial(((2, 2), (4, 1))),
        ChernMonomial.from_json({"4": 1, "2": 2}),
    ]
    for form in forms:
        assert form == forms[0] and hash(form) == hash(forms[0])
        assert tuple(form) == ((2, 2), (4, 1))
        assert repr(form) == "ChernMonomial({2: 2, 4: 1})"
        assert str(form) == "c2^2*c4"
        assert form.to_json() == {"2": 2, "4": 1}
        with pytest.raises(AttributeError):
            form.weight = 0
        with pytest.raises(AttributeError):
            form.extra = 1
    assert ChernMonomial({2: 0}) == UNIT and hash(ChernMonomial({2: 0})) == hash(UNIT)
    assert (repr(UNIT), str(UNIT), UNIT.to_json()) == ("ChernMonomial({})", "1", {})
    monomials = [c({6: 1}), c({2: 1, 4: 1}), UNIT, c({2: 3}), c({4: 1}), c({2: 1})]
    assert sorted(monomials) == sorted(monomials, key=tuple)
    assert [str(m) for m in sorted(monomials)] == ["1", "c2", "c2*c4", "c2^3", "c4", "c6"]

    table = {ChernMonomial(): 3, ChernMonomial([(2, 1)]): 30,
             ChernMonomial.from_json({"4": 1}): 324, ChernMonomial({2: 2}): 828}
    family = HKFamily("forms", 2, table)
    assert family.pair(ChernMonomial.from_json({"2": 2})) == 828
    assert family.pair(ChernMonomial({4: 1, 2: 0})) == 324
    assert family.pair(ChernMonomial.from_json({"2": 1})) == 30
    assert family.pair(ChernMonomial.from_json({})) == 3
    assert GradedSeries(4, table).coeff(ChernMonomial([(2, 2)])) == 828


def test_series_truncation_drops_heavy_terms():
    s = GradedSeries(2, {c({2: 2}): Fraction(5), c({2: 1}): Fraction(1)})
    assert s.coeff(c({2: 2})) == 0
    assert s.coeff(c({2: 1})) == 1


def test_mixed_truncation_rejected():
    a = GradedSeries.one(4)
    b = GradedSeries.one(6)
    with pytest.raises(ValueError):
        a * b


def test_inverse_total_chern():
    total = GradedSeries.one(4) + GradedSeries.symbol(2, 4) + GradedSeries.symbol(4, 4)
    inv = total.inverse()
    assert inv.coeff(UNIT) == 1
    assert inv.coeff(c({2: 1})) == -1
    assert inv.coeff(c({2: 2})) == 1
    assert inv.coeff(c({4: 1})) == -1
    assert (inv * total) == GradedSeries.one(4)


def test_inverse_weight6():
    total = (
        GradedSeries.one(6)
        + GradedSeries.symbol(2, 6)
        + GradedSeries.symbol(4, 6)
        + GradedSeries.symbol(6, 6)
    )
    inv = total.inverse()
    assert inv.coeff(c({2: 3})) == -1
    assert inv.coeff(c({2: 1, 4: 1})) == 2
    assert inv.coeff(c({6: 1})) == -1


def test_inverse_requires_unit_constant():
    with pytest.raises(ValueError):
        GradedSeries.symbol(2, 4).inverse()


def test_sqrt_squares_back():
    s = GradedSeries.one(6) + GradedSeries.symbol(2, 6) * Fraction(1, 12)
    root = s.sqrt()
    assert root * root == s
    assert root.coeff(c({2: 1})) == Fraction(1, 24)


def test_component_extraction():
    s = GradedSeries(4, {UNIT: 1, c({2: 1}): 2, c({2: 2}): 3, c({4: 1}): 4})
    comp = s.component(4)
    assert comp == {c({2: 2}): 3, c({4: 1}): 4}
    assert s.constant == 1


def test_json_roundtrip():
    s = GradedSeries(4, {UNIT: Fraction(1), c({2: 2}): Fraction(-7, 3)})
    assert GradedSeries.from_json(s.to_json()) == s


@pytest.mark.parametrize("truncation", [2.5, True, "1e400", float("inf"), "2.5"])
def test_from_json_refuses_non_integer_truncation(truncation):
    """A truncation is read as an integer, never truncated to one."""
    data = GradedSeries(4, {UNIT: Fraction(1)}).to_json()
    data["truncation"] = truncation
    with pytest.raises(ValueError, match="truncation must be an integer"):
        GradedSeries.from_json(data)
    data["truncation"] = 4.0
    assert GradedSeries.from_json(data).truncation == 4


_series_strategy = st.integers(min_value=0, max_value=8).flatmap(
    lambda trunc: st.dictionaries(
        st.builds(
            lambda factors: ChernMonomial(factors),
            st.dictionaries(
                st.sampled_from([2, 4, 6]).filter(lambda i: i <= max(trunc, 2)),
                st.integers(min_value=1, max_value=3),
                max_size=2,
            ),
        ),
        st.fractions(min_value=-8, max_value=8, max_denominator=6),
        max_size=4,
    ).map(lambda terms: GradedSeries(trunc, {**terms, UNIT: Fraction(1)}))
)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_series_strategy)
def test_inverse_roundtrip_property(series):
    """series * series.inverse() == 1 for unit-constant series, trunc <= 8."""
    inv = series.inverse()
    assert series * inv == GradedSeries.one(series.truncation)
    assert inv.inverse() == series


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_series_strategy)
def test_sqrt_roundtrip_property(series):
    """series.sqrt() ** 2 == series for unit-constant series, trunc <= 8."""
    root = series.sqrt()
    assert root * root == series
