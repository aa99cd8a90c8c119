import hashlib
import json
import random
from fractions import Fraction

import pytest

from hktwist.family import HKFamily, _monomials, _verify_cube_table, preset
from hktwist.series import ChernMonomial, GradedSeries, UNIT


def test_preset_k3():
    fam = preset("K3")
    assert fam.n == 1 and fam.dimension == 2
    assert fam.pair(UNIT) == 1
    assert fam.pair(ChernMonomial({2: 1})) == 24


def test_preset_names_case_insensitive():
    assert preset("k3_2").name == "K3_2"
    assert preset("K3_3").name == "K3_3"
    assert preset("k3").name == "K3"


def test_unknown_preset():
    with pytest.raises(ValueError):
        preset("K3_4")


def test_segre_pairings():
    assert preset("K3").segre_pairings() == [-24, 1]
    assert preset("K3_2").segre_pairings() == [504, -30, 3]
    assert preset("K3_3").segre_pairings() == [-10560, -576, -108, 15]


def _generic_segre(dimension):
    """1/(1 + c2 + c4 + ...) by the generic series inversion."""
    chern = GradedSeries.one(dimension)
    for index in range(2, dimension + 1, 2):
        chern = chern + GradedSeries.symbol(index, dimension)
    return chern.inverse()


def _segre_by_inversion(family):
    """The Segre pairings from the inverted series, paired through the table."""
    segre = _generic_segre(family.dimension)
    return [
        sum(
            (c * family.pair(m) for m, c in segre.component(family.dimension - 2 * j).items()),
            Fraction(0),
        )
        for j in range(family.n + 1)
    ]


def _random_table(rng, n):
    """A complete table: every monomial of the inverted series (all of them,
    since each Segre coefficient is nonzero) gets a random constant."""
    table = {
        m: Fraction(rng.randint(-10**4, 10**4), rng.randint(1, 9))
        for m in _generic_segre(2 * n).terms
    }
    table[UNIT] = Fraction(rng.randint(1, 60))
    return table


@pytest.mark.parametrize("name", ["K3", "K3_2", "K3_3"])
def test_closed_form_matches_inversion_on_presets(name):
    fam = preset(name)
    assert fam.segre_pairings() == _segre_by_inversion(fam)


@pytest.mark.parametrize("n", range(1, 11))
def test_closed_form_matches_inversion_on_random_tables(n):
    fam = HKFamily("random", n, _random_table(random.Random(n), n))
    assert fam.segre_pairings() == _segre_by_inversion(fam)


def test_incomplete_table_refused_at_construction():
    pairings = dict(preset("K3_2").pairings)
    del pairings[ChernMonomial({4: 1})]
    with pytest.raises(ValueError, match="no pairing for c4"):
        HKFamily("K3_2", 2, pairings)


def _complete_table(n):
    return {
        ChernMonomial(m): Fraction(1)
        for weight in range(0, 2 * n + 1, 2) for m in _monomials(weight, weight)
    }


def _refusal(name, n, table):
    """The message that refusing an incomplete table must give, from a
    brute-force reference: the absent monomial least by (weight, tuple)."""
    if UNIT not in table:
        return "the omega^(2n) pairing must be present and nonzero"
    absent = [m for m in _complete_table(n) if m not in table]
    return f"family {name!r} has no pairing for {min(absent, key=lambda m: (m.weight, m))}"


@pytest.mark.parametrize("n", range(2, 7))
def test_refusal_names_the_first_missing_monomial(n):
    complete = _complete_table(n)
    rng = random.Random(n)
    drops = [[m] for m in complete]
    drops += [rng.sample(sorted(complete), size) for size in (2, 5) for _ in range(30)
              if size < len(complete)]
    for dropped in drops:
        table = {m: c for m, c in complete.items() if m not in dropped}
        with pytest.raises(ValueError) as refused:
            HKFamily("dropped", n, table)
        assert str(refused.value) == _refusal("dropped", n, table), dropped


def test_refusal_of_a_huge_n_names_the_first_missing_monomial():
    with pytest.raises(ValueError) as refused:
        HKFamily("huge", 10**400, {UNIT: Fraction(1), ChernMonomial({2: 1}): Fraction(24)})
    assert str(refused.value) == "family 'huge' has no pairing for c2^2"


def test_pairing_lookup_error_names_monomial():
    fam = preset("K3")
    with pytest.raises(ValueError, match="c4"):
        fam.pair(ChernMonomial({4: 1}))


def test_family_validation():
    with pytest.raises(ValueError):
        HKFamily("bad", 1, {ChernMonomial({2: 1}): Fraction(24)})  # no unit entry
    with pytest.raises(ValueError):
        HKFamily("bad", 1, {UNIT: Fraction(0)})  # zero top pairing
    with pytest.raises(ValueError):
        HKFamily("bad", 1, {UNIT: 1, ChernMonomial({4: 1}): 1})  # weight above 2n


def test_json_roundtrip():
    fam = preset("K3_2")
    data = fam.to_json()
    assert data["name"] == "K3_2" and data["n"] == 2
    back = HKFamily.from_json(data)
    assert back.pairings == fam.pairings


def test_from_json_rejects_wrong_omega_power():
    data = preset("K3").to_json()
    data["pairings"][0]["omega_power"] += 1
    with pytest.raises(ValueError, match="omega"):
        HKFamily.from_json(data)


def test_from_json_rejects_duplicates():
    data = preset("K3").to_json()
    data["pairings"].append(dict(data["pairings"][0]))
    with pytest.raises(ValueError, match="duplicate"):
        HKFamily.from_json(data)


def test_from_json_reads_a_string_or_number_name():
    data = preset("K3").to_json()
    for name, shown in (("K3 copy", "K3 copy"), (7, "7"), (1.5, "1.5")):
        data["name"] = name
        assert HKFamily.from_json(data).name == shown
    for name, kind in ((None, "null"), ([1, True], "array"), ({}, "object"), (True, "true")):
        data["name"] = name
        with pytest.raises(ValueError, match=f"name must be a JSON string or number, not {kind}$"):
            HKFamily.from_json(data)


def test_cube_preset_passes_startup_self_check():
    fam = preset("K3_3")
    assert fam.pair(ChernMonomial({2: 3})) == 36800
    assert fam.pair(ChernMonomial({2: 1, 4: 1})) == 14720
    assert fam.pair(ChernMonomial({6: 1})) == 3200


def test_cube_self_check_runs_on_every_load():
    cube = preset("K3_3")  # a load has already run the check once
    pairings = dict(cube.pairings)
    pairings[ChernMonomial({2: 1, 4: 1})] += 1
    with pytest.raises(AssertionError, match="self-check"):
        _verify_cube_table(HKFamily("K3_3", 3, pairings))


# to_json() texts recorded before monomials became tuples, so that the sort
# by (weight, monomial) provably keeps the order of the sort by factors.
K3_3_JSON = (
    '{"name": "K3_3", "n": 3, "pairings": ['
    '{"monomial": {}, "omega_power": 6, "constant": "15"}, '
    '{"monomial": {"2": 1}, "omega_power": 4, "constant": "108"}, '
    '{"monomial": {"2": 2}, "omega_power": 2, "constant": "1848"}, '
    '{"monomial": {"4": 1}, "omega_power": 2, "constant": "2424"}, '
    '{"monomial": {"2": 1, "4": 1}, "omega_power": 0, "constant": "14720"}, '
    '{"monomial": {"2": 3}, "omega_power": 0, "constant": "36800"}, '
    '{"monomial": {"6": 1}, "omega_power": 0, "constant": "3200"}]}'
)
N6_ORDER = [
    "1", "c2", "c2^2", "c4", "c2*c4", "c2^3", "c6", "c2*c6", "c2^2*c4", "c2^4", "c4^2", "c8",
    "c2*c4^2", "c2*c8", "c2^2*c6", "c2^3*c4", "c2^5", "c4*c6", "c10", "c2*c4*c6", "c2*c10",
    "c2^2*c4^2", "c2^2*c8", "c2^3*c6", "c2^4*c4", "c2^6", "c4*c8", "c4^3", "c6^2", "c12",
]
N6_SHA256 = "06b0dd83f74551f048c6edf40245ab22e159745f78ffe9eb8184fed4e941b471"


def test_to_json_text_is_pinned():
    assert json.dumps(preset("K3_3").to_json()) == K3_3_JSON
    data = HKFamily("random", 6, _random_table(random.Random(6), 6)).to_json()
    order = [str(ChernMonomial.from_json(entry["monomial"])) for entry in data["pairings"]]
    assert order == N6_ORDER
    assert hashlib.sha256(json.dumps(data).encode()).hexdigest() == N6_SHA256
