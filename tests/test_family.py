from fractions import Fraction

import pytest

from hktwist.family import HKFamily, _verify_cube_table, preset
from hktwist.series import ChernMonomial, UNIT


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
