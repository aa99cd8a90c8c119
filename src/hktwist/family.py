"""Hyperkahler family data: Fujiki-type pairing tables.

A family of complex dimension 2n is described by its intersection numbers
against powers of a Kahler class omega of Beauville-Bogomolov square q:
for each even Chern monomial m of weight w <= 2n the table stores the
rational constant d with

    integral  m . omega^(2n - w)  =  d * q^((2n - w)/2).

Everything downstream (Segre pairings, threshold polynomials) is a finite
exact computation from this table.  Three families ship built in: a K3
surface and the Hilbert schemes of 2 and 3 points on a K3.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .exact import format_rational, parse_integer, parse_rational
from .series import ChernMonomial, GradedSeries, UNIT

PRESET_NAMES = ("K3", "K3_2", "K3_3")


class HKFamily:
    """A named family with its Chern-monomial pairing table."""

    def __init__(self, name: str, n: int, pairings: Mapping[ChernMonomial, Fraction]):
        if n < 1:
            raise ValueError("n must be at least 1")
        table = {}
        for monomial, constant in dict(pairings).items():
            if monomial.weight > 2 * n:
                raise ValueError(
                    f"{monomial} has weight {monomial.weight}, above the dimension {2 * n}"
                )
            table[monomial] = Fraction(constant)
        if UNIT not in table or table[UNIT] == 0:
            raise ValueError("the omega^(2n) pairing must be present and nonzero")
        self.name = name
        self.n = n
        self.pairings = table

    @property
    def dimension(self) -> int:
        return 2 * self.n

    def pair(self, monomial: ChernMonomial) -> Fraction:
        """The table constant for one monomial."""
        try:
            return self.pairings[monomial]
        except KeyError:
            raise ValueError(
                f"family {self.name!r} has no pairing for {monomial}"
            ) from None

    def pair_component(self, component: Mapping[ChernMonomial, Fraction]) -> Fraction:
        """Pair a single-weight polynomial in Chern symbols, linearly."""
        total = Fraction(0)
        for monomial, coeff in component.items():
            total += coeff * self.pair(monomial)
        return total

    def segre_pairings(self) -> list[Fraction]:
        """Constants d_{2j} with  integral s_{2n-2j} . omega^(2j) = d_{2j} q^j.

        The Segre classes come from inverting the generic total Chern series
        1 + c2 + c4 + ... truncated at the dimension, then pairing each
        weight component through the table.
        """
        chern = GradedSeries.one(self.dimension)
        for index in range(2, self.dimension + 1, 2):
            chern = chern + GradedSeries.symbol(index, self.dimension)
        segre = chern.inverse()
        return [
            self.pair_component(segre.component(self.dimension - 2 * j))
            for j in range(self.n + 1)
        ]

    # -- serialization --------------------------------------------------

    def to_json(self) -> dict:
        entries = sorted(
            self.pairings.items(), key=lambda kv: (kv[0].weight, kv[0].factors)
        )
        return {
            "name": self.name,
            "n": self.n,
            "pairings": [
                {
                    "monomial": monomial.to_json(),
                    "omega_power": self.dimension - monomial.weight,
                    "constant": format_rational(constant),
                }
                for monomial, constant in entries
            ],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "HKFamily":
        """Read a table; a missing field raises KeyError, anything else
        malformed ValueError."""
        if not isinstance(data, dict):
            raise ValueError(f"a family must be a JSON object, not {type(data).__name__}")
        name = str(data["name"])
        n = parse_integer(data["n"], "n")
        if not isinstance(data["pairings"], list):
            raise ValueError("pairings must be a JSON list")
        pairings: dict[ChernMonomial, Fraction] = {}
        for entry in data["pairings"]:
            if not isinstance(entry, dict):
                raise ValueError(f"each pairing must be a JSON object, not {entry!r}")
            monomial = ChernMonomial.from_json(entry["monomial"])
            if monomial in pairings:
                raise ValueError(f"duplicate pairing for {monomial}")
            expected_power = 2 * n - monomial.weight
            declared = parse_integer(entry["omega_power"], f"the omega power of {monomial}")
            if declared != expected_power:
                raise ValueError(
                    f"{monomial} must pair against omega^{expected_power}, "
                    f"table says {declared}"
                )
            pairings[monomial] = parse_rational(str(entry["constant"]))
        return cls(name, n, pairings)


def _mono(factors: Mapping[int, int]) -> ChernMonomial:
    return ChernMonomial(factors)


def _verify_cube_table(family: HKFamily) -> HKFamily:
    """Self-check on the Hilbert-cube weight-6 entries, run on every load.

    The c2^3 and c2*c4 pairings are not copied from anywhere: they are
    pinned by the Euler number c6 = 3200, the Todd-constant identity
    chi(O) = 4, and the constant term -10560 of the degree-6 Segre
    expansion.  Compare them with the re-derived triple (a cached solve)
    and refuse a table that disagrees.
    """
    # imported here: riemann_roch imports this module, and a plain
    # ``import hktwist`` should not pay for the Todd-series module
    from .riemann_roch import cube_chern_numbers

    derived = cube_chern_numbers()
    stored = (
        family.pair(_mono({2: 3})),
        family.pair(_mono({2: 1, 4: 1})),
        family.pair(_mono({6: 1})),
    )
    if derived != stored:
        raise AssertionError(
            f"cube table self-check failed: derived {derived}, stored {stored}"
        )
    return family


def preset(name: str) -> HKFamily:
    """One of the built-in families: K3, K3_2 (Hilb^2), K3_3 (Hilb^3).

    Names are case-insensitive.
    """
    matched = {p.lower(): p for p in PRESET_NAMES}.get(name.lower())
    if matched is not None:
        name = matched
    if name == "K3":
        return HKFamily(
            "K3",
            1,
            {
                UNIT: Fraction(1),
                _mono({2: 1}): Fraction(24),
            },
        )
    if name == "K3_2":
        return HKFamily(
            "K3_2",
            2,
            {
                UNIT: Fraction(3),
                _mono({2: 1}): Fraction(30),
                _mono({2: 2}): Fraction(828),
                _mono({4: 1}): Fraction(324),
            },
        )
    if name == "K3_3":
        return _verify_cube_table(HKFamily(
            "K3_3",
            3,
            {
                UNIT: Fraction(15),
                _mono({2: 1}): Fraction(108),
                _mono({2: 2}): Fraction(1848),
                _mono({4: 1}): Fraction(2424),
                _mono({2: 3}): Fraction(36800),
                _mono({2: 1, 4: 1}): Fraction(14720),
                _mono({6: 1}): Fraction(3200),
            },
        ))
    raise ValueError(f"unknown family {name!r}; presets are {', '.join(PRESET_NAMES)}")
