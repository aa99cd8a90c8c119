"""Hyperkahler family data: Fujiki-type pairing tables.

A family of complex dimension 2n is described by its intersection numbers
against powers of a Kahler class omega of Beauville-Bogomolov square q:
for each even Chern monomial m of weight w <= 2n the table stores the
rational constant d with

    integral  m . omega^(2n - w)  =  d * q^((2n - w)/2).

A table must hold every monomial of weight <= 2n (those of weight w are
the partitions of w/2).  It is checked for that when it is built, weight
by weight: each weight must have as many entries as ``_monomials`` lists,
and the first that falls short names its least absent monomial.
Everything downstream (Segre pairings, threshold polynomials) is then a
finite exact computation from the table: the Segre class is the inverse
1/c of the total Chern class, and its coefficients are known in closed
form (Fulton, *Intersection Theory*, section 3.2), so the pairings are one
pass over the table.  Three families ship built in: a K3 surface and the
Hilbert schemes of 2 and 3 points on a K3.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial
from types import MappingProxyType
from typing import Iterator, Mapping

from .exact import format_rational, json_kind, parse_integer, parse_json_rational
from .series import ChernMonomial, UNIT

PRESET_NAMES = ("K3", "K3_2", "K3_3")


class HKFamily:
    """A named family with its Chern-monomial pairing table."""

    def __init__(self, name: str, n: int, pairings: Mapping[ChernMonomial, Fraction]):
        if n < 1:
            raise ValueError("n must be at least 1")
        table = {}
        counts: dict[int, int] = {}
        for monomial, constant in dict(pairings).items():
            weight = monomial.weight
            if weight > 2 * n:
                raise ValueError(f"{monomial} has weight {weight}, above the dimension {2 * n}")
            table[monomial] = Fraction(constant)
            counts[weight] = counts.get(weight, 0) + 1
        if UNIT not in table or table[UNIT] == 0:
            raise ValueError("the omega^(2n) pairing must be present and nonzero")
        # The entries are distinct monomials, so a weight is complete exactly
        # when it has as many entries as there are monomials of that weight.
        # The first short weight, with every lighter one complete, holds the
        # first missing monomial.  It comes at most one weight past the
        # heaviest entry, so a huge n costs no more than a small one.
        for weight in range(0, 2 * n + 1, 2):
            if counts.get(weight, 0) < _monomial_count(weight):
                missing = min(
                    m for m in map(ChernMonomial, _monomials(weight, weight)) if m not in table
                )
                raise ValueError(f"family {name!r} has no pairing for {missing}")
        self.name = name
        self.n = n
        # read-only, so that nothing cached from the table can go stale
        self.pairings = MappingProxyType(table)

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

    def segre_pairings(self) -> list[Fraction]:
        """Constants d_{2j} with  integral s_{2n-2j} . omega^(2j) = d_{2j} q^j.

        The coefficient of a monomial with exponents e_i in the Segre class
        1/(1 + c2 + c4 + ...) is (-1)^k k!/prod e_i!, where k = sum e_i: the
        number of ordered ways to write it as a product of k Chern symbols,
        from the geometric series of 1/(1 + x).  So d_{2j} sums that
        coefficient times the table constant over the monomials of weight
        2n - 2j.
        """
        pairings = [Fraction(0)] * (self.n + 1)
        for monomial, constant in self.pairings.items():
            size = sum(exponent for _, exponent in monomial)
            orderings = factorial(size)
            for _, exponent in monomial:
                orderings //= factorial(exponent)
            pairings[self.n - monomial.weight // 2] += (-1) ** size * orderings * constant
        return pairings

    # -- serialization --------------------------------------------------

    def to_json(self) -> dict:
        entries = sorted(self.pairings.items(), key=lambda kv: (kv[0].weight, kv[0]))
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
            raise ValueError(f"a family must be a JSON object, not {json_kind(data)}")
        name = data["name"]
        if json_kind(name) not in ("string", "number"):
            raise ValueError(
                f"a family name must be a JSON string or number, not {json_kind(name)}"
            )
        name = str(name)
        n = parse_integer(data["n"], "n")
        if not isinstance(data["pairings"], list):
            raise ValueError(f"pairings must be a JSON array, not {json_kind(data['pairings'])}")
        pairings: dict[ChernMonomial, Fraction] = {}
        for entry in data["pairings"]:
            if not isinstance(entry, dict):
                raise ValueError(f"each pairing must be a JSON object, not {json_kind(entry)}")
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
            pairings[monomial] = parse_json_rational(entry["constant"], "a constant")
        return cls(name, n, pairings)


def _monomials(weight: int, largest: int) -> Iterator[dict[int, int]]:
    """Factor maps of the monomials of one weight with no index above ``largest``."""
    if weight == 0:
        yield {}
        return
    for index in range(min(weight, largest), 1, -2):
        for rest in _monomials(weight - index, index):
            yield {**rest, index: rest.get(index, 0) + 1}


@cache
def _monomial_count(weight: int) -> int:
    """How many monomials of one weight there are: p(weight/2), as ``_monomials`` lists them."""
    return sum(1 for _ in _monomials(weight, weight))


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
        family.pair(ChernMonomial({2: 3})),
        family.pair(ChernMonomial({2: 1, 4: 1})),
        family.pair(ChernMonomial({6: 1})),
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
                ChernMonomial({2: 1}): Fraction(24),
            },
        )
    if name == "K3_2":
        return HKFamily(
            "K3_2",
            2,
            {
                UNIT: Fraction(3),
                ChernMonomial({2: 1}): Fraction(30),
                ChernMonomial({2: 2}): Fraction(828),
                ChernMonomial({4: 1}): Fraction(324),
            },
        )
    if name == "K3_3":
        return _verify_cube_table(HKFamily(
            "K3_3",
            3,
            {
                UNIT: Fraction(15),
                ChernMonomial({2: 1}): Fraction(108),
                ChernMonomial({2: 2}): Fraction(1848),
                ChernMonomial({4: 1}): Fraction(2424),
                ChernMonomial({2: 3}): Fraction(36800),
                ChernMonomial({2: 1, 4: 1}): Fraction(14720),
                ChernMonomial({6: 1}): Fraction(3200),
            },
        ))
    raise ValueError(f"unknown family {name!r}; presets are {', '.join(PRESET_NAMES)}")
