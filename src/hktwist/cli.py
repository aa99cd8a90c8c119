"""Command-line front end.

Subcommands mirror the library: ``threshold``/``poly``/``gamma-p``/
``cone-test`` work on a pairing family (built-in preset or @file JSON),
``square`` exposes the Hilbert-square intersection calculus, and
``derive-k3-3`` replays the Riemann-Roch derivation of the Hilbert-cube
constants.  Every command supports ``--json`` (schema "1") and ``--digits``
for decimal display precision; all underlying arithmetic stays exact.

Each handler computes its result once and returns ``(fields, lines,
notes)``: the JSON fields and the text lines of the same values, plus the
caution notes.  ``main`` adds the envelope, ``schema``/``command``/``notes``
to the JSON document or one ``note:`` line per note to the text.

Exit codes: 0 success, 1 domain error (unknown family, bad family file,
out-of-range q or alpha^2, too large a polynomial), 2 usage error (or too
many digits).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import notes, threshold
from .algebraic import AlgebraicReal, largest_real_root
from .exact import MAX_DIGITS, format_rational, parse_rational
from .family import HKFamily, PRESET_NAMES, preset

SCHEMA = "1"

# An interval endpoint has about d digits plus the polynomial's, up to 2400
# within threshold.MAX_POLY_BITS, which must print below the 4300-digit int
# limit; that sets the cap, not time: the decimal of gamma_p on K3_3 at
# q = 10^-100 takes 0.16 s at 1500 digits and 0.57 s at 4000 (in-process,
# 2-core VM), and gamma-p at q = 7/3 on a random n = 20 table about 4.7 s at
# 1500 as a fresh process.
MAX_DISPLAY_DIGITS = 1500

# The square commands print quadratics in a = --alpha-sq.  With its numerator
# and denominator at most 10^MAX_ALPHA_SQ_DIGITS, each printed value has at
# most twice that many digits plus its coefficients' few, below the
# interpreter's 4300-digit limit on printing an int; a larger one is refused.
MAX_ALPHA_SQ_DIGITS = 2000


def _rational_arg(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


class _ArgumentParser(argparse.ArgumentParser):
    """An ArgumentParser that takes a value starting with "-", such as -3/2
    or -1e2, after a number option.

    argparse reads such a value as an option string, so "--q-delta -3/2"
    would end in "expected one argument".  Before parsing, each parser
    joins its own number options (those parsed by ``_rational_arg``,
    abbreviated or not) with a following token that starts with "-" and
    names none of its options, as "--q-delta=-3/2"; ``_rational_arg`` then
    judges the value.  Nothing after "--" is joined.
    """

    def parse_known_args(self, args=None, namespace=None):
        if args is not None:
            args = list(args)
            end = args.index("--") if "--" in args else len(args)
            for i in range(end - 1, 0, -1):
                if args[i].startswith("-") and not self._named(args[i].split("=", 1)[0]):
                    if self._is_number_option(args[i - 1]):
                        args[i - 1 : i + 1] = [f"{args[i - 1]}={args[i]}"]
        return super().parse_known_args(args, namespace)

    def _named(self, token: str) -> list[str]:
        """The option strings that ``token`` names, whole or abbreviated."""
        options = [s for action in self._actions for s in action.option_strings]
        if token in options:
            return [token]
        return [s for s in options if token.startswith("--") and s.startswith(token)]

    def _is_number_option(self, token: str) -> bool:
        named = self._named(token)
        return len(named) == 1 and any(
            named[0] in a.option_strings for a in self._actions if a.type is _rational_arg
        )


def _digits_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if not 1 <= value <= MAX_DISPLAY_DIGITS:
        raise argparse.ArgumentTypeError(f"digits must be between 1 and {MAX_DISPLAY_DIGITS}")
    return value


class JSONNumber(Fraction):
    """A family file's number, read exactly from its text, which is also how
    it prints: an error names it as written.  A literal over
    ``exact.MAX_DIGITS`` characters, which no table needs and an int could
    not print, is refused."""

    __slots__ = ("text",)

    def __new__(cls, text: str):
        if len(text) > MAX_DIGITS:
            raise ValueError(f"a number of {len(text)} characters, over {MAX_DIGITS}")
        self = super().__new__(cls, parse_rational(text))
        self.text = text
        return self

    def __repr__(self) -> str:
        return self.text

    __str__ = __repr__


def load_family(selector: str) -> HKFamily:
    """A preset name (case-insensitive) or @path to a pairing-table JSON file.

    A file's numbers are read exactly from their text (no binary float),
    within the bounds of ``JSONNumber``.
    """
    if selector.startswith("@"):
        path = selector[1:]
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(
                    fh, parse_float=JSONNumber, parse_int=lambda text: int(JSONNumber(text))
                )
            except (json.JSONDecodeError, RecursionError) as exc:
                raise ValueError(f"family file {path!r} is not valid JSON: {exc}")
            except ValueError as exc:
                raise ValueError(f"family file {path!r}: {exc}")
        try:
            return HKFamily.from_json(data)
        except KeyError as exc:
            raise ValueError(f"family file {path!r} is missing field {exc}")
        except ValueError as exc:
            raise ValueError(f"family file {path!r}: {exc}")
    return preset(selector)


def _rational_json(value: AlgebraicReal | None) -> str | None:
    return (
        format_rational(value.rational_value())
        if value is not None and value.is_rational
        else None
    )


def _value_text(value: AlgebraicReal, doc: dict) -> str:
    """A rational value as "p/q exactly", any other as the decimal in its ``doc``."""
    rational = _rational_json(value)
    return doc["decimal"] if rational is None else f"{rational} exactly"


def _family_part(family: HKFamily) -> tuple[dict, list[str]]:
    return (
        {"family": {"name": family.name, "n": family.n}},
        [f"family: {family.name} (n = {family.n}, dimension {family.dimension})"],
    )


def _threshold_notes(family: HKFamily) -> list[str]:
    out = [notes.NOTE_EXACT, notes.NOTE_OMEGA_POWERS]
    # The note is about the K3_3 constant, so it follows the table, not the name.
    if family.n == 3 and family.pairings == preset("K3_3").pairings:
        out.append(notes.NOTE_CUBE_DECIMAL)
    return out


def _cmd_threshold(args) -> tuple[dict, list[str], list[str]]:
    """``threshold`` and ``poly``: the polynomial, and for threshold its root C."""
    family = load_family(args.family)
    record = threshold.threshold_record(family)
    fields, lines = _family_part(family)
    pairings = [format_rational(d) for d in record.pairings]
    poly = record.poly
    fields.update(segre_pairings=pairings, polynomial=poly.to_json())
    lines.append("segre pairings (d_0 .. d_2n by omega-power): " + ", ".join(pairings))
    lines.append(f"p(t) = {poly.render()}")
    if args.command == "threshold":
        constant = record.constant
        if constant is None:
            fields["constant"] = None
            lines.append(f"C = none ({poly.render()} has no real roots; every q > 0 passes)")
        else:
            fields["constant"] = constant.to_json(args.digits)
            lines.append(
                f"C = {_value_text(constant, fields['constant'])} "
                f"(largest root of {poly.render()})"
            )
        fields["rational"] = _rational_json(constant)
    return fields, lines, _threshold_notes(family)


def _cmd_gamma_p(args) -> tuple[dict, list[str], list[str]]:
    family = load_family(args.family)
    gamma = threshold.gamma_p(family, args.q)
    fields, lines = _family_part(family)
    fields.update(
        q=format_rational(args.q),
        gamma_p=gamma.to_json(args.digits),
        rational=_rational_json(gamma),
    )
    lines.append(f"q(omega) = {fields['q']}")
    lines.append(
        f"gamma_p = {_value_text(gamma, fields['gamma_p'])} (root of {gamma.poly.render('s')})"
    )
    return fields, lines, _threshold_notes(family)


def _cmd_cone_test(args) -> tuple[dict, list[str], list[str]]:
    family = load_family(args.family)
    nef = not args.not_nef
    member = threshold.pseff_cone_member(family, args.a, args.q_delta, nef)
    fields, lines = _family_part(family)
    fields.update(
        a=format_rational(args.a),
        q_delta=format_rational(args.q_delta),
        delta_nef=nef,
        member=member,
    )
    lines.append(
        f"candidate: a = {fields['a']}, q(delta) = {fields['q_delta']}, "
        f"delta nef: {'yes' if nef else 'no'}"
    )
    lines.append(f"pseff-cone member: {'yes' if member else 'no'}")
    return fields, lines, _threshold_notes(family)


def _cmd_square_table(args) -> tuple[dict, list[str], list[str]]:
    from . import hilbert_square as hs
    minimal = hs.minimal_table()
    derived = hs.pushforward_rows()
    table = hs.square_chern_table()
    chern = {"s2": str(table["s2"])}
    chern.update((key, format_rational(table[key])) for key in ("s2^2", "c4", "s4"))
    width = max(len(label) for label, _ in minimal + derived)
    lines = ["minimal weight-4 table (a = q(alpha)):"]
    lines += [f"  {label.ljust(width)} = {poly.render('a')}" for label, poly in minimal]
    lines.append("pushforward pairings on P (derived from the table):")
    lines += [f"  {label.ljust(width)} = {poly.render('a')}" for label, poly in derived]
    lines.append("characteristic classes of X:")
    lines.append(f"  s2 = {chern['s2']}")
    lines.append(f"  s2^2 = {chern['s2^2']}")
    lines.append(f"  c4 = {chern['c4']}")
    lines.append(f"  s4 = s2^2 - c4 = {chern['s4']}")
    fields = {
        "minimal": {label: poly.to_json() for label, poly in minimal},
        "pushforward": {label: poly.to_json() for label, poly in derived},
        "chern": chern,
    }
    return fields, lines, [notes.NOTE_EXACT]


def _alpha_sq(value: Fraction) -> Fraction:
    """``value``, or a ValueError past ``MAX_ALPHA_SQ_DIGITS``."""
    if max(abs(value.numerator), value.denominator) > 10**MAX_ALPHA_SQ_DIGITS:
        raise ValueError(
            f"--alpha-sq needs its numerator and denominator at most 10^{MAX_ALPHA_SQ_DIGITS}"
        )
    return value


def _cmd_square_z(args) -> tuple[dict, list[str], list[str]]:
    from . import hilbert_square as hs
    if args.alpha_sq is not None:
        _alpha_sq(args.alpha_sq)
    poly = hs.z_pairing()
    top = largest_real_root(poly)
    fields = {"polynomial": poly.to_json(), "largest_root": top.to_json(args.digits), "at": None}
    lines = [f"z-pairing(a) = {poly.render('a')}"]
    lines.append(
        f"largest root: a = {fields['largest_root']['decimal']} "
        f"(root of {top.poly.render('a')})"
    )
    if args.alpha_sq is not None:
        value = poly(args.alpha_sq)
        fields["at"] = {"a": format_rational(args.alpha_sq), "value": format_rational(value)}
        lines.append(f"z-pairing({fields['at']['a']}) = {fields['at']['value']}")
    return fields, lines, [notes.NOTE_EXACT, notes.NOTE_Z_PAIRING]


def _cmd_square_kahler(args) -> tuple[dict, list[str], list[str]]:
    from . import hilbert_square as hs
    labels = ("omega^4", "omega^3*E", "omega^2*sbar", "omega*l")
    polys = hs.kahler_criterion()
    values, positive = hs.kahler_criterion(_alpha_sq(args.alpha_sq))
    fields = {
        "a": format_rational(args.alpha_sq),
        "polynomials": {label: poly.to_json() for label, poly in zip(labels, polys)},
        "values": {label: format_rational(v) for label, v in zip(labels, values)},
        "positive": positive,
    }
    lines = [f"test class omega = alpha - delta at a = {fields['a']}:"]
    for label, poly in zip(labels, polys):
        lines.append(
            f"  {label.ljust(12)} = {poly.render('a').ljust(16)} -> {fields['values'][label]}"
        )
    lines.append(f"all positive: {'yes' if positive else 'no'} (holds exactly when a > 2)")
    return fields, lines, [notes.NOTE_EXACT]


def _cmd_derive(args) -> tuple[dict, list[str], list[str]]:
    from . import riemann_roch
    record = riemann_roch.derivation()
    nieper = record.nieper
    fields = {
        "constants": {
            ("1" if m.is_unit else str(m)): format_rational(v)
            for m, v in record.constants.items()
        },
        "equation1": [format_rational(x) for x in record.rr["equation1"]],
        "equation2": [format_rational(x) for x in nieper["equation2"]],
        "lambda": format_rational(nieper["lambda"]),
        "sqrt_todd_c2sq": format_rational(nieper["sqrt_td_c2sq"]),
        "r6": format_rational(nieper["r6"]),
        "todd_constant": format_rational(riemann_roch.CUBE_CHI_O),
        "weight6": dict(zip(("c2^3", "c2*c4", "c6"), map(format_rational, record.weight6))),
        "trace": list(record.trace),
    }
    used_notes = [
        notes.NOTE_EXACT,
        notes.NOTE_SQRT_TODD,
        notes.NOTE_CHI_K3,
        notes.NOTE_NIEPER_CONVENTION,
    ]
    return fields, list(record.trace), used_notes


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="emit a JSON document instead of text"
    )
    common.add_argument(
        "--digits",
        type=_digits_arg,
        default=6,
        help="significant digits for decimal display (default 6)",
    )
    family_opt = argparse.ArgumentParser(add_help=False)
    family_opt.add_argument(
        "--family",
        required=True,
        help=f"preset name ({', '.join(PRESET_NAMES)}, case-insensitive) "
        "or @path to a pairing-table JSON file",
    )

    parser = _ArgumentParser(
        prog="hktwist",
        description="Exact positivity thresholds for twisted tangent sheaves "
        "on Hyperkahler families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "threshold",
        parents=[common, family_opt],
        help="threshold polynomial and its largest real root C",
    )
    p.set_defaults(handler=_cmd_threshold)

    p = sub.add_parser(
        "poly",
        parents=[common, family_opt],
        help="threshold polynomial only",
    )
    p.set_defaults(handler=_cmd_threshold)

    p = sub.add_parser(
        "gamma-p",
        parents=[common, family_opt],
        help="pseudoeffectivity threshold gamma_p = sqrt(C / q)",
    )
    p.add_argument("--q", type=_rational_arg, required=True, help="q(omega) > 0")
    p.set_defaults(handler=_cmd_gamma_p)

    p = sub.add_parser(
        "cone-test",
        parents=[common, family_opt],
        help="membership of a*zeta + delta-part in the pseff cone",
    )
    p.add_argument("--a", type=_rational_arg, required=True, help="zeta coefficient")
    p.add_argument(
        "--q-delta", type=_rational_arg, required=True, help="Beauville square of delta"
    )
    p.add_argument(
        "--not-nef",
        action="store_true",
        help="declare the delta part not nef (membership then fails)",
    )
    p.set_defaults(handler=_cmd_cone_test)

    p = sub.add_parser(
        "square",
        help="intersection calculus on the Hilbert square of a K3",
    )
    square_sub = p.add_subparsers(dest="square_command", required=True)

    q = square_sub.add_parser(
        "table", parents=[common], help="minimal weight-4 table and derived pairings"
    )
    q.set_defaults(handler=_cmd_square_table)

    q = square_sub.add_parser(
        "z-pairing",
        parents=[common],
        help="pairing of (zeta + pi*(alpha - delta))^5 with the incidence divisor",
    )
    q.add_argument(
        "--alpha-sq", type=_rational_arg, help="evaluate at a = q(alpha)"
    )
    q.set_defaults(handler=_cmd_square_z)

    q = square_sub.add_parser(
        "kahler", parents=[common], help="four-value positivity test at a = q(alpha)"
    )
    q.add_argument("--alpha-sq", type=_rational_arg, required=True)
    q.set_defaults(handler=_cmd_square_kahler)

    p = sub.add_parser(
        "derive-k3-3",
        parents=[common],
        help="re-derive the Hilbert-cube pairing constants from Riemann-Roch",
    )
    p.set_defaults(handler=_cmd_derive)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        fields, lines, used_notes = args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        command = args.command
        if command == "square":
            command += " " + args.square_command
        doc = {"schema": SCHEMA, "command": command, **fields, "notes": used_notes}
        print(json.dumps(doc, indent=2))
    else:
        print("\n".join(lines + [f"note: {n}" for n in used_notes]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
