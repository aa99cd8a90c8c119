import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hktwist.cli import MAX_ALPHA_SQ_DIGITS, MAX_DISPLAY_DIGITS, load_family, main
from hktwist.exact import parse_rational
from hktwist.family import _monomials
from hktwist.threshold import MAX_POLY_BITS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_threshold_text_k3(capsys):
    code, out, err = run(capsys, "threshold", "--family", "K3")
    assert code == 0 and err == ""
    assert "p(t) = 3t - 24" in out
    assert "C = 8 exactly" in out
    assert "note:" in out


def test_threshold_text_k3_2(capsys):
    code, out, _ = run(capsys, "threshold", "--family", "K3_2")
    assert code == 0
    assert "p(t) = 105t^2 - 630t + 504" in out
    assert "C = 5.04939 (largest root of 105t^2 - 630t + 504)" in out


def test_threshold_json_k3_3(capsys):
    code, out, _ = run(capsys, "threshold", "--family", "k3_3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "1"
    assert doc["polynomial"] == ["-10560", "-31680", "-35640", "6930"]
    assert doc["constant"]["decimal"] == "5.95368"
    assert doc["rational"] is None
    assert doc["notes"]
    lo, hi = doc["constant"]["interval"]
    assert "/" in lo or lo.isdigit()


def test_poly_command(capsys):
    code, out, _ = run(capsys, "poly", "--family", "K3_2", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["segre_pairings"] == ["504", "-30", "3"]
    assert "constant" not in doc


def test_gamma_p_rational(capsys):
    code, out, _ = run(capsys, "gamma-p", "--family", "K3", "--q", "32")
    assert code == 0
    assert "gamma_p = 1/2 exactly" in out


def test_gamma_p_json(capsys):
    code, out, _ = run(capsys, "gamma-p", "--family", "K3_2", "--q", "6", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["gamma_p"]["decimal"] == "0.917369"
    assert doc["rational"] is None


def test_cone_test(capsys):
    code, out, _ = run(capsys, "cone-test", "--family", "K3", "--a", "2", "--q-delta", "32")
    assert code == 0 and "pseff-cone member: yes" in out
    code, out, _ = run(capsys, "cone-test", "--family", "K3", "--a", "2", "--q-delta", "31")
    assert code == 0 and "pseff-cone member: no" in out
    code, out, _ = run(
        capsys, "cone-test", "--family", "K3", "--a", "2", "--q-delta", "32", "--not-nef"
    )
    assert code == 0 and "pseff-cone member: no" in out


def test_square_table(capsys):
    code, out, _ = run(capsys, "square", "table")
    assert code == 0
    assert "alpha^4" in out and "3a^2" in out
    assert "zeta^7" in out and "504" in out
    rows = {
        line.split("=")[0].strip(): line.split("=", 1)[1].strip()
        for line in out.splitlines()
        if "=" in line and not line.startswith("note")
    }
    assert rows["zeta^5*alpha^2"] == "-30a"
    assert rows["zeta^5*sbar"] == "-27"
    assert rows["zeta^3*sbar*delta^2"] == "-1"
    assert rows["delta^4"] == "12"


def test_square_z_pairing(capsys):
    code, out, _ = run(capsys, "square", "z-pairing")
    assert code == 0
    assert "z-pairing(a) = 30a^2 - 240a - 480" in out
    assert "9.65685" in out
    # the discrepancy note names both printed variants
    assert "15(a^2 - 8a - 56)" in out
    assert "sqrt(288)" in out


def test_square_z_pairing_at_zero(capsys):
    code, out, _ = run(capsys, "square", "z-pairing", "--alpha-sq", "0")
    assert code == 0
    assert "z-pairing(0) = -480" in out


def test_square_kahler(capsys):
    code, out, _ = run(capsys, "square", "kahler", "--alpha-sq", "3")
    assert code == 0
    assert "all positive: yes" in out
    code, out, _ = run(capsys, "square", "kahler", "--alpha-sq", "2")
    assert code == 0
    assert "all positive: no" in out


def test_derive_command(capsys):
    code, out, _ = run(capsys, "derive-k3-3")
    assert code == 0
    assert "3*A - B = 3120" in out
    assert "7/4*A - B = 810" in out
    assert "c2^2 = 1848" in out and "c4 = 2424" in out


def test_derive_json(capsys):
    code, out, _ = run(capsys, "derive-k3-3", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["constants"] == {"1": "15", "c2": "108", "c2^2": "1848", "c4": "2424"}
    assert doc["equation1"] == ["3", "-1", "3120"]
    assert doc["equation2"] == ["7/4", "-1", "810"]
    assert doc["lambda"] == "1/3"
    assert doc["sqrt_todd_c2sq"] == "7/5760"
    assert doc["todd_constant"] == "4"
    assert any("5650" in note for note in doc["notes"])


def test_digits_flag(capsys):
    code, out, _ = run(capsys, "threshold", "--family", "K3_3", "--digits", "12")
    assert code == 0
    assert "5.95367895498" in out


def test_digits_at_the_cap(capsys):
    code, out, err = run(
        capsys, "threshold", "--family", "K3_3", "--digits", str(MAX_DISPLAY_DIGITS)
    )
    assert code == 0 and err == ""
    (line,) = [line for line in out.splitlines() if line.startswith("C = ")]
    assert line.startswith("C = 5.95367895498")
    assert len(line.split()[2].replace(".", "")) == MAX_DISPLAY_DIGITS


def test_unknown_family_is_domain_error(capsys):
    code, out, err = run(capsys, "threshold", "--family", "K5")
    assert code == 1
    assert out == "" and "unknown family" in err


@pytest.mark.parametrize("value, shown", [("-3/2", "-3/2"), ("-1e2", "-100")])
def test_negative_fraction_after_a_number_option(capsys, value, shown):
    """A negative q(delta) is allowed when delta is not nef; a fraction or an
    exponent form after the option reads as with "--q-delta=value"."""
    code, out, err = run(
        capsys, "cone-test", "--family", "K3", "--a", "1", "--q-delta", value, "--not-nef"
    )
    assert code == 0 and err == ""
    assert f"candidate: a = 1, q(delta) = {shown}, delta nef: no" in out
    assert (code, out) == run(
        capsys, "cone-test", "--family", "K3", "--a", "1", f"--q-delta={value}", "--not-nef"
    )[:2]


@pytest.mark.parametrize("value, message", [
    ("-1e5000", "argument --q: exponent out of range in '-1e5000'"),
    ("-1/0", "argument --q: not a rational number: '-1/0'"),
    ("-inf", "argument --q: not a rational number: '-inf'"),
    ("--json", "argument --q: expected one argument"),
    ("-h", "argument --q: expected one argument"),
])
def test_token_after_a_number_option(capsys, value, message):
    """A token that names no option is the number option's value, so a bad
    negative value names its own fault; an option token leaves the number
    option without a value."""
    with pytest.raises(SystemExit) as info:
        main(["gamma-p", "--family", "K3", "--q", value])
    assert info.value.code == 2
    assert message in capsys.readouterr().err


def test_negative_q_is_domain_error(capsys):
    code, _, err = run(capsys, "gamma-p", "--family", "K3", "--q", "-4")
    assert code == 1 and "positive" in err


def test_bad_rational_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["gamma-p", "--family", "K3", "--q", "watermelon"])
    assert info.value.code == 2


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_family_file_roundtrip(tmp_path, capsys):
    from hktwist.family import preset

    path = tmp_path / "fam.json"
    path.write_text(json.dumps(preset("K3_2").to_json()))
    code, out, _ = run(capsys, "threshold", "--family", f"@{path}")
    assert code == 0
    assert "C = 5.04939" in out


def k3_document(**changes):
    """A valid n = 1 family file; a key of the document or of its c2 entry replaced."""
    doc = {
        "name": "k3-like",
        "n": 1,
        "pairings": [
            {"monomial": {}, "omega_power": 2, "constant": "1"},
            {"monomial": {"2": 1}, "omega_power": 0, "constant": "24"},
        ],
    }
    for key, value in changes.items():
        if key in doc:
            doc[key] = value
        else:
            doc["pairings"][1][key] = value
    return doc


# (file text, what the one-line error must say)
MALFORMED_FAMILY_FILES = [
    (json.dumps(k3_document(monomial=[])), "monomial must be a JSON object"),
    # n = 10^400 exactly, refused for its empty table
    ('{"name": "x", "n": 1e400, "pairings": []}', "omega^(2n) pairing must be present"),
    (json.dumps(k3_document(n=1.9)), "n must be an integer, not 1.9"),
    (json.dumps(k3_document(omega_power=0.5)), "omega power of c2 must be an integer"),
    (json.dumps(k3_document(monomial={"2": 1.7})), "exponent of c2 must be an integer"),
    ("[1, 2]", "family must be a JSON object, not array"),
    ("5", "family must be a JSON object, not number"),
    ("1.5", "family must be a JSON object, not number"),
    ('"x"', "family must be a JSON object, not string"),
    ("null", "family must be a JSON object, not null"),
    ("true", "family must be a JSON object, not true"),
    (json.dumps(k3_document(name=None)), "family name must be a JSON string or number, not null"),
    (json.dumps(k3_document(name=[1, True])), "name must be a JSON string or number, not array"),
    (json.dumps(k3_document(name={})), "name must be a JSON string or number, not object"),
    (json.dumps(k3_document(name=True)), "name must be a JSON string or number, not true"),
    (json.dumps(k3_document(pairings={})), "pairings must be a JSON array"),
    (json.dumps(k3_document(pairings=[1])), "each pairing must be a JSON object"),
    (json.dumps(k3_document(pairings=[None])), "each pairing must be a JSON object, not null"),
    # only the unit entry: refused at construction, before any Segre work
    (json.dumps(k3_document(n=40, pairings=[
        {"monomial": {}, "omega_power": 80, "constant": "1"},
    ])), "no pairing for c2"),
    (json.dumps(k3_document(n=1e300, pairings=[
        {"monomial": {}, "omega_power": 2e300, "constant": "1"},
    ])), "no pairing for c2"),
    # nested past the decoder's recursion limit
    ("[" * 100000 + "]" * 100000, "is not valid JSON"),
]


def _close_roots_document():
    """An n = 2 table whose polynomial is (t - 1)(t - 1 - 10^-400): its two
    roots need more bisection levels than the interpreter allows frames."""
    eps = Fraction(1, 10**400)
    constants = ((4, {}, Fraction(1, 35)), (2, {"2": 1}, (2 + eps) / 21),
                 (0, {"2": 2}, 1 + eps), (0, {"4": 1}, Fraction(0)))
    return {"name": "close roots", "n": 2, "pairings": [
        {"monomial": m, "omega_power": power, "constant": str(c)}
        for power, m, c in constants
    ]}


def _random_document(n, digits, seed):
    """A complete n table of seeded random fractions whose numerators and
    denominators have ``digits`` digits each."""
    rng = random.Random(seed)
    low, high = 10 ** (digits - 1), 10**digits - 1
    return {"name": f"random n={n}, {digits} digits", "n": n, "pairings": [
        {"monomial": {str(i): e for i, e in m.items()}, "omega_power": 2 * n - weight,
         "constant": f"{rng.randint(low, high)}/{rng.randint(low, high)}"}
        for weight in range(0, 2 * n + 1, 2) for m in _monomials(weight, weight)
    ]}


def _shared_factor_document():
    """An n = 1 table whose polynomial G - 3G*t, G = 5*10^4299, is 1 - 3t once
    primitive, but whose coefficient 3G has 4301 digits, past the interpreter's
    4300-digit print limit."""
    doc = k3_document(name="shared factor", constant=str(5 * 10**4299))
    doc["pairings"][0]["constant"] = str(5 * 10**4299)
    return doc


# The largest e for which t^2 + 10^e*t - 1 is within the polynomial size bound.
_E = max(e for e in range(1, 3000) if 2 * (10**e).bit_length() <= MAX_POLY_BITS)


def _small_root_document():
    """An n = 2 table whose polynomial is t^2 + 10^_E*t - 1.  Its largest root,
    about 10^-_E, takes the interval endpoints with the most digits that a
    polynomial within the size bound gives: about the digits asked for plus
    2*_E, which must still print."""
    return {"name": "small root", "n": 2, "pairings": [
        {"monomial": {}, "omega_power": 4, "constant": "1/35"},
        {"monomial": {"2": 1}, "omega_power": 2, "constant": str(Fraction(-10**_E, 21))},
        {"monomial": {"2": 2}, "omega_power": 0, "constant": "0"},
        {"monomial": {"4": 1}, "omega_power": 0, "constant": "1"},
    ]}


# Inputs that once crashed or ran without bound: (arguments, with "@FILE" for
# the family file, the family file's document or None, exit code, a fragment
# of the one stderr line, or of stdout on success).
HOSTILE_ARGUMENTS = [
    (("gamma-p", "--family", "K3_2", "--q", "1e-200"), None, 1, "at most 10^100"),
    (("gamma-p", "--family", "K3_3", "--q", "1e-1000"), None, 1, "at most 10^100"),
    (("cone-test", "--family", "K3", "--a", "1e5000", "--q-delta", "1"), None, 2,
     "exponent out of range"),
    (("gamma-p", "--family", "K3", "--q", "1e-10000000"), None, 2, "exponent out of range"),
    (("threshold", "--family", "@FILE"),
     k3_document(name="huge exponent", constant="1e-10000000"), 1, "exponent out of range"),
    (("threshold", "--family", "@FILE"), _close_roots_document(), 0,
     f"C = {1 + Fraction(1, 10**400)} exactly"),
    (("threshold", "--family", "K3_3", "--digits", "5000"), None, 2,
     f"digits must be between 1 and {MAX_DISPLAY_DIGITS}"),
    (("threshold", "--family", "@FILE"), _random_document(10, 30, 1), 1, "too large"),
    (("threshold", "--family", "@FILE"), _random_document(3, 1000, 1), 1, "too large"),
    (("threshold", "--family", "@FILE"), _random_document(3, 4000, 1), 1, "too large"),
    (("poly", "--family", "@FILE"), _shared_factor_document(), 1, "too large"),
    (("gamma-p", "--family", "K3", "--q", "9" * 5000), None, 2, "a run of 5000 digits"),
    # malformed long text is shown by a prefix and its length
    (("gamma-p", "--family", "K3", "--q", "1_" * 2200), None, 2,
     f"not a rational number: {'1_' * 20!r}... (4400 characters)"),
    (("gamma-p", "--family", "K3", "--q", "1" * 4300 + "e1"), None, 2,
     f"exponent out of range in {'1' * 40!r}... (4302 characters): over 4000 digits"),
    (("gamma-p", "--family", "K3", "--q", "x" * 5000), None, 2,
     f"not a rational number: {'x' * 40!r}... (5000 characters)"),
    (("threshold", "--family", "@FILE"), k3_document(name="long string", constant="9" * 5000),
     1, "family.json': a number with a run of 5000 digits"),
    (("gamma-p", "--family", "@FILE", "--q", "1e-100"), _random_document(5, 1, 1), 1,
     "too large"),
    (("threshold", "--family", "@FILE", "--digits", str(MAX_DISPLAY_DIGITS), "--json"),
     _small_root_document(), 0, f'"decimal": "1.{"0" * (MAX_DISPLAY_DIGITS - 1)}E-{_E}"'),
    (("square", "z-pairing", "--alpha-sq", "1e2200"), None, 1, "at most 10^2000"),
    (("square", "kahler", "--alpha-sq", "1e3000"), None, 1, "at most 10^2000"),
]


@pytest.mark.parametrize(
    "argv, document, code, message",
    HOSTILE_ARGUMENTS,
    ids=[" ".join(a).replace("FILE", d["name"] if d else "") for a, d, *_ in HOSTILE_ARGUMENTS],
)
def test_hostile_arguments_end_quickly_and_cleanly(tmp_path, argv, document, code, message):
    family = tmp_path / "family.json"
    if document is not None:
        family.write_text(json.dumps(document))
    argv = [f"@{family}" if a == "@FILE" else a for a in argv]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, COLUMNS="200")  # argparse's usage on one line
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-m", "hktwist", *argv],
        capture_output=True, text=True, env=env, timeout=10,
    )
    lines = result.stderr.splitlines()
    if result.returncode == 2 and lines and lines[0].startswith("usage: "):
        lines = lines[1:]  # a usage error prints argparse's usage line first
    assert result.returncode == code, result.stderr
    assert "Traceback" not in result.stderr and len(lines) <= 1, result.stderr
    assert all(len(line) < 400 for line in lines), result.stderr[:400]
    assert "Exceeds the limit" not in result.stderr, result.stderr
    assert message in (result.stdout if code == 0 else result.stderr)


# Seeded fuzzing of the same promise: generated arguments and family files,
# run in-process, each under a fixed wall-clock limit.
FUZZ_SEED, FUZZ_CASES, FUZZ_SECONDS = 2019, 200, 5
FUZZ_NUMBERS = [
    "0", "-0", "1", "-3", "32", "5/2", "-7/3", "1/0", "0/0", "1.5", "-2.25e3", "3e-7",
    "1e99", "-1e-99", "1e101", "1e-101", "1e5000", "1e-99999", "9" * 300, "1/" + "7" * 200,
    "", " ", "abc", "1//2", "nan", "inf", "-inf", "\u00bd", "1_000", "0x10", "+7",
    "\u22122", "1e", "e5", "1e1.5", "--1",
]
# Negative fractions and exponent forms, which argparse alone reads as
# option strings after a number option.
FUZZ_SIGNED = ["-3/2", "-40/7", "-1e2", "-2.5E-3", "-7e+1", "-0.5e1", "-9e-99"]
FUZZ_FAMILIES = ["K3", "K3_2", "K3_3", "k3_3", "K3_4", "", "@"]
FUZZ_DIGITS = ["1", "2", "6", "30", "60", "200", "0", "-3", "6.5", str(MAX_DISPLAY_DIGITS + 1)]


def _fuzz_number(rng):
    draw = rng.random()
    if draw < 0.5:
        return f"{rng.randint(-40, 40)}/{rng.randint(1, 9)}"
    if draw < 0.7:
        return rng.choice(FUZZ_SIGNED)
    return rng.choice(FUZZ_NUMBERS)


def _fuzz_option(rng, name, value):
    """--name value, or --name=value, which also passes a value that starts with -."""
    return [f"{name}={value}"] if rng.random() < 0.5 else [name, value]


def _fuzz_document(rng):
    """A complete table of small seeded rationals for n = 1..3, then with
    probability 1/2 one malformation."""
    n = rng.randint(1, 3)
    doc = {"name": f"fuzz n={n}", "n": n, "pairings": [
        {"monomial": {str(i): e for i, e in m.items()}, "omega_power": 2 * n - weight,
         "constant": f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}"}
        for weight in range(0, 2 * n + 1, 2) for m in _monomials(weight, weight)
    ]}
    entry = rng.choice(doc["pairings"])
    malformations = [
        lambda: doc["pairings"].pop(),
        lambda: doc["pairings"].append(dict(entry)),
        lambda: entry.update(constant=_fuzz_number(rng)),
        lambda: entry.update(constant=rng.choice([1.5, 10**30, None, [], True])),
        lambda: entry.update(omega_power=rng.choice([-1, 99, "2", 0.5])),
        lambda: entry.update(monomial=rng.choice([{"3": 1}, {"2": -1}, {"x": 1}, "c2"])),
        lambda: doc.update(n=rng.choice([0, -1, n + 1, "two", 10**6])),
        lambda: doc.pop(rng.choice(["name", "n", "pairings"])),
    ]
    if rng.random() < 0.5:
        rng.choice(malformations)()
    return doc


def _fuzz_argv(rng, family_file):
    command = rng.choice(["threshold", "poly", "gamma-p", "gamma-p", "cone-test", "square",
                          "derive-k3-3"])
    argv = [command]
    if command == "square":
        argv.append(rng.choice(["table", "z-pairing", "kahler", "cube"]))
        if argv[-1] != "table" and rng.random() < 0.8:
            argv += _fuzz_option(rng, "--alpha-sq", _fuzz_number(rng))
    elif command in ("threshold", "poly", "gamma-p", "cone-test"):
        family = f"@{family_file}" if rng.random() < 0.5 else rng.choice(FUZZ_FAMILIES)
        argv += ["--family", family]
        if command == "gamma-p":
            argv += _fuzz_option(rng, "--q", _fuzz_number(rng))
        if command == "cone-test":
            argv += _fuzz_option(rng, "--a", _fuzz_number(rng))
            argv += _fuzz_option(rng, "--q-delta", _fuzz_number(rng))
            if rng.random() < 0.3:
                argv.append("--not-nef")
    if rng.random() < 0.5:
        argv.append("--json")
    if rng.random() < 0.4:
        argv += _fuzz_option(rng, "--digits", rng.choice(FUZZ_DIGITS))
    if rng.random() < 0.1:
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(["--bogus", "-", "--q", "fuzz"]))
    return argv


NUMBER_OPTIONS = ("--q", "--a", "--q-delta", "--alpha-sq")
VALUE_OPTIONS = ("--family", "--digits", *NUMBER_OPTIONS)
OPTION_STRINGS = ("-h", "--help", "--json", "--not-nef", *VALUE_OPTIONS)


def _is_option_token(token):
    """Does the token (before any "=") name an option, whole or abbreviated?"""
    name = token.split("=", 1)[0]
    return name in OPTION_STRINGS or (
        name.startswith("--") and any(s.startswith(name) for s in OPTION_STRINGS)
    )


def _lacks_a_value(argv):
    """Does an option that takes a value stand last or before an option token,
    or --family or --digits before a token that starts with "-" and is no
    rational number?  After a number option any other token is its value."""
    for option, value in zip(argv, argv[1:] + [None]):
        if option in VALUE_OPTIONS:
            if value is None or _is_option_token(value):
                return True
            if option not in NUMBER_OPTIONS and value.startswith("-"):
                try:
                    parse_rational(value)
                except ValueError:
                    return True
    return False


class _FuzzTimeout(BaseException):
    """Not an Exception, so no handler in the CLI can turn it into an error line."""


def test_fuzzed_arguments_end_quickly_and_cleanly(tmp_path, capsys, monkeypatch):
    import signal

    def expire(signum, frame):
        raise _FuzzTimeout

    monkeypatch.setenv("COLUMNS", "200")  # argparse's usage on one line
    previous = signal.signal(signal.SIGALRM, expire)
    rng = random.Random(FUZZ_SEED)
    try:
        for case in range(FUZZ_CASES):
            family = tmp_path / f"fuzz{case}.json"
            family.write_text(json.dumps(_fuzz_document(rng)))
            argv = _fuzz_argv(rng, family)
            signal.setitimer(signal.ITIMER_REAL, FUZZ_SECONDS)
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except _FuzzTimeout:
                pytest.fail(f"{argv} ran past {FUZZ_SECONDS} s ({family.read_text()})")
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            out, err = capsys.readouterr()
            lines = err.splitlines()
            if code == 2 and lines and lines[0].startswith("usage: "):
                lines = lines[1:]  # a usage error prints argparse's usage line first
            context = (argv, family.read_text(), err)
            assert code in (0, 1, 2) and len(lines) <= 1, context
            assert (code == 0) == (out != "") == (err == ""), context
            assert "Exceeds the limit" not in err, context
            assert "expected one argument" not in err or _lacks_a_value(argv), context
    finally:
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("command", ["z-pairing", "kahler"])
def test_alpha_sq_bound_on_both_sides(capsys, command):
    """--alpha-sq is refused exactly when its numerator or denominator passes
    10^MAX_ALPHA_SQ_DIGITS; every accepted value prints."""
    bound = 10**MAX_ALPHA_SQ_DIGITS
    for value, code in ((bound, 0), (-bound, 0), (Fraction(bound - 1, bound), 0),
                        (Fraction(-bound, bound - 1), 0), (bound + 1, 1), (-bound - 1, 1),
                        (Fraction(1, bound + 1), 1), (Fraction(bound, bound + 1), 1)):
        got, out, err = run(capsys, "square", command, f"--alpha-sq={value}", "--json")
        assert got == code, err
        if code:
            assert err.count("\n") == 1 and f"at most 10^{MAX_ALPHA_SQ_DIGITS}" in err
        else:
            assert json.loads(out)["a" if command == "kahler" else "at"] is not None


def test_family_file_numbers_are_read_exactly(tmp_path, capsys):
    """A JSON number is read from its text, never through a binary float."""
    from hktwist.series import ChernMonomial

    family = tmp_path / "family.json"
    c2 = ChernMonomial({2: 1})
    for text, exact in (("12345678901234567890.5", Fraction(24691357802469135781, 2)),
                        ("1e-400", Fraction(1, 10**400)), ("1e400", Fraction(10**400))):
        family.write_text(json.dumps(k3_document()).replace('"24"', text))
        assert load_family(f"@{family}").pairings[c2] == exact
    family.write_text(json.dumps(k3_document()).replace('"24"', "1e-400"))
    code, out, _ = run(capsys, "poly", "--family", f"@{family}")
    assert code == 0 and f"p(t) = 3t - 1/{10**400}" in out
    family.write_text(json.dumps(k3_document()).replace('"24"', "9" * 5000))
    code, out, err = run(capsys, "poly", "--family", f"@{family}")
    assert code == 1 and out == "" and err.count("\n") == 1, err
    assert str(family) in err and "Exceeds the limit" not in err, err


def test_family_file_errors(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    code, _, err = run(capsys, "threshold", "--family", f"@{missing}")
    assert code == 1 and "No such file" in err
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    code, _, err = run(capsys, "threshold", "--family", f"@{bad}")
    assert code == 1 and "not valid JSON" in err
    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"name": "x", "n": 1}))
    code, _, err = run(capsys, "threshold", "--family", f"@{incomplete}")
    assert code == 1
    malformed = tmp_path / "malformed.json"
    for text, message in MALFORMED_FAMILY_FILES:
        malformed.write_text(text)
        code, out, err = run(capsys, "threshold", "--family", f"@{malformed}")
        assert code == 1 and out == "", text
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert message in err and "missing field" not in err, err


def test_json_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "threshold", "--family", "K3_3", "--json")
    _, second, _ = run(capsys, "threshold", "--family", "K3_3", "--json")
    assert first == second


FAMILY_COMMANDS = [
    ("threshold",),
    ("gamma-p", "--q", "32"),
    ("cone-test", "--a", "2", "--q-delta", "32"),
]


@pytest.mark.parametrize("command", FAMILY_COMMANDS, ids=lambda c: c[0])
def test_cube_note_follows_the_table_not_the_name(tmp_path, capsys, command):
    from hktwist.family import preset
    from hktwist.notes import NOTE_CUBE_DECIMAL

    renamed_k3 = tmp_path / "renamed_k3.json"
    renamed_k3.write_text(json.dumps(k3_document(name="K3_3")))
    cube = preset("K3_3").to_json()
    cube["name"] = "my cube"
    renamed_cube = tmp_path / "renamed_cube.json"
    renamed_cube.write_text(json.dumps(cube))
    for path, expected in ((renamed_k3, False), (renamed_cube, True)):
        code, out, _ = run(capsys, *command[:1], "--family", f"@{path}", *command[1:])
        assert code == 0 and (NOTE_CUBE_DECIMAL in out) == expected, (path, out)
        code, out, _ = run(capsys, *command[:1], "--family", f"@{path}", *command[1:], "--json")
        assert code == 0 and (NOTE_CUBE_DECIMAL in json.loads(out)["notes"]) == expected
    _, out, _ = run(capsys, "threshold", "--family", f"@{renamed_k3}")
    assert "C = 8 exactly" in out
