"""The four seeded workloads, as endless streams of fixed-composition cycles.

Every cycle of a workload holds the same mix of operation kinds, and runs
measure whole cycles, so each run sees the same mix.

Root isolation today snaps every irrational root by walking Stern-Brocot
candidates up to denominator 10^6, so its cost follows the continued
fraction of the root and is heavy-tailed: over random q, 5 % of gamma_p
calls on K3_2 took 59 % of the time (one took 5.9 s), and seeded random
family tables made runs differ by almost 2x.  So the inputs whose cost
depends on where the roots fall come from fixed corpora (``GAMMA_Q_CORPUS``,
``FAMILY_CORPUS_N`` drawn with ``CORPUS_SEED``) that every cycle covers in
full; the seed orders them and draws everything whose cost is smooth: cone
and sufficiency inputs, planted exact answers, digit counts, the positive
factor each corpus table is rescaled by (which changes every number parsed
but not the roots) and the rejected documents.

No usage data says how often each query is asked, so the mix of each cycle
is an assumption, stated beside each workload below and in NOTES.md with
its share of operations and of time.  Only two shares are given by the
benchmark's definition: about one family document in five is rejected, and
the cli workload runs every README command once in each output variant.

An operation is an ``Op``: ``run()`` calls the program and returns a plain
value (strings, tuples, bools), ``check(value)`` asks the oracle and returns
None or the reason the value is wrong.  Program functions are looked up on
the ``hktwist`` modules at call time, so an installed tracer sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import oracle

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_DIR = BENCH_DIR / "goldens"

PRESETS = ("K3", "K3_2", "K3_3")

# Every README command; each runs as text, --json, --digits 60 and both.
README_COMMANDS = [
    ["threshold", "--family", "K3_2"],
    ["poly", "--family", "K3"],
    ["gamma-p", "--family", "K3", "--q", "32"],
    ["cone-test", "--family", "K3", "--a", "2", "--q-delta", "32"],
    ["square", "table"],
    ["square", "z-pairing", "--alpha-sq", "0"],
    ["square", "kahler", "--alpha-sq", "5/2"],
    ["derive-k3-3"],
]
CLI_VARIANTS = [[], ["--json"], ["--digits", "60"], ["--json", "--digits", "60"]]
CLI_COMMANDS = [cmd + variant for cmd in README_COMMANDS for variant in CLI_VARIANTS]

# (root, digits) per digits-cycle slot: an assumed mix, not measured use.
# The digit count roughly doubles from 60 to 1000 and the number of slots
# falls as the cost grows (5, 4, 3, 1, 1): the one 1000-digit refinement
# takes longer than the other 13 slots together, so a run at equal counts
# would hold a few dozen operations, too few for a steady tail.  The slots
# are also laid out so that the median falls in the middle of the 120-digit
# group and p75 in the middle of the 250-digit group, not on a step between
# two groups, which keeps both quantiles steady from run to run.
DIGITS_SLOTS = [
    ("C_K3_2", 60), ("C_K3_3", 60), ("z", 60), ("gamma_K3", 60), ("gamma_K3_2", 60),
    ("C_K3_2", 120), ("C_K3_3", 120), ("z", 120), ("gamma_K3_2", 120),
    ("C_K3_2", 250), ("z", 250), ("z", 250),
    ("C_K3_2", 500),
    ("z", 1000),
]

# Corpora shared by every seed; see the module docstring for why.
CORPUS_SEED = 0
_corpus_rng = random.Random(CORPUS_SEED)
GAMMA_Q_CORPUS = tuple(
    Fraction(_corpus_rng.randint(1, 400), _corpus_rng.randint(1, 12)) for _ in range(12)
)
FAMILY_CORPUS_N = (1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 20)
# Rejected documents per families cycle, 3 of 16 documents, about one in
# five: (lowest n, highest n, defect or None for a seeded choice among the
# malformed kinds).  The corpus sizes n are an assumption: every n up to 8,
# then sparser up to 20, because the cost grows fast with n.
REJECTED_SLOTS = ((2, 8, "missing"), (8, 14, "missing"), (2, 14, None))
INVALID_KINDS = ("missing", "omega", "duplicate", "odd_index", "constant")


def golden_path(argv) -> Path:
    slug = re.sub(r"[^A-Za-z0-9.-]+", "_", " ".join(argv)).strip("_")
    return GOLDEN_DIR / f"{slug}.out"


class Op:
    """One operation: a label, the call, and the oracle's verdict on its value."""

    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


def _rational_or_none(value) -> str | None:
    return str(value.rational_value()) if value.is_rational else None


# -- sweep ---------------------------------------------------------------------


class Sweep:
    """gamma_p with its 6-digit decimal, cone membership and the q >= C test."""

    presets = PRESETS
    tail_percentile = 95

    def __init__(self, hk, seed: int):
        self.hk = hk
        self.rng = random.Random(seed)
        self.families = {name: hk.preset(name) for name in PRESETS}
        self.polys = {name: oracle.preset_poly(name) for name in PRESETS}
        self.chains = {
            name: oracle.sturm(oracle.squarefree(p)) for name, p in self.polys.items()
        }

    def cycle(self) -> list[Op]:
        """36 gamma_p, 6 cone, 3 q >= C and 1 planted gamma_p operation.

        An assumed mix.  A cone or q >= C test on a preset isolates the same
        polynomial whatever its input, so two and one per family sample its
        cost; the cost of gamma_p depends on q, so every cycle covers the
        whole q corpus on every family.
        """
        rng = self.rng
        ops = []
        for name in PRESETS:
            ops += [self._gamma(name, q) for q in GAMMA_Q_CORPUS]
            for k in range(2):
                a = Fraction(rng.randint(1, 12), rng.randint(1, 4))
                if name == "K3" and k == 0:
                    q_delta = 8 * a * a  # exactly on the cone boundary
                else:
                    q_delta = a * a * Fraction(rng.randint(1, 2000), 100)
                ops.append(self._cone(name, a, q_delta))
            q = Fraction(8) if name == "K3" else Fraction(rng.randint(1, 2000), rng.randint(1, 100))
            ops.append(self._sufficient(name, q))
        # an exact answer: gamma_p(K3, 8 r^2) = 1/r
        r = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        ops.append(self._gamma("K3", 8 * r * r))
        rng.shuffle(ops)
        return ops

    def _gamma(self, name, q):
        hk, family = self.hk, self.families[name]
        poly = oracle.gamma_poly(self.polys[name], q)

        def run():
            g = hk.threshold.gamma_p(family, q)
            return g.decimal(6), _rational_or_none(g)

        def check(value):
            return oracle.check_largest_root(poly, value[0], 6, value[1])

        return Op(f"gamma_p {name} q={q}", run, check)

    def _cone(self, name, a, q_delta):
        hk, family, chain = self.hk, self.families[name], self.chains[name]
        expected = oracle.roots_above(chain, q_delta / (a * a)) == 0

        def run():
            return hk.threshold.pseff_cone_member(family, a, q_delta, True)

        return Op(f"cone {name} a={a} q_delta={q_delta}", run,
                  lambda v: None if v is expected else f"expected {expected}")

    def _sufficient(self, name, q):
        hk, family = self.hk, self.families[name]
        expected = oracle.roots_above(self.chains[name], q) == 0

        def run():
            return hk.threshold.is_pseff_sufficient(family, q)

        return Op(f"sufficient {name} q={q}", run,
                  lambda v: None if v is expected else f"expected {expected}")


# -- digits ----------------------------------------------------------------------


class Digits:
    """Certified decimal / to_json of fixed and seeded roots at 60-1000 digits.

    Roots are isolated while the cycle is built, outside the timed call, so
    each operation is refinement plus rendering only.
    """

    presets = PRESETS
    extra_imports = ("hktwist.hilbert_square",)
    tail_percentile = 75

    def __init__(self, hk, seed: int):
        import hktwist.hilbert_square as hs

        self.hk = hk
        self.rng = random.Random(seed)
        fam = {name: hk.preset(name) for name in PRESETS}
        self.fixed = {
            "C_K3_2": (hk.constant_C(fam["K3_2"]), oracle.preset_poly("K3_2")),
            "C_K3_3": (hk.constant_C(fam["K3_3"]), oracle.preset_poly("K3_3")),
            "z": (hk.isolate_real_roots(hs.z_pairing())[-1], oracle.Z_POLY),
        }
        self.families = fam

    def _gamma_root(self, name):
        q = self.rng.choice(GAMMA_Q_CORPUS)
        root = self.hk.gamma_p(self.families[name], q)
        return root, oracle.gamma_poly(oracle.preset_poly(name), q), f"q={q}"

    def cycle(self) -> list[Op]:
        rng = self.rng
        ops = []
        for key, digits in DIGITS_SLOTS:
            if key.startswith("gamma_"):
                root, poly, note = self._gamma_root(key[len("gamma_"):])
            else:
                (root, poly), note = self.fixed[key], ""
            as_json = rng.random() < 0.5
            ops.append(self._op(key, note, root, poly, digits, as_json))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _op(key, note, root, poly, digits, as_json):
        if as_json:
            def run():
                return json.dumps(root.to_json(digits), sort_keys=True)

            def check(value):
                doc = json.loads(value)
                why = oracle.check_largest_root(poly, doc["decimal"], digits)
                if why:
                    return why
                if doc["poly"] != [str(c) for c in oracle.squarefree(poly)]:
                    return "to_json poly is not the square-free primitive polynomial"
                lo, hi = (Fraction(x) for x in doc["interval"])
                p = oracle.squarefree(poly)
                if oracle.sign_at(p, lo) * oracle.sign_at(p, hi) >= 0:
                    return "to_json interval does not straddle the root"
                if not (oracle.rounds_to(lo, doc["decimal"]) and oracle.rounds_to(hi, doc["decimal"])):
                    return "to_json interval does not certify the decimal"
                return None
        else:
            def run():
                return root.decimal(digits)

            def check(value):
                return oracle.check_largest_root(poly, value, digits)

        method = "to_json" if as_json else "decimal"
        return Op(" ".join(filter(None, (method, key, note, f"digits={digits}"))), run, check)


# -- families --------------------------------------------------------------------


def family_document(rng: random.Random, n: int, index: int) -> dict:
    """A complete pairing table for dimension 2n, entries in random order."""
    entries = []
    for weight in range(0, 2 * n + 1, 2):
        for mono in oracle.even_partitions(weight):
            if weight == 0:
                constant = str(rng.randint(1, 60))
            elif rng.random() < 0.2:
                constant = f"{rng.randint(-999, 999)}/{rng.randint(1, 9)}"
            else:
                constant = str(rng.randint(-10**4, 10**4))
            entries.append({
                "monomial": {str(i): e for i, e in mono},
                "omega_power": 2 * n - weight,
                "constant": constant,
            })
    rng.shuffle(entries)
    return {"name": f"random-{index}", "n": n, "pairings": entries}


def rescaled(rng: random.Random, doc: dict) -> dict:
    """``doc`` with every constant times one seeded positive rational, reshuffled.

    Every Segre pairing, hence the threshold polynomial, scales by the same
    factor, so the roots and the isolation work are unchanged.
    """
    factor = Fraction(rng.randint(1, 99), rng.randint(1, 99))
    entries = [{**e, "constant": str(Fraction(e["constant"]) * factor)} for e in doc["pairings"]]
    rng.shuffle(entries)
    return {**doc, "pairings": entries}


def corrupt(rng: random.Random, doc: dict, kind: str) -> dict:
    """A copy of ``doc`` with one planted defect that must be rejected."""
    entries = [dict(e) for e in doc["pairings"]]
    non_top = [i for i, e in enumerate(entries) if e["monomial"]]
    pick = rng.choice(non_top)
    if kind == "missing":
        del entries[pick]
    elif kind == "omega":
        entries[pick]["omega_power"] += 2
    elif kind == "duplicate":
        entries.append(dict(entries[pick]))
    elif kind == "odd_index":
        entries[pick]["monomial"] = {"3": 1, **entries[pick]["monomial"]}
    elif kind == "constant":
        entries[pick]["constant"] = "12/x"
    else:
        raise ValueError(kind)
    return {**doc, "pairings": entries}


class Families:
    """Custom pairing tables: from_json -> threshold_result -> 6-digit decimal.

    Each cycle runs every corpus table, rescaled by a fresh seeded factor,
    plus the ``REJECTED_SLOTS`` documents, about one in five.
    """

    presets = ()
    tail_percentile = 85
    corpus = tuple(
        family_document(random.Random(f"{CORPUS_SEED}-{n}"), n, n) for n in FAMILY_CORPUS_N
    )

    def __init__(self, hk, seed: int):
        self.hk = hk
        self.rng = random.Random(seed)

    def cycle(self) -> list[Op]:
        rng = self.rng
        ops = [self.op(rescaled(rng, doc)) for doc in self.corpus]
        for lo, hi, kind in REJECTED_SLOTS:
            kind = kind or rng.choice(INVALID_KINDS[1:])
            doc = family_document(rng, rng.randint(lo, hi), 0)
            ops.append(self.op(corrupt(rng, doc, kind), kind))
        rng.shuffle(ops)
        return ops

    def op(self, doc, kind=None):
        hk = self.hk
        try:
            n, table = oracle.validate_doc(doc)
            poly = oracle.threshold_poly(n, table)
        except oracle.OracleReject:
            poly = None

        def run():
            try:
                family = hk.family.HKFamily.from_json(doc)
                p, constant = hk.threshold.threshold_result(family)
            except ValueError:
                return ("rejected",)
            if constant is None:
                return ("ok", tuple(p.to_json()), None, None)
            return ("ok", tuple(p.to_json()), constant.decimal(6), _rational_or_none(constant))

        def check(value):
            if poly is None:
                return None if value == ("rejected",) else "accepted an invalid document"
            if value[0] != "ok":
                return "rejected a valid document"
            if list(value[1]) != [str(c) for c in poly]:
                return "threshold polynomial differs from the closed form"
            return oracle.check_largest_root(poly, value[2], 6, value[3])

        label = f"family n={doc['n']}" + (f" invalid={kind}" if kind else "")
        return Op(label, run, check)


# -- cli ----------------------------------------------------------------------------


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Cli:
    """README commands as fresh ``python -m hktwist`` processes, one at a time."""

    presets = ()
    tail_percentile = 90

    def __init__(self, hk, seed: int, in_process: bool = False):
        self.hk = hk
        self.rng = random.Random(seed)
        self.in_process = in_process
        if in_process:
            # The K3_3 self-check runs once per process; paying it here keeps
            # it out of the operations, so traced counts show steady state.
            hk.preset("K3_3")
        self.goldens = {tuple(argv): golden_path(argv).read_bytes() for argv in CLI_COMMANDS}
        self.env = cli_env()

    def cycle(self) -> list[Op]:
        commands = list(CLI_COMMANDS)
        self.rng.shuffle(commands)
        return [self.op(argv) for argv in commands]

    def op(self, argv):
        golden = self.goldens[tuple(argv)]
        run = (lambda: self.run_in_process(argv)) if self.in_process else (lambda: self.run_child(argv))

        def check(value):
            code, out, err = value
            if code != 0:
                return f"exit code {code}"
            if err:
                return f"stderr: {err[:200]!r}"
            return None if out == golden else "stdout differs from the golden file"

        return Op("hktwist " + " ".join(argv), run, check)

    def run_child(self, argv):
        proc = subprocess.run([sys.executable, "-m", "hktwist", *argv], capture_output=True,
                              env=self.env, cwd=ROOT, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def run_in_process(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.hk.cli.main(list(argv))
        return code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")


WORKLOADS = {"sweep": Sweep, "digits": Digits, "families": Families, "cli": Cli}
