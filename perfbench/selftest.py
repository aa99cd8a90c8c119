"""Self-tests of the benchmark: oracle, goldens, tracer and a smoke run.

    python3 perfbench/selftest.py           # or: python3 -m pytest perfbench/selftest.py

Run from the root of a source checkout.  Takes about a minute.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

RUN = [sys.executable, str(workloads.BENCH_DIR / "run.py")]


def _program():
    import run

    return run.import_program()


def _bench(*args, cwd=workloads.ROOT):
    proc = subprocess.run([*RUN, *args], capture_output=True, text=True, cwd=cwd, timeout=600)
    return proc, (json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else None)


# -- oracle -----------------------------------------------------------------------


def test_oracle_reproduces_paper_values():
    oracle.self_check()
    assert oracle.preset_poly("K3") == [-24, 3]
    assert oracle.segre_pairings(3, oracle.PRESET_TABLES["K3_3"][1]) == [-10560, -576, -108, 15]


def test_oracle_rejects_quoted_cube_constant():
    assert oracle.check_largest_root(oracle.K3_3_POLY, "5.95368", 6) is None
    assert oracle.check_largest_root(oracle.K3_3_POLY, oracle.QUOTED_C_K3_3, 5) is not None


def test_oracle_rejects_wrong_rationality_claims():
    # (1000003 t - 1)(t^2 - 2): the largest root sqrt(2) is irrational ...
    poly = [2, -2000006, -1, 1000003]
    assert oracle.check_largest_root(poly, "1.41421", 6) is None
    assert oracle.check_largest_root(poly, "1.41421", 6, "99/70") is not None
    # ... and the largest root of (1000003 t - 1) t is the rational 1/1000003.
    assert oracle.check_largest_root([0, -1, 1000003], "9.99997E-7", 6) is not None
    assert oracle.check_largest_root([0, -1, 1000003], "9.99997E-7", 6, "1/1000003") is None


def test_oracle_rejects_answer_for_a_mistyped_pairing():
    hk = _program()
    families = workloads.Families(hk, seed=3)
    doc = families.corpus[5]
    mistyped = json.loads(json.dumps(doc))
    entry = next(e for e in mistyped["pairings"] if e["monomial"] == {"4": 1})
    entry["constant"] = str(Fraction(entry["constant"]) + 9)
    wrong = families.op(mistyped).run()
    assert families.op(mistyped).check(wrong) is None
    assert families.op(doc).check(wrong) is not None
    assert families.op(doc).check(families.op(doc).run()) is None


def test_oracle_rejects_incomplete_documents():
    doc = workloads.Families.corpus[3]
    for kind in workloads.INVALID_KINDS:
        bad = workloads.corrupt(random.Random(kind), doc, kind)
        try:
            oracle.validate_doc(bad)
        except oracle.OracleReject:
            continue
        raise AssertionError(f"oracle accepted a document with defect {kind}")


# -- goldens ------------------------------------------------------------------------


def _golden_json(*argv):
    return json.loads(workloads.golden_path(list(argv)).read_bytes())


def test_goldens_carry_the_paper_values():
    doc = _golden_json("threshold", "--family", "K3_2", "--json", "--digits", "60")
    assert oracle.check_largest_root(oracle.preset_poly("K3_2"), doc["constant"]["decimal"], 60) is None
    doc = _golden_json("square", "z-pairing", "--alpha-sq", "0", "--json", "--digits", "60")
    assert oracle.check_largest_root(oracle.Z_POLY, doc["largest_root"]["decimal"], 60) is None
    doc = _golden_json("gamma-p", "--family", "K3", "--q", "32", "--json")
    assert doc["rational"] == "1/2"
    doc = _golden_json("derive-k3-3", "--json")
    assert (doc["constants"]["c2^2"], doc["constants"]["c4"]) == tuple(
        str(x) for x in oracle.DERIVED_WEIGHT4)
    assert (doc["weight6"]["c2^3"], doc["weight6"]["c2*c4"]) == tuple(
        str(x) for x in oracle.DERIVED_WEIGHT6)


def test_goldens_cover_every_command():
    for argv in workloads.CLI_COMMANDS:
        assert workloads.golden_path(argv).is_file(), argv


# -- tracer ---------------------------------------------------------------------------


def test_tracer_rebinds_imported_names_and_restores_them():
    hk = _program()
    original = hk.algebraic.isolate_real_roots
    tracer = Tracer()
    tracer.install()
    try:
        assert hk.threshold.isolate_real_roots is hk.algebraic.isolate_real_roots
        assert hk.threshold.isolate_real_roots is not original
        assert hk.cli.preset is hk.family.preset
        hk.threshold.constant_C(hk.cli.preset("K3_2"))
    finally:
        tracer.uninstall()
    assert hk.threshold.isolate_real_roots is original
    calls = dict(zip((f"{m}.{n}" for m, n, _ in tracer.fns), tracer.calls))
    assert calls["family.preset"] == 1 and calls["threshold.constant_C"] == 1
    assert calls["algebraic.isolate_real_roots"] == 1


def test_traced_outputs_are_byte_identical():
    hk = _program()
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(hk, 11, in_process=True) if name == "cli" else cls(hk, 11)
        ops = workload.cycle()[:8]
        plain = [op.run() for op in ops]
        tracer = Tracer()
        tracer.install()
        try:
            traced = [op.run() for op in ops]
        finally:
            tracer.uninstall()
        assert plain == traced, name
        assert all(op.check(v) is None for op, v in zip(ops, plain)), name


def test_traced_counts_repeat_exactly():
    runs = [_bench("--workload", "sweep", "--seed", "5", "--seconds", "1", "--trace", "1")[1]
            for _ in range(2)]
    counts = [{k: v["value"] for k, v in r["metrics"].items()
               if not k.endswith("self_s") and not k.startswith("trace.")} for r in runs]
    assert counts[0] == counts[1]


# -- smoke runs -------------------------------------------------------------------------


def test_smoke_every_workload():
    for name in workloads.WORKLOADS:
        proc, result = _bench("--workload", name, "--seed", "2", "--seconds", "0.1", "--trace", "0")
        assert proc.returncode == 0, proc.stderr
        assert result["correct"] and result["failed"] == 0, proc.stdout
        assert set(result["metrics"]) == {"setup_s", "ops_per_s", "op_ms_p50", "op_ms_tail",
                                          "peak_rss_mb"}


def test_refuses_a_directory_without_the_program():
    empty = workloads.BENCH_DIR / "out" / "empty-checkout"
    shutil.rmtree(empty, ignore_errors=True)
    shutil.copytree(workloads.BENCH_DIR, empty / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(workloads.ROOT / "BENCHMARK.json", empty)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=empty, timeout=180)
    finally:
        shutil.rmtree(empty)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def main() -> int:
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except Exception as exc:  # report every test, then fail overall
                failed += 1
                print(f"FAIL {name}: {type(exc).__name__}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
