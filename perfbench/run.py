"""hktwist benchmark: one command, four seeded workloads, oracle-checked.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``).  With ``--trace 0`` it measures the end-to-end metrics, with
timings scaled to a nominal machine speed (``speed.py``); with ``--trace 1``
it runs the seed's first cycle of operations untraced and traced, and
reports per-layer metrics.  Human-readable lines come first; the last line
of standard output is one JSON object.  With ``--trace 0`` the line before
it is a JSON object with the raw (unscaled) metrics and the speed factor.
See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import oracle
import speed
import workloads
from tracer import DERIVED as tracer_derived, Tracer, metric_specs

SETUP_REPEATS = 11
OUT_DIR = workloads.BENCH_DIR / "out"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def check_program() -> None:
    if not (workloads.SRC / "hktwist" / "__init__.py").is_file():
        raise SystemExit(f"error: no program at {workloads.SRC / 'hktwist'}; "
                         "run from the root of an hktwist checkout")


def import_program():
    """Import hktwist from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, str(workloads.SRC))
    import hktwist
    import hktwist.cli
    import hktwist.hilbert_square
    import hktwist.riemann_roch

    where = Path(hktwist.__file__).resolve()
    if workloads.SRC.resolve() not in where.parents:
        raise SystemExit(f"error: imported hktwist from {where}, not from {workloads.SRC}")
    return hktwist


# -- set-up time -------------------------------------------------------------------


def _child_seconds(code: str) -> float:
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=workloads.cli_env(), cwd=workloads.ROOT, check=True, timeout=120,
    ).stdout
    return float(out.strip().splitlines()[-1])


def _process_seconds(code: str) -> float:
    start = perf_counter()
    subprocess.run([sys.executable, "-c", code], env=workloads.cli_env(),
                   cwd=workloads.ROOT, check=True, capture_output=True, timeout=120)
    return perf_counter() - start


def _scaled_median(measure) -> tuple[float, float]:
    """(median at nominal speed, raw median) over SETUP_REPEATS fresh processes."""
    raw, scaled = [], []
    before = speed.probe()
    for _ in range(SETUP_REPEATS):
        seconds = measure()
        after = speed.probe()
        raw.append(seconds)
        scaled.append(speed.scaled(seconds, (before, after)))
        before = after
    return statistics.median(scaled), statistics.median(raw)


def measure_setup(name: str, cls) -> tuple[tuple[float, float], dict]:
    """Set-up before the first operation, in fresh processes, and its context.

    For the in-process workloads a child times ``import hktwist`` plus the
    presets the workload builds (the K3_3 self-check runs there); for cli
    it is the wall time of a process that only imports hktwist.cli, next to
    a bare interpreter as context.
    """
    context = {}
    if name == "cli":
        def once():
            return _process_seconds("import hktwist.cli")
        context["bare_python_s"] = _scaled_median(lambda: _process_seconds("pass"))
    else:
        imports = "".join(f"import {m}\n" for m in getattr(cls, "extra_imports", ()))
        code = (
            "import time\nt0 = time.perf_counter()\nimport hktwist\n" + imports
            + f"for name in {tuple(cls.presets)!r}:\n    hktwist.preset(name)\n"
            "print(repr(time.perf_counter() - t0))\n"
        )

        def once():
            return _child_seconds(code)
    once()  # fills the bytecode cache, as any earlier run would have
    return _scaled_median(once), context


# -- measurement ---------------------------------------------------------------------


def run_op(op):
    """(value, seconds, error) for one operation; the oracle runs untimed."""
    start = perf_counter()
    try:
        value = op.run()
    except Exception as exc:  # an unexpected exception is a failed operation
        end = perf_counter()
        return None, end - start, f"unexpected {type(exc).__name__}: {exc}"
    end = perf_counter()
    return value, end - start, op.check(value)


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]


class Timings:
    """Per-operation times of one run, raw and scaled to nominal speed."""

    def __init__(self, records, probes):
        # records: (cycle, raw seconds, correct, index of the probe before it)
        self.raw = [raw for _, raw, _, _ in records]
        w = speed.WINDOW
        self.scaled = [speed.scaled(raw, probes[max(0, p + 1 - w): p + 1 + w])
                       for _, raw, _, p in records]
        self.cycles = sorted({c for c, _, _, _ in records})
        self.correct = [ok for _, _, ok, _ in records]
        self.cycle_of = [c for c, _, _, _ in records]
        self.speed_factor = speed.NOMINAL_S / statistics.median(probes)

    def ops_per_s(self, times) -> float:
        """Median over cycles of correct operations per second of operation time."""
        busy = dict.fromkeys(self.cycles, 0.0)
        good = dict.fromkeys(self.cycles, 0)
        for cycle, seconds, ok in zip(self.cycle_of, times, self.correct):
            busy[cycle] += seconds
            good[cycle] += ok
        return statistics.median(good[c] / busy[c] for c in self.cycles)


def timed_run(workload, seconds: float):
    """Whole cycles until ``seconds`` of raw operation time, probing speed as it goes."""
    records, failures = [], []
    probes = [speed.probe()]
    busy = since_probe = 0.0
    cycle = 0
    while busy < seconds:
        for op in workload.cycle():
            value, elapsed, why = run_op(op)
            records.append((cycle, elapsed, why is None, len(probes) - 1))
            if why is not None:
                failures.append((op.label, why))
            busy += elapsed
            since_probe += elapsed
            if since_probe >= speed.PROBE_EVERY_S:
                probes.append(speed.probe())
                since_probe = 0.0
        cycle += 1
    probes.append(speed.probe())
    return Timings(records, probes), failures


def end_to_end(args, cls):
    (setup_s, setup_raw), context = measure_setup(args.workload, cls)
    hk = import_program()
    workload = cls(hk, args.seed)
    timings, failures = timed_run(workload, args.seconds)
    attempted = len(timings.raw)
    tail_p = cls.tail_percentile
    # the cli workload's program runs in its children, the others in-process
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024

    def summary(times, setup):
        ordered = sorted(times)
        return {
            "setup_s": (setup, "s"),
            "ops_per_s": (timings.ops_per_s(times), "1/s"),
            "op_ms_p50": (statistics.median(ordered) * 1000, "ms"),
            "op_ms_tail": (percentile(ordered, tail_p) * 1000, "ms"),
            "peak_rss_mb": (peak_mb, "MB"),
        }

    metrics = summary(timings.scaled, setup_s)
    raw = summary(timings.raw, setup_raw)
    ordered = sorted(timings.scaled)
    beyond = sum(1 for x in ordered if x > percentile(ordered, tail_p))
    for label, why in failures[:20]:
        print(f"FAILED {label}: {why}")
    print(f"workload {args.workload}  seed {args.seed}  python {platform.python_version()}"
          f"  nproc {os.cpu_count()}  ops {attempted}  cycles {len(timings.cycles)}"
          f"  busy {sum(timings.raw):.3f} s  machine speed x{timings.speed_factor:.3f}")
    print(f"  {'metric':<12} {'at nominal speed':>18} {'raw':>14}")
    for name, (value, unit) in metrics.items():
        extra = f"  (p{tail_p}, {beyond} of {attempted} beyond)" if name == "op_ms_tail" else ""
        print(f"  {name:<12} {value:18.6f} {raw[name][0]:14.6f} {unit}{extra}")
    print(f"  {'failed_ratio':<12} {len(failures) / attempted:18.6f}")
    for key, (value, value_raw) in context.items():
        print(f"  context {key} {value:.6f} s (raw {value_raw:.6f} s, not gated)")
    if beyond < 10:
        print(f"WARNING: only {beyond} samples beyond p{tail_p}; the tail is not resolved")
    # The measured figures behind the scaled ones, so each can be checked.
    print(json.dumps({
        "raw": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        "speed_factor": timings.speed_factor,
        "tail_percentile": tail_p,
        "beyond_tail": beyond,
        "failed_ratio": len(failures) / attempted,
        "context": {key: {"value": value, "raw": value_raw, "unit": "s"}
                    for key, (value, value_raw) in context.items()},
    }))
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced(args, cls):
    hk = import_program()
    if args.workload == "cli":
        workload = cls(hk, args.seed, in_process=True)
    else:
        workload = cls(hk, args.seed)
    ops = workload.cycle()

    # Each op runs untraced and traced back to back, alternating which goes
    # first, so warm-up favours neither side of the overhead ratio.
    tracer = Tracer()
    values = {False: [], True: []}
    seconds = {False: 0.0, True: 0.0}
    failures = []
    for index, op in enumerate(ops):
        tracer.op_id = index
        for traced_turn in ((False, True) if index % 2 == 0 else (True, False)):
            if traced_turn:
                tracer.install()
            try:
                value, elapsed, why = run_op(op)
            finally:
                tracer.uninstall()
            seconds[traced_turn] += elapsed
            values[traced_turn].append(value)
            if why is not None:
                failures.append((op.label, why))
    failures += [(op.label, "traced output differs from the untraced output")
                 for op, a, b in zip(ops, values[False], values[True]) if a != b]
    derive_ops = sum(1 for op in ops if op.label.startswith("hktwist derive-k3-3"))
    values = tracer.metrics(len(ops), derive_ops, seconds[False], seconds[True])

    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.dump(trace_file, {"workload": args.workload, "seed": args.seed, "ops": len(ops),
                             "op_labels": [op.label for op in ops]})

    for label, why in failures[:20]:
        print(f"FAILED {label}: {why}")
    print(f"workload {args.workload}  seed {args.seed}  traced ops {len(ops)}  spans "
          f"{len(tracer.spans)}  trace file {trace_file.relative_to(workloads.ROOT)}")
    print(f"  untraced {values['trace.untraced_ops_per_s']:.4f} ops/s, traced "
          f"{values['trace.traced_ops_per_s']:.4f} ops/s, overhead x{values['trace.overhead_ratio']:.4f}")
    print(f"  {'layer':<44} {'calls':>10} {'self_s':>12}")
    for spec in metric_specs():
        name = spec["name"]
        if name.endswith(".calls") and values[name]:
            self_s = values.get(name[: -len(".calls")] + ".self_s")
            shown = "" if self_s is None else f"{self_s:12.6f}"
            print(f"  {name[: -len('.calls')]:<44} {values[name]:>10} {shown:>12}")
        elif name.endswith(".errors"):
            module = name[: -len(".errors")]
            print(f"  {module + ' (module total, errors)':<44} {values[name]:>10} "
                  f"{values[module + '.self_s']:12.6f}")
        elif name in tracer_derived and not name.startswith("trace."):
            print(f"  {name:<44} {values[name]:>10.6g}")
    units = {s["name"]: s["unit"] for s in metric_specs()}
    return {
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    check_program()
    oracle.self_check()
    cls = workloads.WORKLOADS[args.workload]
    result = traced(args, cls) if args.trace else end_to_end(args, cls)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
