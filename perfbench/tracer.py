"""Per-layer tracing from outside the package.

``Tracer.install`` replaces each listed public function of ``hktwist`` with
a wrapper, and rebinds every other ``hktwist`` module global that refers to
the same function object (``threshold.isolate_real_roots``, ``cli.preset``,
the package namespace, ...), so calls are counted where they happen.
``uninstall`` puts the originals back.  Nothing inside the package changes.

Span functions record (function id, start, end, parent span, op id) in an
in-memory list.  Count-only functions on hot paths get a bare counter and no
span, so the tracing cost stays small; their time lands in the enclosing
span's self time.  Errors are spans that ended by raising.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from time import perf_counter

COUNT_ONLY = "count"

# module -> functions, in the order the report prints them.
LAYERS = {
    "algebraic": [
        "isolate_real_roots", "sturm_chain",
        ("count_roots", COUNT_ONLY), ("simplest_between", COUNT_ONLY),
        ("AlgebraicReal.__init__", COUNT_ONLY),
        "AlgebraicReal.decimal", "AlgebraicReal.to_json", "AlgebraicReal.compare",
        "AlgebraicReal.square", "AlgebraicReal.scale", "AlgebraicReal.refine_to",
    ],
    "exact": [
        ("UniPoly.__call__", COUNT_ONLY), "UniPoly.gcd", "UniPoly.__divmod__",
        "decimal_str",
    ],
    "series": ["GradedSeries.inverse", "GradedSeries.sqrt", "GradedSeries.__mul__"],
    "family": ["preset", "HKFamily.from_json", "HKFamily.segre_pairings"],
    "threshold": [
        "build_threshold_poly", "constant_C", "threshold_result", "gamma_p",
        "pseff_cone_member", "is_pseff_sufficient",
    ],
    "riemann_roch": [
        "todd6", "sqrt_todd6", "cube_chern_numbers", "rr_match", "nieper_match",
        "derive_constants", "derivation_trace",
    ],
    "hilbert_square": [
        "square_intersect", "pb_top_intersect", "z_pairing", "kahler_criterion",
        "pushforward_rows", "square_chern_table",
    ],
    "cli": ["main", "load_family", "build_parser"],
}

# Derived per-layer metrics: name -> (unit, better).
DERIVED = {
    "algebraic.snap_candidates_per_root": ("ratio", "lower"),
    "algebraic.rational_root_ratio": ("ratio", "higher"),
    "algebraic.result_endpoint_bits_max": ("bits", "lower"),
    "series.inverse_terms_out": ("count", "lower"),
    "threshold.builds_per_op": ("ratio", "lower"),
    "riemann_roch.todd6_per_derive": ("ratio", "lower"),
    "trace.untraced_ops_per_s": ("1/s", "higher"),
    "trace.traced_ops_per_s": ("1/s", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def functions():
    """(module, qualified name, count_only) for every traced function."""
    for module, names in LAYERS.items():
        for entry in names:
            name, kind = entry if isinstance(entry, tuple) else (entry, None)
            yield module, name, kind == COUNT_ONLY


def metric_specs() -> list[dict]:
    """The per-layer metric declarations, in report order."""
    specs = []
    fns = list(functions())
    for module in LAYERS:
        for _, name, count_only in (f for f in fns if f[0] == module):
            specs.append({"name": f"{module}.{name}.calls", "unit": "count", "better": "lower"})
            if not count_only:
                specs.append({"name": f"{module}.{name}.self_s", "unit": "s", "better": "lower"})
        specs.append({"name": f"{module}.self_s", "unit": "s", "better": "lower"})
        specs.append({"name": f"{module}.errors", "unit": "count", "better": "lower"})
    specs += [{"name": n, "unit": u, "better": b} for n, (u, b) in DERIVED.items()]
    return specs


def _endpoint_bits(lo: Fraction, hi: Fraction) -> int:
    return max(lo.numerator.bit_length(), lo.denominator.bit_length(),
               hi.numerator.bit_length(), hi.denominator.bit_length())


class Tracer:
    """Counters and spans for one traced pass; install, run, uninstall."""

    def __init__(self):
        self.fns = list(functions())
        self.calls = [0] * len(self.fns)
        self.errors = [0] * len(self.fns)
        self.spans: list = []
        self.stack: list[int] = []
        self.op_id = -1
        self.roots_out = 0
        self.rational_roots = 0
        self.snap_candidates = 0
        self.endpoint_bits_max = 0
        self.inverse_terms = 0
        self._undo: list = []

    # -- wrappers --------------------------------------------------------

    def _counter(self, fid, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[fid] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _top_level_counter(self, fid, fn):
        """Count every call, and separately the outermost ones (candidates)."""
        calls, depth = self.calls, [0]

        def wrapper(*args, **kwargs):
            calls[fid] += 1
            if not depth[0]:
                self.snap_candidates += 1
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1

        return wrapper

    def _span(self, fid, fn, observe):
        calls, errors, spans, stack = self.calls, self.errors, self.spans, self.stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            calls[fid] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[fid] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (fid, start, end, parent, self.op_id)
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _observer(self, name):
        if name == "isolate_real_roots":
            def observe(roots):
                self.roots_out += len(roots)
                for r in roots:
                    self.rational_roots += r.lo == r.hi
                    self._bits(r.lo, r.hi)
            return observe
        if name in ("AlgebraicReal.square", "AlgebraicReal.scale", "AlgebraicReal.refine_to"):
            return lambda r: self._bits(r.lo, r.hi)
        if name == "AlgebraicReal.to_json":
            return lambda doc: self._bits(*(Fraction(x) for x in doc["interval"]))
        if name == "GradedSeries.inverse":
            def observe(series):
                self.inverse_terms += len(series.terms)
            return observe
        return None

    def _bits(self, lo, hi):
        bits = _endpoint_bits(lo, hi)
        if bits > self.endpoint_bits_max:
            self.endpoint_bits_max = bits

    # -- install / uninstall -----------------------------------------------

    def install(self):
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "hktwist" or k.startswith("hktwist."))]
        for fid, (module, name, count_only) in enumerate(self.fns):
            owner = sys.modules[f"hktwist.{module}"]
            if "." in name:
                cls_name, attr = name.split(".")
                owner = getattr(owner, cls_name)
            else:
                attr = name
            raw = owner.__dict__[attr]
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            if name == "simplest_between":
                wrapped = self._top_level_counter(fid, fn)
            elif count_only:
                wrapped = self._counter(fid, fn)
            else:
                wrapped = self._span(fid, fn, self._observer(name))
            wrapped.__name__ = fn.__name__
            wrapped.__qualname__ = fn.__qualname__
            wrapped.__doc__ = fn.__doc__
            setattr(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)
            self._undo.append((owner, attr, raw))
            if "." not in name:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn and mod is not owner:
                            setattr(mod, key, wrapped)
                            self._undo.append((mod, key, fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results --------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-function self time: span durations minus their child spans."""
        child = [0.0] * len(self.spans)
        out = [0.0] * len(self.fns)
        for fid, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for index, (fid, start, end, _, _) in enumerate(self.spans):
            out[fid] += (end - start) - child[index]
        return out

    def metrics(self, ops: int, derive_ops: int, untraced_s: float, traced_s: float) -> dict:
        selfs = self.self_times()
        calls = {}
        values: dict[str, float] = {}
        for fid, (module, name, count_only) in enumerate(self.fns):
            calls[f"{module}.{name}"] = self.calls[fid]
            values[f"{module}.{name}.calls"] = self.calls[fid]
            if not count_only:
                values[f"{module}.{name}.self_s"] = selfs[fid]
            values[f"{module}.self_s"] = values.get(f"{module}.self_s", 0.0) + selfs[fid]
            values[f"{module}.errors"] = values.get(f"{module}.errors", 0) + self.errors[fid]
        values["algebraic.snap_candidates_per_root"] = _ratio(self.snap_candidates, self.roots_out)
        values["algebraic.rational_root_ratio"] = _ratio(self.rational_roots, self.roots_out)
        values["algebraic.result_endpoint_bits_max"] = self.endpoint_bits_max
        values["series.inverse_terms_out"] = self.inverse_terms
        values["threshold.builds_per_op"] = _ratio(calls["threshold.build_threshold_poly"], ops)
        values["riemann_roch.todd6_per_derive"] = _ratio(calls["riemann_roch.todd6"], derive_ops)
        values["trace.untraced_ops_per_s"] = ops / untraced_s
        values["trace.traced_ops_per_s"] = ops / traced_s
        values["trace.overhead_ratio"] = traced_s / untraced_s
        return values

    def dump(self, path, header: dict) -> None:
        """Write counters and every span to one JSON file."""
        names = [f"{m}.{n}" for m, n, _ in self.fns]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                **header,
                "functions": names,
                "calls": dict(zip(names, self.calls)),
                "errors": dict(zip(names, self.errors)),
                "span_fields": ["function", "start_s", "end_s", "parent", "op"],
                "spans": [[names[f], round(s, 9), round(e, 9), p, o]
                          for f, s, e, p, o in self.spans],
            }, fh, separators=(",", ":"))


def _ratio(num, den) -> float:
    return num / den if den else 0.0
