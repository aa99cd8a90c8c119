"""The benchmark's tracer wraps hktwist functions by name.

``perfbench/tracer.py`` looks each traced name up in the ``__dict__`` of its
module (or class) and replaces it with a counting wrapper that calls the
original; it can wrap a function (``functools.cache`` wrappers included)
or a classmethod, nothing else.  This test reads the tracer's list, so
deleting or converting a traced name (say into a ``cached_property``)
fails here, not only in a traced benchmark run.
"""

import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


_TRACED = [(module, name) for module, name, _ in tracer.functions()]


@pytest.mark.parametrize("module, name", _TRACED, ids=[f"{m}.{n}" for m, n in _TRACED])
def test_traced_name_is_a_function_or_classmethod(module, name):
    owner = importlib.import_module(f"hktwist.{module}")
    *classes, attr = name.split(".")
    for cls in classes:
        owner = owner.__dict__[cls]
    raw = owner.__dict__.get(attr)
    fn = raw.__func__ if isinstance(raw, classmethod) else raw
    assert callable(fn) and isinstance(inspect.unwrap(fn), types.FunctionType), (
        f"hktwist.{module}.{name} is {raw!r}"
    )


def test_every_traced_module_is_loaded_by_the_package_imports():
    """``Tracer.install`` reads ``sys.modules["hktwist.<module>"]`` directly,
    so importing the package, its CLI and the two modules that the CLI loads
    inside its handlers must load every module of ``LAYERS``; a module that
    only some handler imports later would break the traced benchmark run."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code = (
        "import sys, hktwist, hktwist.cli, hktwist.hilbert_square, hktwist.riemann_roch\n"
        "print(' '.join(sorted(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split())
    missing = [m for m in tracer.LAYERS if f"hktwist.{m}" not in loaded]
    assert not missing, f"not loaded by the package imports: {missing}"
