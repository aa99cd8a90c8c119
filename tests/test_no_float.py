"""No float enters a computation, and the package needs only the standard
library: a static check of every module in the package.

Each source file is parsed with ``ast``.  A float literal, a call to
``float``, a ``math`` name other than the exact integer functions, an
import of ``decimal`` outside ``exact.py`` (whose decimal rendering runs in
a local exact context), or an absolute import of a module outside the
standard library is a fault.  Relative imports stay inside the package.
"""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "hktwist").glob("*.py"))
EXACT_MATH = {"lcm", "gcd", "floor", "comb", "factorial", "prod"}


def _faults(source: str, filename: str) -> list[str]:
    tree = ast.parse(source, filename)
    math_names = {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name == "math"
    }
    faults = []
    for node in ast.walk(tree):
        where = f"{filename}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            faults.append(f"{where}: float literal {node.value!r}")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            faults.append(f"{where}: call to float")
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in math_names
            and node.attr not in EXACT_MATH
        ):
            faults.append(f"{where}: math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            faults += [f"{where}: from math import {a.name}"
                       for a in node.names if a.name not in EXACT_MATH]
        if filename != "exact.py" and (
            isinstance(node, ast.Import) and any(a.name == "decimal" for a in node.names)
            or isinstance(node, ast.ImportFrom) and node.module == "decimal"
        ):
            faults.append(f"{where}: decimal imported outside exact.py")
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            names = []
        faults += [f"{where}: {name} is not in the standard library"
                   for name in names if name.split(".")[0] not in sys.stdlib_module_names]
    return faults


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_float_in_the_package(path):
    assert _faults(path.read_text(encoding="utf-8"), path.name) == []


@pytest.mark.parametrize("source", [
    "x = 0.5",
    "x = 1e3",
    "y = float('1')",
    "import math\ny = math.sqrt(2)",
    "import math as m\ny = m.log(2)",
    "from math import sqrt",
    "from math import gcd, isqrt",
    "import decimal",
    "from decimal import Decimal",
    "import sympy",
    "import os, numpy.linalg",
    "from mpmath import mpf",
])
def test_each_kind_of_fault_is_caught(source):
    assert len(_faults(source, "series.py")) == 1


def test_exact_names_pass():
    source = "import math\nfrom math import comb, prod\nx = math.lcm(4, 6) + math.floor(1)\n"
    assert _faults(source, "series.py") == []
    assert _faults("import decimal", "exact.py") == []


def test_stdlib_and_relative_imports_pass():
    source = (
        "from __future__ import annotations\nimport json, os.path\n"
        "from fractions import Fraction\nfrom . import notes\nfrom .exact import UniPoly\n"
    )
    assert _faults(source, "series.py") == []
