"""The computational path stays exact: no float enters src/cubicsym."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "cubicsym").glob("*.py"))

# math names that compute or hold floats; isqrt, gcd, lcm, comb, floor and
# ceil stay exact on ints and Fractions
MATH_FLOAT_NAMES = {
    "acos", "acosh", "asin", "asinh", "atan", "atan2", "atanh", "cbrt", "copysign",
    "cos", "cosh", "degrees", "dist", "e", "erf", "erfc", "exp", "exp2", "expm1",
    "fabs", "fma", "fmod", "frexp", "fsum", "gamma", "hypot", "inf", "isclose",
    "ldexp", "lgamma", "log", "log10", "log1p", "log2", "modf", "nan", "nextafter",
    "pi", "pow", "radians", "remainder", "sin", "sinh", "sqrt", "sumprod", "tan",
    "tanh", "tau", "ulp",
}


def float_uses(source):
    """(line, what) for every float literal, float() call and math float name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"literal {node.value!r}"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append((node.lineno, "float() call"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [(node.lineno, f"from math import {alias.name}")
                      for alias in node.names
                      if alias.name in MATH_FLOAT_NAMES or alias.name == "*"]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr in MATH_FLOAT_NAMES):
            found.append((node.lineno, f"math.{node.attr}"))
    return found


def test_sources_were_found():
    assert {"forms.py", "linalg.py", "killing.py", "classify.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_float_in_source(path):
    assert float_uses(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("snippet", [
    "x = 0.5",
    "x = 1e3",
    "y = float(n)",
    "from math import sqrt",
    "from math import gcd, log",
    "from math import *",
    "import math\nr = math.exp(2)",
    "import math\nr = math.pi",
])
def test_scan_catches(snippet):
    assert float_uses(snippet)


def test_scan_allows_exact_math():
    assert float_uses("from math import gcd, isqrt, lcm\nx = '1.0'\ny = 3 // 2") == []
