"""The computational path stays exact: no float enters src/cubicsym, in its
source or in what it computes."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

from cubicsym import CubicForm, Mat3, bracket, catalog, classify, invariants, \
    killing_operator
from cubicsym.liealg import StructureConstants
from cubicsym.properties import random_form, random_invertible, random_matrix

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


def inexact(value, path="value"):
    """Paths of the numbers under value, through records, Mat3 and CubicForm,
    that are neither an int nor a Fraction.  The AST scan above cannot see
    int / int, which makes a float at run time."""
    if value is None or isinstance(value, (str, int, Fraction)):
        return []
    if isinstance(value, (tuple, list)):
        return [p for i, v in enumerate(value) for p in inexact(v, f"{path}[{i}]")]
    if isinstance(value, CubicForm):
        return inexact(value.components(), path + ".components()")
    names = getattr(type(value), "__slots__", ())
    if not names:
        return [f"{path}: {type(value).__name__}"]
    return [p for name in names for p in inexact(getattr(value, name), f"{path}.{name}")]


def test_inexact_finds_floats():
    assert inexact(StructureConstants(c=(((Fraction(1), 0.5),),))) == ["value.c[0][0][1]: float"]
    assert inexact(CubicForm(F=1)) == []
    assert inexact(Mat3.identity()) == []


def test_classification_reports_are_exact():
    forms = [e.build(b.params) for e in catalog.ENTRIES for b in e.branches()]
    samples = [e.build(s.params) for e in catalog.PROJECTIVE_ENTRIES for s in e.samples]
    assert (len(forms), len(samples)) == (77, 22)
    for form in forms + samples:
        report = classify(form)
        series = report.invariant_series
        assert inexact(report) == [], form
        assert inexact(None if series is None else series.charpoly) == [], form


def test_killing_operator_bracket_and_invariants_are_exact():
    rng = random.Random(137)
    for _ in range(60):
        g = random_form(rng).pullback(random_invertible(rng))
        A = Mat3([[Fraction(rng.randint(-3, 3), rng.randint(1, 7)) for _ in range(3)]
                  for _ in range(3)])
        B = random_matrix(rng)
        series = invariants(A)
        assert inexact([killing_operator(g, A), killing_operator(g, B), bracket(A, B),
                        bracket(B, B), series, series.charpoly, invariants(B)]) == []
