"""Exact symmetry algebras of homogeneous cubic metrics on 3-space.

The package computes, in exact rational arithmetic, the algebra of affine
isometry generators (Killing fields) of a constant-coefficient cubic metric,
its matrix invariants and Lie structure, classifies the metric into one of
nine symmetry classes, and audits a built-in catalog of the canonical
metrics with nontrivial symmetries.

`import cubicsym` loads only the solver: forms, linalg, killing, liealg and
classify.  The catalog is not needed to solve or classify a form, so
`cubicsym.catalog` (and `from cubicsym import catalog`) imports it on first
access; `cubicsym.properties` and `cubicsym.cli` are imported by name.  The
value classes are plain frozen classes (see _record) rather than
dataclasses: importing dataclasses and building 20 of them took about 33 of
the 42 ms that importing the package and its catalog took (-X importtime,
Python 3.11).
"""

from importlib import import_module

from .forms import CubicForm, Mat3, SingularTransformError, tau0_upper_bound
from .killing import (KillingSystem, SymmetryAlgebra, build_system,
                      killing_operator, solve, verify_killing)
from .liealg import (DependentBasisError, InvariantSeries, NotClosedError,
                     StructureConstants, bracket, invariants, structure_constants)
from .classify import (ClassificationReport, ComparisonVerdict, SymmetryClass,
                       classify, compare, NOT_EQUIVALENT, POSSIBLY_EQUIVALENT)

__all__ = [
    "CubicForm", "Mat3", "SingularTransformError", "tau0_upper_bound",
    "KillingSystem", "SymmetryAlgebra", "build_system", "killing_operator",
    "solve", "verify_killing",
    "DependentBasisError", "InvariantSeries", "NotClosedError",
    "StructureConstants", "bracket", "invariants", "structure_constants",
    "ClassificationReport", "ComparisonVerdict", "SymmetryClass", "classify",
    "compare", "NOT_EQUIVALENT", "POSSIBLY_EQUIVALENT",
    "catalog",
]

__version__ = "0.1.0"


def __getattr__(name):
    # a "from . import catalog" here would call this function again
    if name == "catalog":
        return import_module(".catalog", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
