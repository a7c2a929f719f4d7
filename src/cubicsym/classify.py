"""Symmetry classification of cubic metrics.

Nine classes, determined entirely by the computed symmetry algebra (there
is no class 7, see below):

    1     2-dimensional abelian
    2     2-dimensional nonabelian
    3(1)  infinite family, radical dimension 2 (or the zero form)
    3(2)  infinite family, radical dimension 1, no extra finite generator
    3(3)  infinite family, radical dimension 1, one extra finite generator
    4     1-dimensional with nonzero divergence (I1 != 0)
    5     1-dimensional, I1 = 0, I2 > 0
    6     1-dimensional, I1 = 0, I2 < 0
    8     no nontrivial symmetries

Every real cubic form has one of these classes: with a trivial radical, no
form has a 1-dimensional algebra with I1 = I2 = 0, nor a finite algebra of
dimension 3 or more.  So class 7, a catch-all for those algebras, is empty;
tests/test_class7.py holds the proof and its exact certificates.  classify
raises RuntimeError should a computed algebra ever contradict it.

Classes 5 and 6 are real forms of the same complex class: the proportionality
constant linking their invariant series is imaginary, so each class reads
its complex_equivalent_to twin from COMPLEX_TWINS.  Within each class 4, 5
and 6 the series are proportional with a real constant (the proof is in
tests/test_series_classes.py), so compare's witnesses are the class label
and the radical dimension.  Every class fixes the finite dimension and the
infinite family of its algebra, its shape (CLASS_SHAPES).  A SymmetryClass
stores only its label and derives both.
"""

from ._record import record
from .killing import solve
from .liealg import invariants, structure_constants


# class label -> (finite_nontrivial_dim, has_infinite_family)
CLASS_SHAPES = {
    "1": (2, False), "2": (2, False),
    "3(1)": (0, True), "3(2)": (0, True), "3(3)": (1, True),
    "4": (1, False), "5": (1, False), "6": (1, False),
    "8": (0, False),
}

COMPLEX_TWINS = {"5": "6", "6": "5"}


@record
class SymmetryClass:
    label: str

    @property
    def complex_equivalent_to(self):
        return COMPLEX_TWINS.get(self.label)

    @property
    def shape(self):
        """(finite_nontrivial_dim, has_infinite_family)."""
        return CLASS_SHAPES[self.label]


@record
class ClassificationReport:
    symmetry_class: SymmetryClass
    algebra: object
    invariant_series: object = None
    structure: object = None
    notes: tuple = ()

    @property
    def label(self):
        return self.symmetry_class.label

    def to_json(self):
        return {
            "class": self.symmetry_class.label,
            "complex_equivalent_to": self.symmetry_class.complex_equivalent_to,
            "algebra": self.algebra.to_json(),
            "invariants": None if self.invariant_series is None
            else self.invariant_series.to_json(),
            "structure_constants": None if self.structure is None
            else self.structure.to_json(),
            "notes": list(self.notes),
        }


def classify(form):
    """Classify a cubic metric by its computed symmetry algebra.

    A form keeps its report: the first call stores it in the form's one
    non-field slot and later calls with that instance return the same report,
    so classify(h) followed by compare(g, h) solves h once.  Nothing is
    shared between distinct forms, even equal ones, and a copy or a pickle
    of a form starts without a report.
    """
    report = getattr(form, "_classification", None)
    if report is None:
        report = _classify(form)
        # CubicForm is frozen; the report is derived from its components alone
        object.__setattr__(form, "_classification", report)
    return report


def _classify(form):
    algebra = solve(form)
    r = len(algebra.radical_basis)
    dim = algebra.finite_nontrivial_dim

    if r > 0:
        notes = []
        if r >= 3:
            label = "3(1)"
            notes.append("degenerate input: the zero form carries the full radical")
        elif r == 2:
            label = "3(1)"
        elif dim >= 1:
            label = "3(3)"
        else:
            label = "3(2)"
        return ClassificationReport(SymmetryClass(label), algebra, notes=tuple(notes))

    if dim == 0:
        return ClassificationReport(SymmetryClass("8"), algebra)

    if dim == 1:
        series = invariants(algebra.generators[0])
        if series.I[0] != 0 or series.I[1] != 0:
            label = "4" if series.I[0] != 0 else "5" if series.I[1] > 0 else "6"
            return ClassificationReport(SymmetryClass(label), algebra,
                                        invariant_series=series)
    elif dim == 2:
        structure = structure_constants(list(algebra.generators))
        label = "1" if structure.is_zero() else "2"
        return ClassificationReport(SymmetryClass(label), algebra, structure=structure)

    # only on this path, so that importing the package does not load json
    import json
    raise RuntimeError(
        "no real cubic form has this symmetry algebra (class 7 is empty, see "
        f"tests/test_class7.py): finite dimension {dim}, trivial radical; "
        f"form {json.dumps(form.to_json())}")


NOT_EQUIVALENT = "NOT_EQUIVALENT"
POSSIBLY_EQUIVALENT = "POSSIBLY_EQUIVALENT"


@record
class ComparisonVerdict:
    verdict: str
    witness: str | None = None
    notes: tuple = ()

    def to_json(self):
        return {"verdict": self.verdict, "witness": self.witness,
                "notes": list(self.notes)}


def compare(form1, form2):
    """Necessary conditions for affine equivalence; never claims equivalence.

    Returns NOT_EQUIVALENT with a witness (class label or radical
    dimension) or POSSIBLY_EQUIVALENT when every implemented invariant
    agrees.  Abelian and nonabelian algebras need no check of their own:
    they carry different class labels, 1 and 2.  Nor do the finite
    dimension, which every class fixes, and the invariant series, which
    are real-proportional within each class 4, 5 and 6.
    """
    rep1, rep2 = classify(form1), classify(form2)
    notes = []
    if rep1.label != rep2.label:
        if COMPLEX_TWINS.get(rep1.label) == rep2.label:
            notes.append("classes 5 and 6 are complex-equivalent: the "
                         "proportionality constant is imaginary")
        return ComparisonVerdict(
            NOT_EQUIVALENT,
            witness=f"symmetry class {rep1.label} vs {rep2.label}",
            notes=tuple(notes))
    a1, a2 = rep1.algebra, rep2.algebra
    if len(a1.radical_basis) != len(a2.radical_basis):
        return ComparisonVerdict(
            NOT_EQUIVALENT,
            witness=f"radical dimension {len(a1.radical_basis)} vs {len(a2.radical_basis)}")
    if rep1.invariant_series is not None:
        # one class 4, 5 or 6 fixes the spectrum up to a real factor
        notes.append("invariant series proportional with real constant")
    return ComparisonVerdict(POSSIBLY_EQUIVALENT, notes=tuple(notes))
