"""Value semantics of the frozen records.

The records are plain frozen classes rather than dataclasses; they keep what
a frozen dataclass gave them.  The repr strings are pinned to the output of
the dataclass-based classes they replaced.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from cubicsym import CubicForm, Mat3, catalog, classify, compare, solve
from cubicsym._record import record
from cubicsym.classify import ComparisonVerdict, SymmetryClass
from cubicsym.forms import COMPONENT_NAMES
from cubicsym.killing import SymmetryAlgebra


@record
class Pair:
    a: int
    b: object = None


@record
class TwinPair:
    a: int
    b: object = None


@record
class Shown:
    a: int

    def __repr__(self):
        return f"<{self.a}>"


@record
class Parsed:
    a: int

    def __init__(self, text):
        object.__setattr__(self, "a", int(text))


@record
class Cached:
    a: int
    __slots__ = ("cache",)


@record
class Compared:
    a: int

    def __eq__(self, other):
        return other.__class__ is Compared and abs(self.a) == abs(other.a)


def test_record_init_and_defaults():
    assert Pair(3).a == 3 and Pair(3).b is None
    assert Pair(1, 2) == Pair(b=2, a=1) == Pair(1, b=2)
    with pytest.raises(TypeError, match="missing argument 'a'"):
        Pair()
    with pytest.raises(TypeError, match="at most 2 positional"):
        Pair(1, 2, 3)
    with pytest.raises(TypeError, match="'c'"):
        Pair(1, c=3)
    with pytest.raises(TypeError, match="'a'"):
        Pair(1, a=2)


def test_record_equality_hash_and_repr():
    assert Pair(1, (2,)) == Pair(1, (2,))
    assert Pair(1) != Pair(2)
    assert Pair(1) != TwinPair(1) and TwinPair(1) != Pair(1)
    assert Pair(1) != (1, None)
    assert hash(Pair(1, "x")) == hash((1, "x"))
    assert repr(Pair(1, "x")) == "Pair(a=1, b='x')"
    assert not hasattr(Pair(1), "__dict__")
    with pytest.raises(AttributeError):
        Pair(1).a = 2
    with pytest.raises(AttributeError):
        Pair(1).c = 2
    with pytest.raises(AttributeError):
        del Pair(1).a


class LazyAnnotations(type):
    """Keeps the annotations out of the class dict, as Python 3.14 does."""

    def __new__(mcls, name, bases, namespace):
        fields = namespace.pop("__annotations__", {})
        cls = super().__new__(mcls, name, bases, namespace)
        cls.lazy_fields = fields
        return cls

    @property
    def __annotations__(cls):
        return cls.lazy_fields


def test_record_reads_annotations_built_on_access():
    @record
    class Lazy(metaclass=LazyAnnotations):
        a: int
        b: int = 2

    assert Lazy(1) == Lazy(a=1, b=2) and Lazy(1).b == 2


def test_record_keeps_the_methods_the_class_defines():
    assert repr(Shown(1)) == "<1>" and Shown(1) == Shown(a=1) != Shown(2)
    assert Parsed("7").a == 7 and Parsed("7") == Parsed("7")
    assert hash(Parsed("7")) == hash((7,))
    assert repr(Parsed("7")) == "Parsed(a=7)"
    assert pickle.loads(pickle.dumps(Parsed("7"))) == Parsed("7")
    # defining __eq__ alone leaves __hash__ = None in the class body, which a
    # record replaces, as a frozen dataclass does
    assert Compared(1) == Compared(-1) and hash(Compared(1)) == hash((1,))
    for value in (Shown(1), Parsed("7"), Compared(1)):
        assert not hasattr(value, "__dict__")
        with pytest.raises(AttributeError):
            value.a = 2
        with pytest.raises(AttributeError):
            del value.a


def test_record_keeps_the_slots_the_class_declares():
    value = Cached(1)
    object.__setattr__(value, "cache", "report")
    assert value.cache == "report" and not hasattr(Cached(1), "cache")
    with pytest.raises(AttributeError):
        value.cache = "other"
    with pytest.raises(TypeError, match="'cache'"):
        Cached(1, cache="report")
    assert value == Cached(1) and hash(value) == hash((1,)) == hash(Cached(1))
    assert repr(value) == "Cached(a=1)"
    for duplicate in (copy.copy(value), copy.deepcopy(value),
                      pickle.loads(pickle.dumps(value))):
        assert duplicate == value and not hasattr(duplicate, "cache")


def test_record_without_fields_is_refused():
    with pytest.raises(TypeError, match="annotates no fields"):
        @record
        class Empty:
            pass


def test_cubic_form():
    g = CubicForm(A1=1, F=Fraction(-1, 2))
    assert g == CubicForm(1, F="-1/2") == CubicForm(A1=Fraction(1), F=Fraction(-1, 2))
    assert g != CubicForm(A1=1) and g != Mat3.identity() and g != g.to_json()
    assert hash(g) == hash(CubicForm(A1=1, F=Fraction(-1, 2)))
    assert isinstance(CubicForm(2).A1, Fraction) and CubicForm().F == 0
    assert repr(g) == "CubicForm(A1=1, F=-1/2)"
    assert repr(CubicForm()) == "CubicForm(0)"
    assert hash(g) == hash(tuple(getattr(g, name) for name in COMPONENT_NAMES))
    assert not hasattr(g, "__dict__")
    with pytest.raises(AttributeError):
        g.A1 = Fraction(2)
    with pytest.raises(AttributeError):
        del g.F
    # a stored report is not a component: equality and hash ignore it
    h = CubicForm(A1=1, F=Fraction(-1, 2))
    classify(g)
    assert g == h and hash(g) == hash(h)


def test_mat3():
    m = Mat3.diag(1, Fraction(1, 2), -3)
    assert m == Mat3([[1, 0, 0], [0, "1/2", 0], [0, 0, -3]]) and m != Mat3.identity()
    assert m != CubicForm(A1=1) and CubicForm(A1=1) != m and m != m.rows
    assert hash(m) == hash(Mat3(m.rows)) != hash(Mat3.identity())
    assert repr(m) == "Mat3([[1, 0, 0], [0, 1/2, 0], [0, 0, -3]])"
    assert not hasattr(m, "__dict__")
    with pytest.raises(AttributeError):
        m.rows = Mat3.identity().rows
    with pytest.raises(AttributeError):
        del m.rows
    assert m.rows[1][1] == Fraction(1, 2)
    assert pickle.loads(pickle.dumps(m)) == m
    assert copy.copy(m) == m and copy.deepcopy(m) == m


def test_symmetry_algebra():
    algebra = solve(CubicForm(B1=1))
    assert algebra == solve(CubicForm(B1=1))
    assert algebra != solve(CubicForm(F=1))
    assert hash(algebra) == hash(solve(CubicForm(B1=1)))
    assert repr(algebra) == (
        "SymmetryAlgebra(generators=(Mat3([[-2, 0, 0], [0, 1, 0], [0, 0, 0]]), "
        "Mat3([[0, 0, 0], [0, 0, 0], [1, 0, 0]]), Mat3([[0, 0, 0], [0, 0, 0], [0, 1, 0]]), "
        "Mat3([[0, 0, 0], [0, 0, 0], [0, 0, 1]])), radical_basis=((Fraction(0, 1), "
        "Fraction(0, 1), Fraction(1, 1)),))")
    with pytest.raises(AttributeError):
        algebra.finite_nontrivial_dim = 0


def test_classification_report():
    report = classify(CubicForm(A1=1, F=1))
    other = classify(CubicForm(A1=1, F=1))
    assert report is not other and report == other and hash(report) == hash(other)
    assert report != classify(CubicForm(F=1))
    assert report != report.symmetry_class
    assert report.symmetry_class == SymmetryClass("5")
    assert report.symmetry_class != SymmetryClass("6")
    assert report.symmetry_class.complex_equivalent_to == "6"
    assert repr(report) == (
        "ClassificationReport(symmetry_class=SymmetryClass(label='5'), "
        "algebra=SymmetryAlgebra(generators=(Mat3([[0, 0, 0], "
        "[0, -1, 0], [0, 0, 1]]),), radical_basis=()), "
        "invariant_series=InvariantSeries(I=(Fraction(0, 1), "
        "Fraction(2, 1), Fraction(0, 1), Fraction(2, 1), Fraction(0, 1), Fraction(2, 1)), "
        "delta=Fraction(0, 1)), structure=None, notes=())")
    with pytest.raises(AttributeError):
        report.notes = ("changed",)


def test_comparison_verdict():
    verdict = compare(CubicForm(A1=1, F=1), CubicForm(A1=1, F=-1))
    assert verdict == ComparisonVerdict(
        "POSSIBLY_EQUIVALENT", notes=("invariant series proportional with real constant",))
    assert verdict != ComparisonVerdict("POSSIBLY_EQUIVALENT")
    assert verdict != SymmetryClass("POSSIBLY_EQUIVALENT")
    assert hash(verdict) == hash(("POSSIBLY_EQUIVALENT", None, verdict.notes))
    assert repr(verdict) == (
        "ComparisonVerdict(verdict='POSSIBLY_EQUIVALENT', witness=None, "
        "notes=('invariant series proportional with real constant',))")
    assert repr(compare(CubicForm(F=1), CubicForm(A1=1, F=1))) == (
        "ComparisonVerdict(verdict='NOT_EQUIVALENT', witness='symmetry class 1 vs 5', notes=())")
    with pytest.raises(AttributeError):
        verdict.verdict = "NOT_EQUIVALENT"


def test_catalog_branch():
    branch = catalog.get_entry("2.5").branches()[1]
    assert branch == catalog.get_entry("2.5").branches()[1]
    assert branch != catalog.get_entry("2.5").branches()[0]
    assert branch != branch.expected
    assert repr(branch) == (
        "Branch(label='eps=-1', params={'eps': Fraction(-1, 1)}, claim='1', "
        "expected=SymmetryClass(label='1'), tau=2, boundary=False)")
    # params is a dict, so a branch is unhashable, as the dataclass was
    with pytest.raises(TypeError, match="dict"):
        hash(branch)
    assert hash(branch.expected) == hash(("1",))
    assert branch.expected.shape == (2, False)
    with pytest.raises(AttributeError):
        branch.tau = 3


def test_pickle_and_copy():
    g = CubicForm(A1=1, F=Fraction(-1, 2))
    # the algebra and the report hold Mat3 generators, which pickle too
    values = [Pair(1, (2,)), g, Mat3.diag(1, Fraction(1, 2), -3), solve(g), classify(g),
              compare(g, g), catalog.get_entry("2.5").branches()[1]]
    for value in values:
        assert pickle.loads(pickle.dumps(value)) == value
        assert copy.copy(value) == value and copy.deepcopy(value) == value


def test_catalog_entry_defaults_the_invariant_matrix():
    """A series entry with no recorded invariant matrix leaves inv_matrix
    None, and the audit's invariant-matrix check of it is its field-0 check."""
    entry = next(e for e in catalog.ENTRIES if e.series is not None)
    assert entry.inv_matrix is None
    for branch in entry.branches():
        checks = catalog.verify_branch(entry, branch).generator_checks
        field0 = next(c for c in checks if c.source == "field" and c.index == 0)
        (inv,) = [c for c in checks if c.source == "invariant-matrix"]
        assert (inv.passes, inv.in_kernel) == (field0.passes, field0.in_kernel)
