"""Symmetry classification tree and the necessary-condition comparison."""

import copy
import importlib
import pickle
import random
from fractions import Fraction

from cubicsym import NOT_EQUIVALENT, POSSIBLY_EQUIVALENT, CubicForm, classify, compare
from cubicsym.classify import CLASS_SHAPES, COMPLEX_TWINS
from cubicsym.forms import COMPONENT_NAMES
from cubicsym.properties import random_form, random_invertible

# the package attribute cubicsym.classify is the function, not the module
classify_module = importlib.import_module("cubicsym.classify")


def test_classify_examples():
    assert classify(CubicForm(F=1)).label == "1"
    assert classify(CubicForm(A1=1, B3=1)).label == "4"
    assert classify(CubicForm(A1=1)).label == "3(1)"
    assert classify(CubicForm(A1=1, B1=1, B2=-1)).label == "5"   # mixed signs
    assert classify(CubicForm(A1=1, B1=1, B2=1)).label == "6"    # same signs
    assert classify(CubicForm(A1=1, A2=1, A3=1)).label == "8"


def test_classify_complex_equivalence_flags():
    five = classify(CubicForm(A1=1, B1=1, B2=-1))
    six = classify(CubicForm(A1=1, B1=1, B2=1))
    assert five.symmetry_class.complex_equivalent_to == "6"
    assert six.symmetry_class.complex_equivalent_to == "5"


def test_classify_zero_form_is_degenerate():
    report = classify(CubicForm())
    assert report.label == "3(1)"
    assert any("degenerate" in note for note in report.notes)


def test_classify_infinite_subclasses():
    assert classify(CubicForm(B1=1)).label == "3(3)"        # radical 1, finite 1
    assert classify(CubicForm(A1=1, A2=1)).label == "3(2)"  # radical 1, finite 0
    assert classify(CubicForm(A1=1)).label == "3(1)"        # radical 2


def test_classify_evidence_fields():
    dim1 = classify(CubicForm(A1=1, F=1))
    assert dim1.invariant_series is not None and dim1.structure is None
    dim2 = classify(CubicForm(F=1))
    assert dim2.structure is not None and dim2.invariant_series is None
    dim0 = classify(CubicForm(A1=1, A2=1, A3=1))
    assert dim0.invariant_series is None and dim0.structure is None


def test_class_shapes_match_computed_algebras():
    # every class fixes the algebra's shape and twin, so compare needs no
    # finite-dimension witness.  _classify's branches fix the shape of all
    # but 3(1) and 3(3).  A 3(1) form is the cube of a linear form (kernel
    # 6) or the zero form (kernel 9): finite dimension 0.  With a radical of
    # dimension 1 the finite part is the gl2 stabilizer of a binary cubic
    # that is not a cube, of dimension 0 or 1; y^2 z (kernel 4) has the 1
    exact = {CubicForm(): 9, CubicForm(A1=1): 6, CubicForm(C3=1): 4}
    for g, kernel in exact.items():
        assert classify(g).algebra.kernel_dim == kernel, g.to_json()
    rng = random.Random(2024)
    forms = list(exact)
    for _ in range(150):
        g = random_form(rng)
        forms += [g, g.pullback(random_invertible(rng)),
                  CubicForm(**{n: rng.choice((-1, 0, 1)) for n in COMPONENT_NAMES})]
    seen = set()
    for g in forms:
        report = classify(g)
        seen.add(report.label)
        algebra = report.algebra
        assert (algebra.finite_nontrivial_dim, algebra.has_infinite_family) == \
            CLASS_SHAPES[report.label], g.to_json()
        assert report.symmetry_class.complex_equivalent_to == \
            COMPLEX_TWINS.get(report.label), g.to_json()
    assert seen == set(CLASS_SHAPES)


def test_classify_is_affine_invariant():
    rng = random.Random(89)
    for _ in range(40):
        g = random_form(rng)
        T = random_invertible(rng)
        assert classify(g).label == classify(g.pullback(T)).label


def test_compare_different_classes():
    verdict = compare(CubicForm(F=1), CubicForm(A1=1, B3=1))
    assert verdict.verdict == NOT_EQUIVALENT
    assert "class" in verdict.witness


def test_compare_pullback_is_possibly_equivalent():
    rng = random.Random(97)
    for _ in range(25):
        g = random_form(rng)
        T = random_invertible(rng)
        assert compare(g, g.pullback(T)).verdict == POSSIBLY_EQUIVALENT


def test_compare_class_five_vs_six():
    five = CubicForm(A1=1, B1=1, B2=-1)
    six = CubicForm(A1=1, B1=1, B2=1)
    verdict = compare(five, six)
    assert verdict.verdict == NOT_EQUIVALENT
    assert any("complex" in n for n in verdict.notes)


def test_compare_same_class_different_scale_is_possible():
    # two boosts of different strength: classes agree, colinearity is real
    a = CubicForm(A1=1, F=1)
    b = a.pullback(random_invertible(random.Random(3)))
    verdict = compare(a, b)
    assert verdict.verdict == POSSIBLY_EQUIVALENT


def test_compare_is_symmetric_and_reflexive():
    rng = random.Random(101)
    for _ in range(20):
        g1, g2 = random_form(rng), random_form(rng)
        v12 = compare(g1, g2).verdict
        v21 = compare(g2, g1).verdict
        assert v12 == v21
        assert compare(g1, g1).verdict == POSSIBLY_EQUIVALENT


def test_compare_rescaled_metric_stays_possible():
    # componentwise rescaling preserves every implemented invariant
    a = CubicForm(A1=1, B3=1)
    scaled = CubicForm(A1=8, B3=Fraction(1, 2))
    assert compare(a, scaled).verdict == POSSIBLY_EQUIVALENT


def _count_solves(monkeypatch):
    calls = []
    solve = classify_module.solve

    def counted(form):
        calls.append(form)
        return solve(form)

    monkeypatch.setattr(classify_module, "solve", counted)
    return calls


def test_a_form_keeps_its_report():
    g = CubicForm(A1=1, B1=1, B2=-1)
    assert classify(g) is classify(g)
    assert g == CubicForm(A1=1, B1=1, B2=-1)
    assert repr(g) == repr(CubicForm(A1=1, B1=1, B2=-1))


def test_compare_after_classify_solves_each_form_once(monkeypatch):
    calls = _count_solves(monkeypatch)
    g = CubicForm(A1=1, F=1)
    h = g.pullback(random_invertible(random.Random(7)))
    report = classify(h)
    assert compare(g, h).verdict == POSSIBLY_EQUIVALENT
    assert calls == [h, g] and calls[0] is h and calls[1] is g
    assert classify(h) is report


def test_copies_of_a_classified_form_carry_no_report(monkeypatch):
    g = CubicForm(A1=1, B1=1, B2=-1)
    report = classify(g)
    calls = _count_solves(monkeypatch)
    for duplicate in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert duplicate == g
        calls.clear()
        own = classify(duplicate)
        assert own == report and own is not report
        assert len(calls) == 1 and calls[0] is duplicate
    calls.clear()
    assert classify(g) is report and calls == []


def test_equal_forms_do_not_share_reports(monkeypatch):
    calls = _count_solves(monkeypatch)
    a, b = CubicForm(A1=1, B3=1), CubicForm(A1=1, B3=1)
    assert a == b and a is not b
    ra, rb = classify(a), classify(b)
    assert ra is not rb and ra == rb
    assert len(calls) == 2 and calls[0] is a and calls[1] is b


def test_compare_zero_form_with_a_cube_differs_in_radical():
    # both are class 3(1): the zero form has the full radical, A1=1 a plane
    verdict = compare(CubicForm(), CubicForm(A1=1))
    assert verdict.verdict == NOT_EQUIVALENT
    assert verdict.witness == "radical dimension 3 vs 2"
