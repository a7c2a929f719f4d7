"""Class 7 is empty: every real cubic form has one of the classes 1-6 or 8.

With a trivial radical, classify gives no label to a 1-dimensional algebra
with I1 = I2 = 0, nor to a finite algebra of dimension 3 or more.  No real
cubic form G has either.  The tests below check every exact step of the
proof; the one step that is cited, not computed, is marked as such.

Frames.  The algebra g of G, the kernel of A -> K(G, A), is the Lie algebra
of the stabilizer {T : G.pullback(T) = G}.  So G.pullback(P) has the algebra
P^-1 g P and a radical of the same dimension, and a generator may be
replaced by any conjugate of a nonzero multiple of it.  K is linear in G, so
the forms a matrix A fixes (K(G, A) = 0) are a linear space, computed here
exactly from the ten unit forms.

1. dim g = 1 and I1 = I2 = 0.  The generator A has the characteristic
   polynomial lambda^3 - Delta.
   a. Delta = 0.  A is nilpotent and nonzero, so it is conjugate to N1
      (rank 1) or to N2 (rank 2).
      - N1 fixes exactly the span of A2, A3, B3 and C3: the cubics in y and
        z, whose radical holds e1.
      - N2 fixes exactly the span of z^3 (A3) and Q = y^2 z - 2 x z^2
        (B2 = -2, C3 = 1).  Take a z^3 + b Q with b != 0 and t = a/b.  The
        shear x -> x + t z / 6 pulls it back to b Q, which has the kernel of
        Q: class 2, dim g = 2.  If b = 0 the form is a z^3, a cone (radical
        dimension 2) or the zero form.
   b. Delta != 0.  With c the real cube root of Delta, A/c has the
      characteristic polynomial lambda^3 - 1, whose three roots are
      distinct.  So A/c is conjugate over R to W, the rational companion
      block of 1 and lambda^2 + lambda + 1.  W fixes exactly the multiples
      of (B1, B2, F) = (-2, -2, 1), which is class 1: dim g = 2.
   Every case contradicts dim g = 1 with a trivial radical.

2. dim g >= 3 and the radical is trivial.
   - g holds no nonzero nilpotent element.  By 1a, a conjugate of N1 would
     put a vector in the radical, and one of N2 would make G a cone, the
     zero form, or a form with dim g = 2.
   - (Cited.)  g is algebraic, being the Lie algebra of a stabilizer, so it
     holds the semisimple and the nilpotent part of each of its elements;
     with no nilpotent element, each is semisimple.  Such an algebra is
     reductive with a compact semisimple part (Borel, Linear Algebraic
     Groups), and the only nonzero compact semisimple subalgebras of
     gl3(R) are the conjugates of so(3).  So g is a torus, plus a conjugate
     of so(3) or nothing.
   - The three standard generators of so(3) fix only the zero form, and G
     is not zero, its radical being trivial.
   - So g is a torus: commuting semisimple matrices, diagonal in one
     complex basis.  A torus of dimension 3 is every matrix diagonal in
     that basis, so it contains the identity I.  But K(G, I) = 3 G, which is
     not zero.
   Either way there is a contradiction.

classify therefore ends its branches in one RuntimeError, which names this
theorem and carries the form as JSON; only a patched solve reaches it.
"""

import importlib
import json
import random
from fractions import Fraction

import pytest

from cubicsym import CubicForm, Mat3, SymmetryAlgebra, SymmetryClass, classify, \
    invariants, killing_operator
from cubicsym.forms import COMPONENT_NAMES
from cubicsym.linalg import in_span, nullspace, span_equal
from cubicsym.properties import random_form

# the package attribute cubicsym.classify is the function, not the module
classify_module = importlib.import_module("cubicsym.classify")

N1 = Mat3([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
N2 = Mat3([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
W = Mat3([[1, 0, 0], [0, 0, -1], [0, 1, -1]])
SO3 = (Mat3([[0, 0, 0], [0, 0, -1], [0, 1, 0]]),
       Mat3([[0, 0, 1], [0, 0, 0], [-1, 0, 0]]),
       Mat3([[0, -1, 0], [1, 0, 0], [0, 0, 0]]))
Q = CubicForm(B2=-2, C3=1)


def vector(form):
    return [getattr(form, name) for name in COMPONENT_NAMES]


def fixed_forms(*matrices):
    """Basis, over COMPONENT_NAMES, of the forms G with K(G, A) = 0 for
    every given A: K is linear in G, so its columns are K(unit form, A)."""
    units = [CubicForm(**{name: 1}) for name in COMPONENT_NAMES]
    rows = [list(row) for A in matrices
            for row in zip(*(vector(killing_operator(u, A)) for u in units))]
    return nullspace(rows)


def test_canonical_generators_have_the_branch_invariants():
    # the branch is I1 = I2 = 0; N1, N2 and W are its Delta = 0 and Delta = 1 cases
    for A, delta in ((N1, 0), (N2, 0), (W, 1)):
        assert invariants(A).charpoly == (1, 0, 0, -delta)
    # N1 and N2 are nilpotent of index 2 and 3: the two nonzero Jordan types
    assert N1 @ N1 == Mat3.zero() and N2 @ N2 != Mat3.zero()
    assert N2 @ N2 @ N2 == Mat3.zero()


def test_n1_fixes_exactly_the_cubics_in_y_and_z():
    cubics_in_y_and_z = [vector(CubicForm(**{name: 1})) for name in ("A2", "A3", "B3", "C3")]
    basis = fixed_forms(N1)
    assert span_equal(basis, cubics_in_y_and_z)
    for vec in basis:
        assert in_span(CubicForm(**dict(zip(COMPONENT_NAMES, vec))).radical(), (1, 0, 0))


def test_n2_fixes_exactly_the_family_of_a_class_2_form():
    assert span_equal(fixed_forms(N2), [vector(CubicForm(A3=1)), vector(Q)])
    # (t z^3 + Q).pullback(shear(t)) has degree <= 4 in t: five points prove it
    for t in (-2, -1, 0, Fraction(1, 3), 5):
        shear = Mat3([[1, 0, Fraction(t, 6)], [0, 1, 0], [0, 0, 1]])
        assert (CubicForm(A3=t) + Q).pullback(shear) == Q, t
    report = classify(Q)
    assert report.label == "2" and report.algebra.finite_nontrivial_dim == 2
    assert len(CubicForm(A3=1).radical()) == 2


def test_w_fixes_exactly_the_multiples_of_a_class_1_form():
    w_form = CubicForm(B1=-2, B2=-2, F=1)
    assert span_equal(fixed_forms(W), [vector(w_form)])
    report = classify(w_form)
    assert report.label == "1" and report.algebra.finite_nontrivial_dim == 2


def test_so3_fixes_only_the_zero_form():
    assert all(A[i, j] == -A[j, i] for A in SO3 for i in range(3) for j in range(3))
    assert fixed_forms(*SO3) == []


def test_identity_scales_every_form_by_three():
    rng = random.Random(7)
    for _ in range(50):
        g = random_form(rng)
        assert killing_operator(g, Mat3.identity()) == g.scale(3), g.to_json()


@pytest.mark.parametrize("generators", [(N2,), (N2, W, Mat3.identity())],
                         ids=["nilpotent 1-dim", "3-dim"])
def test_an_algebra_outside_every_class_raises_with_the_form(monkeypatch, generators):
    monkeypatch.setattr(classify_module, "solve",
                        lambda g: SymmetryAlgebra(generators=generators, radical_basis=()))
    g = CubicForm(A1=1, B3=Fraction(-2, 3), F=5)
    with pytest.raises(RuntimeError, match="class 7 is empty") as info:
        classify(g)
    assert json.dumps(g.to_json()) in str(info.value)


def test_the_empty_class_has_no_shape():
    with pytest.raises(KeyError):
        SymmetryClass("7").shape
