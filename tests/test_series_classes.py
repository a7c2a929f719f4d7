"""Within each class 4, 5 and 6 the invariant series are real-proportional.

Two forms with the same label in {4, 5, 6} have generators whose spectra
differ by a real factor: up to a real multiple and to order, a class-4
generator has the spectrum (0, 1, -2), a class-5 one (0, 1, -1) and a
class-6 one (0, i, -i).  So the coefficients c_1..c_3 of their
characteristic polynomials satisfy c_k = C^k c'_k with C real, and compare
needs no colinearity witness.  The tests below check every exact step of
the proof; the one step that is cited, not computed, is marked as such.

Setting.  G has a trivial radical and an algebra g spanned by one matrix A.
Its label is 4 when I1 != 0, 5 when I1 = 0 < I2 and 6 when I1 = 0 > I2.  As
in tests/test_class7.py, G.pullback(P) has the algebra P^-1 g P, so A may
be replaced by any conjugate of a nonzero real multiple of it: that keeps
the label and scales the spectrum by a real factor.

1. A is semisimple.  (Cited.)  g is algebraic, being the Lie algebra of a
   stabilizer, so it holds the semisimple and the nilpotent part of each
   of its elements (Borel, Linear Algebraic Groups).  g is 1-dimensional,
   so the nilpotent part of A is t A.  If t != 0, A is nilpotent and
   I1 = I2 = 0, which no label 4, 5 or 6 allows; tests/test_class7.py
   step 1 shows that no form with a trivial radical has such an algebra.

2. Real eigenvalues.  A is conjugate over R to D = diag(l).  D scales the
   monomial with exponents e (e1 + e2 + e3 = 3) by e . l, so G is fixed by
   D iff its support lies in Z = {e : e . l = 0}.  Since e . (1, 1, 1) = 3,
   Z is the set of exponent triples on a line of the plane e1 + e2 + e3 = 3,
   a single triple, or empty.
   - |Z| <= 1.  G is zero or a monomial.  The zero form and nine of the ten
     monomials miss a variable, so they have a radical; xyz has the
     2-dimensional algebra of traceless diagonal matrices.
   - |Z| >= 2.  Z is the set of all triples on one of the 24 lines through
     two or more triples, and l is a multiple of that line's weight w, the
     normal of the plane through the line and the origin.  LINES records
     each line's w and outcome:
     a. on the 3 edges e_k = 0, G misses x_k: e_k lies in its radical;
     b. on the 3 rows e_k = 1, which meet at (1, 1, 1), G = x_k q with q a
        quadratic in the other two variables.  With S the matrix of q and
        E = [[0, 1], [-1, 0]], the generator E S of so(q) also fixes G.  It
        is linear in q's coefficients, so K(G, E S) has degree 2 in them
        and vanishes on 3 points each: it is zero.  E S is nonzero, as q
        is, and has no k-th row or column, while D = diag(w) has w_k != 0;
        so dim g >= 2;
     c. on the 18 two-point lines, G = a x^e + b x^f with a b != 0 (else G
        is a monomial, above).  e and f are independent, so a positive
        diagonal scaling sets |a| = |b| = 1, and the four sign patterns
        cover every case.  Classified exactly: class 4 appears only with
        w proportional to (0, 1, -2) and class 5 only with w proportional
        to (0, 1, -1), up to order, and then the computed generator is a
        multiple of diag(w).  Every other outcome is class 2 or a nonzero
        radical.
   So a real spectrum gives class 4 with (0, 1, -2), class 5 with
   (0, 1, -1), and never class 6, up to a real factor.

3. Complex eigenvalues.  Conjugated and rescaled, A is
   M = [[alpha, -1, 0], [1, alpha, 0], [0, 0, mu]]
     = alpha (E11 + E22) + mu E33 + R,  R = [[0, -1, 0], [1, 0, 0], [0, 0, 0]].
   The operator K_A : G -> K(G, A) is linear in A.  K_{E11+E22} and K_{E33}
   scale each monomial by a real number (step 2) and commute with K_R,
   and K_R is annihilated by t (t^2 + 1)(t^2 + 4)(t^2 + 9), so it is
   diagonalizable over C with imaginary eigenvalues.  On a common
   eigenvector, K_M acts by a real number plus an imaginary one, which is
   zero only if both are: so every form fixed by M is fixed by R.  R fixes
   exactly the span of z^3 and (x^2 + y^2) z.  There, b (x^2 + y^2) z is
   class 1 (diag(1, 1, -2) fixes it too), a z^3 has a radical, and with
   a b != 0, g holds R: class 6 with the spectrum (0, i, -i).

Conclusion.  Class 6 has I2 < 0, while a real spectrum l has
I2 = l1^2 + l2^2 + l3^2 > 0, so class 6 is case 3 and classes 4 and 5 are
case 2.  Each class thus has one spectrum up to a real factor, and two
generators of one class have c_k = C^k c'_k (k = 1..3) for a real C.  The
last test is a backstop: every class 4, 5 and 6 catalog branch, and
rational pullbacks of it, is real-proportional to its class's canonical
series.
"""

import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd

import pytest

from cubicsym import POSSIBLY_EQUIVALENT, CubicForm, Mat3, catalog, classify, compare, \
    invariants, killing_operator
from cubicsym.forms import COMPONENT_NAMES, TRIPLE_TO_NAME
from cubicsym.liealg import colinearity
from cubicsym.linalg import in_span, nullspace, rref, span_equal

R = Mat3([[0, -1, 0], [1, 0, 0], [0, 0, 0]])

# the canonical generator of each class: its spectrum up to a real factor
CANONICAL = {"4": Mat3.diag(0, 1, -2), "5": Mat3.diag(0, 1, -1), "6": R}
SPECTRA = {"4": (0, 1, -2), "5": (0, 1, -1)}

# each line through two or more exponent triples, by its primitive weight w
# (first nonzero entry positive), and what the forms on it are
LINES = {
    # the edges e_k = 0: every form misses x_k
    (1, 0, 0): "radical", (0, 1, 0): "radical", (0, 0, 1): "radical",
    # the rows e_k = 1 through (1, 1, 1): x_k times a quadratic, dim g >= 2
    (2, -1, -1): "so(q)", (1, -2, 1): "so(q)", (1, 1, -2): "so(q)",
    # the two-point lines: the class of all four sign patterns
    (0, 1, -2): "4", (0, 2, -1): "4", (1, -2, 0): "4",
    (1, 0, -2): "4", (2, -1, 0): "4", (2, 0, -1): "4",
    (0, 1, -1): "5", (1, -1, 0): "5", (1, 0, -1): "5",
    (1, -2, 4): "2", (1, 4, -2): "2", (2, -4, -1): "2",
    (2, -1, -4): "2", (4, -2, 1): "2", (4, 1, -2): "2",
    (1, -2, -2): "3(3)", (2, -1, 2): "3(3)", (2, 2, -1): "3(3)",
}

# exponent triple (e1, e2, e3) of x^e1 y^e2 z^e3 -> its component name
NAME = {tuple(t.count(i) for i in (1, 2, 3)): name for t, name in TRIPLE_TO_NAME.items()}
TRIPLES = sorted(NAME)


def unit(e):
    return CubicForm(**{NAME[e]: 1})


def vector(form):
    return [getattr(form, name) for name in COMPONENT_NAMES]


def weight(e, f):
    """The primitive normal of e and f, first nonzero entry positive."""
    w = (e[1] * f[2] - e[2] * f[1], e[2] * f[0] - e[0] * f[2], e[0] * f[1] - e[1] * f[0])
    g = gcd(*w) * (1 if next(x for x in w if x) > 0 else -1)
    return tuple(x // g for x in w)


def lines():
    """Each line through two or more exponent triples: weight -> its triples."""
    found = {}
    for e, f in combinations(TRIPLES, 2):
        found.setdefault(weight(e, f), set()).update((e, f))
    return found


def operator(A):
    """Matrix of G -> K(G, A) over COMPONENT_NAMES."""
    columns = [vector(killing_operator(CubicForm(**{name: 1}), A)) for name in COMPONENT_NAMES]
    return [list(row) for row in zip(*columns)]


def matmul(X, Y):
    return [[sum(X[i][k] * Y[k][j] for k in range(len(Y))) for j in range(len(Y[0]))]
            for i in range(len(X))]


def shifted(X, c):
    """X + c I."""
    return [[x + (c if i == j else 0) for j, x in enumerate(row)] for i, row in enumerate(X)]


def proportional_up_to_order(w, spectrum):
    return any(all(w[i] * p[j] == w[j] * p[i] for i in range(3) for j in range(3))
               for p in permutations(spectrum))


def test_a_nilpotent_generator_has_no_series_label():
    # step 1: every nonzero nilpotent matrix is conjugate to one of the two
    # Jordan types, so a multiple of a conjugate of either covers it
    rng = random.Random(3)
    for N in (Mat3([[0, 1, 0], [0, 0, 0], [0, 0, 0]]),
              Mat3([[0, 1, 0], [0, 0, 1], [0, 0, 0]])):
        for _ in range(5):
            P = Mat3([[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
            if P.det() == 0:
                continue
            s = invariants((P.inverse() @ N @ P).scale(Fraction(rng.randint(1, 9), 7)))
            # lambda^3: I1 = 0, and then (I1^2 - I2) / 2 = 0 gives I2 = 0
            assert s.charpoly == (1, 0, 0, 0)


def test_a_diagonal_generator_scales_each_monomial_by_e_dot_l():
    # K is linear in A, so the three unit diagonals give every diag(l)
    for e in TRIPLES:
        for k in range(3):
            E = Mat3([[int(i == j == k) for j in range(3)] for i in range(3)])
            assert killing_operator(unit(e), E) == unit(e).scale(e[k]), (e, k)


def test_the_exponent_triples_lie_on_24_lines():
    found = lines()
    assert set(found) == set(LINES)
    for w, points in found.items():
        # a line holds every triple of its plane e . w = 0
        assert points == {e for e in TRIPLES if sum(a * b for a, b in zip(e, w)) == 0}, w
        assert len(points) == {"radical": 4, "so(q)": 3}.get(LINES[w], 2), w
        if LINES[w] == "so(q)":
            assert (1, 1, 1) in points
    assert sum(len(p) == 2 for p in found.values()) == 18


def test_no_monomial_is_in_a_series_class():
    for e in TRIPLES:
        report = classify(unit(e))
        if e == (1, 1, 1):
            assert report.label == "1" and report.algebra.finite_nontrivial_dim == 2
        else:
            assert report.algebra.radical_basis, e


def test_forms_on_an_edge_miss_a_variable():
    # the radical condition is linear in G, so the unit forms cover the edge
    for w, points in lines().items():
        if LINES[w] == "radical":
            k = w.index(1)
            axis = tuple(int(i == k) for i in range(3))
            for e in points:
                assert e[k] == 0 and in_span(unit(e).radical(), axis), (w, e)


def test_forms_on_a_row_through_xyz_have_a_second_generator():
    for w, points in lines().items():
        if LINES[w] != "so(q)":
            continue
        k = next(k for k in range(3) if all(e[k] == 1 for e in points))
        i, j = (m for m in range(3) if m != k)
        square_i, mixed, square_j = (next(e for e in points if e[i] == n) for n in (2, 1, 0))
        diagonal = Mat3.diag(*w)
        assert w[k] != 0
        # G = x_k (a x_i^2 + 2 b x_i x_j + c x_j^2) in components; K(G, E S)
        # has degree 2 in (a, b, c), so three points per coefficient prove it
        for a, b, c in product((-1, 0, 2), repeat=3):
            G = CubicForm(**{NAME[square_i]: a, NAME[mixed]: b, NAME[square_j]: c})
            rows = [[0] * 3 for _ in range(3)]
            rows[i][i], rows[i][j], rows[j][i], rows[j][j] = b, c, -a, -b
            assert killing_operator(G, Mat3(rows)) == CubicForm(), (w, a, b, c)
            assert killing_operator(G, diagonal) == CubicForm(), (w, a, b, c)


@pytest.mark.parametrize("w", [w for w, outcome in LINES.items()
                               if outcome not in ("radical", "so(q)")], ids=str)
def test_a_two_point_line_has_one_class(w):
    e, f = sorted(lines()[w])
    assert len(rref([e, f])[1]) == 2
    label = LINES[w]
    assert label in ("2", "3(3)") or proportional_up_to_order(w, SPECTRA[label])
    for a, b in product((1, -1), repeat=2):
        report = classify(CubicForm(**{NAME[e]: a, NAME[f]: b}))
        assert report.label == label, (w, a, b)
        if label in SPECTRA:
            generator = report.algebra.generators[0]
            assert in_span([generator.flatten()], Mat3.diag(*w).flatten()), (w, a, b)
        elif label == "3(3)":
            assert report.algebra.radical_basis


def test_a_complex_generator_fixes_only_forms_of_class_6_or_1():
    K_R = operator(R)
    for D in (Mat3.diag(1, 1, 0), Mat3.diag(0, 0, 1)):
        K_D = operator(D)
        assert matmul(K_R, K_D) == matmul(K_D, K_R)
    # K_R (K_R^2 + 1)(K_R^2 + 4)(K_R^2 + 9) = 0: semisimple, imaginary spectrum
    square = matmul(K_R, K_R)
    annihilated = K_R
    for c in (1, 4, 9):
        annihilated = matmul(annihilated, shifted(square, c))
    assert all(x == 0 for row in annihilated for x in row)
    fixed = nullspace(operator(R))
    assert span_equal(fixed, [vector(CubicForm(A3=1)), vector(CubicForm(C2=1, C3=1))])
    assert classify(CubicForm(A3=1)).algebra.radical_basis
    assert classify(CubicForm(C2=1, C3=1)).label == "1"
    assert killing_operator(CubicForm(C2=1, C3=1), Mat3.diag(1, 1, -2)) == CubicForm()
    # z -> s z and (x, y) -> t (x, y) set a = 1 and b = +-1; all four signs are checked
    for a, b in product((1, -1), repeat=2):
        report = classify(CubicForm(A3=a, C2=b, C3=b))
        assert report.label == "6", (a, b)
        assert in_span([report.algebra.generators[0].flatten()], R.flatten())


def test_each_canonical_generator_carries_its_label():
    s4, s5, s6 = (invariants(CANONICAL[label]) for label in ("4", "5", "6"))
    assert s4.I[0] != 0
    assert s5.I[0] == 0 and s5.I[1] > 0
    assert s6.I[0] == 0 and s6.I[1] < 0
    assert s6.charpoly == (1, 0, 1, 0)  # lambda^3 + lambda: the spectrum (0, i, -i)


def rational_invertible(rng):
    while True:
        T = Mat3([[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)]
                  for _ in range(3)])
        if T.det() != 0:
            return T


def test_catalog_series_are_real_proportional_to_their_class():
    rng = random.Random(22)
    branches = 0
    for entry in catalog.ENTRIES:
        for branch in entry.branches():
            g = entry.build(branch.params)
            label = classify(g).label
            if label not in CANONICAL:
                continue
            branches += 1
            canonical = invariants(CANONICAL[label])
            for h in (g, g.pullback(rational_invertible(rng)),
                      g.pullback(rational_invertible(rng))):
                report = classify(h)
                assert report.label == label, (entry.id, branch.label)
                assert colinearity(report.invariant_series, canonical).kind == "real", \
                    (entry.id, branch.label)
                assert compare(g, h).verdict == POSSIBLY_EQUIVALENT, (entry.id, branch.label)
    assert branches == 49
