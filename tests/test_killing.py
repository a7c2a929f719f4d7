"""Killing operator, assembled linear system, and the exact kernel solver."""

import random
from collections import Counter
from fractions import Fraction
from itertools import chain, permutations, product

from cubicsym import CubicForm, Mat3, build_system, killing_operator, solve, \
    verify_killing
from cubicsym.catalog import ENTRIES, PROJECTIVE_ENTRIES
from cubicsym.forms import COMPONENT_NAMES, SORTED_TRIPLES, TRIPLE_TO_NAME
from cubicsym.linalg import in_span, rref, span_equal
from cubicsym.properties import conjugated_generators, random_form, \
    random_invertible, random_matrix, same_span


def killing_oracle(form, A):
    """Independent three-term contraction over all 27 index triples."""
    out = {}
    for a, b, c in product((1, 2, 3), repeat=3):
        total = Fraction(0)
        for d in (1, 2, 3):
            total += (A[d - 1, a - 1] * form.component(d, b, c)
                      + A[d - 1, b - 1] * form.component(a, d, c)
                      + A[d - 1, c - 1] * form.component(a, b, d))
        out[(a, b, c)] = total
    return out


def dense_form(rng):
    """A random form pulled back by the inverse of a random invertible T: most
    have all ten components nonzero, with denominators from det T, where
    random_form draws at most five nonzero components."""
    return random_form(rng).pullback(random_invertible(rng).inverse())


def is_dense(g):
    """All ten components nonzero and at least one a proper fraction."""
    return g.affine_type() == 10 and any(v.denominator > 1 for v in g.components())


# each component alone, at 1 and at -7/3: each coefficient of A^d_x in a
# component of K then comes from one distinct term of killing._TERMS, so
# each multiplicity (1, 2 or 3) is checked alone
SINGLE_COMPONENT_FORMS = [CubicForm(**{name: v}) for name in COMPONENT_NAMES
                          for v in (1, Fraction(-7, 3))]


def test_killing_operator_matches_oracle_and_is_symmetric():
    rng = random.Random(41)
    dense = 0
    for n in range(80):
        g = random_form(rng) if n < 40 else dense_form(rng)
        dense += n >= 40 and is_dense(g)
        A = random_matrix(rng)
        K = killing_operator(g, A)
        oracle = killing_oracle(g, A)
        for idx, value in oracle.items():
            assert K.component(*idx) == value
    assert dense >= 20
    for g in SINGLE_COMPONENT_FORMS:
        for A in (random_matrix(rng), rational_matrix(rng)):
            K = killing_operator(g, A)
            oracle = killing_oracle(g, A)
            assert all(K.component(*idx) == value for idx, value in oracle.items())


def test_killing_operator_examples():
    bm = CubicForm(F=1)
    assert killing_operator(bm, Mat3.diag(1, -1, 0)) == CubicForm()
    rng = random.Random(43)
    for _ in range(20):
        g = random_form(rng)
        assert killing_operator(g, Mat3.identity()) == g.scale(3)
    # single entry A^1_2 = 1 against the sum of coordinate cubes: expanding
    # the three-term sum by hand leaves exactly the (112) component
    cubes = CubicForm(A1=1, A2=1, A3=1)
    unit = Mat3([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    out = killing_operator(cubes, unit)
    assert out == CubicForm(C1=1)
    assert out != CubicForm()


def test_killing_operator_bilinear():
    rng = random.Random(47)
    for _ in range(30):
        g1, g2 = random_form(rng), random_form(rng)
        A, B = random_matrix(rng), random_matrix(rng)
        assert killing_operator(g1 + g2, A) == \
            killing_operator(g1, A) + killing_operator(g2, A)
        assert killing_operator(g1, A + B) == \
            killing_operator(g1, A) + killing_operator(g1, B)


def test_build_system_zero_form():
    system = build_system(CubicForm())
    assert all(v == 0 for row in system.matrix for v in row)


def test_build_system_row_order_and_bm_row():
    # row 4 is the (1,2,3) component; for the single-F form applied to a
    # diagonal field it reads a+b+c
    system = build_system(CubicForm(F=1))
    row = system.matrix[SORTED_TRIPLES.index((1, 2, 3))]
    assert list(row) == [1, 0, 0, 0, 1, 0, 0, 0, 1]
    rng = random.Random(53)
    for _ in range(20):
        g = random_form(rng)
        A = random_matrix(rng)
        flat = A.flatten()
        oracle = killing_oracle(g, A)
        for row, triple in zip(build_system(g).matrix, SORTED_TRIPLES):
            assert sum(m * v for m, v in zip(row, flat)) == oracle[triple]


def test_build_system_stencil_entries():
    # column 3(i-1) + (j-1) is K of the unit matrix A^i_j = 1, whose (abc)
    # component keeps the d = i terms with a, b or c equal to j
    rng = random.Random(79)
    dense = 0
    drawn = (random_form(rng) if n < 200 else dense_form(rng) for n in range(260))
    for n, g in enumerate(chain(drawn, SINGLE_COMPONENT_FORMS)):
        dense += 200 <= n < 260 and is_dense(g)
        matrix = build_system(g).matrix
        for row, (a, b, c) in zip(matrix, SORTED_TRIPLES):
            for i, j in product((1, 2, 3), repeat=2):
                assert row[3 * (i - 1) + (j - 1)] == (
                    (j == a) * g.component(i, b, c) + (j == b) * g.component(a, i, c)
                    + (j == c) * g.component(a, b, i))
    assert dense >= 30


def test_build_system_linear_in_form():
    rng = random.Random(59)
    for _ in range(20):
        g1, g2 = random_form(rng), random_form(rng)
        m1 = build_system(g1).matrix
        m2 = build_system(g2).matrix
        msum = build_system(g1 + g2).matrix
        assert all(msum[i][j] == m1[i][j] + m2[i][j]
                   for i in range(10) for j in range(9))


def test_solve_bm():
    algebra = solve(CubicForm(F=1))
    assert algebra.finite_nontrivial_dim == 2
    assert algebra.radical_basis == ()
    assert not algebra.has_infinite_family
    expected = [Mat3.diag(1, -1, 0).flatten(), Mat3.diag(1, 0, -1).flatten()]
    assert span_equal([g.flatten() for g in algebra.generators], expected)


def test_solve_zero_form():
    algebra = solve(CubicForm())
    assert algebra.kernel_dim == 9
    assert len(algebra.radical_basis) == 3
    assert algebra.finite_nontrivial_dim == 0


def test_solve_sum_of_cubes_is_rigid():
    algebra = solve(CubicForm(A1=1, A2=1, A3=1))
    assert algebra.kernel_dim == 0
    assert algebra.finite_nontrivial_dim == 0


def test_solver_is_deterministic():
    rng = random.Random(61)
    for _ in range(10):
        g = random_form(rng)
        assert solve(g) == solve(g)


def test_verify_killing_catalog_fields():
    # the (A1, B3) metric with X = x2 d2 - (x3/2) d3
    assert verify_killing(CubicForm(A1=1, B3=1), Mat3.diag(0, 1, -Fraction(1, 2)))
    # the single-F form is scaled by the identity field, not preserved
    assert not verify_killing(CubicForm(F=1), Mat3.identity())
    # the (F, A1, B1+) metric with X = x2 d2 - (x3 + x2) d3
    g = CubicForm(A1=1, B1=1, F=1)
    assert verify_killing(g, Mat3([[0, 0, 0], [0, 1, 0], [0, -1, -1]]))


def rational_matrix(rng):
    return Mat3([[Fraction(rng.randint(-3, 3), rng.randint(1, 7)) for _ in range(3)]
                 for _ in range(3)])


def test_integer_images_match_fraction_contraction():
    # verify_killing and killing_operator contract the integer images of G
    # and A; the oracle contracts the Fractions themselves.  Each form meets
    # a rational combination of its generators (Killing, with denominators),
    # that combination plus a small rational entry, and a random rational A.
    rng = random.Random(89)
    dense = 0
    outcomes = {True: 0, False: 0}
    drawn = (random_form(rng) if n < 120 else dense_form(rng) for n in range(200))
    for n, g in enumerate(chain(drawn, SINGLE_COMPONENT_FORMS)):
        dense += 120 <= n < 200 and is_dense(g)
        A = Mat3.zero()
        for G in solve(g).generators:
            A = A + G.scale(Fraction(rng.randint(-5, 5), rng.randint(1, 9)))
        bump = [[0] * 3 for _ in range(3)]
        bump[rng.randrange(3)][rng.randrange(3)] = Fraction(1, rng.randint(2, 9))
        for B in (A, A + Mat3(bump), rational_matrix(rng)):
            oracle = killing_oracle(g, B)
            killing = not any(oracle.values())
            assert verify_killing(g, B) == killing, (g, B)
            K = killing_operator(g, B)
            assert all(K.component(*idx) == value for idx, value in oracle.items())
            outcomes[killing] += any(v.denominator > 1 for v in B.flatten())
    assert dense >= 30
    assert min(outcomes.values()) >= 100, outcomes


def _independent_rank(rows):
    # dense elimination with largest-pivot selection: a different pivoting
    # strategy and code path than the library's reduced echelon routine
    m = [list(map(Fraction, r)) for r in rows]
    nrows, ncols = len(m), len(m[0])
    rk = 0
    for col in range(ncols):
        piv, best = None, Fraction(0)
        for i in range(rk, nrows):
            if abs(m[i][col]) > best:
                piv, best = i, abs(m[i][col])
        if piv is None:
            continue
        m[rk], m[piv] = m[piv], m[rk]
        for i in range(nrows):
            if i != rk and m[i][col] != 0:
                f = m[i][col] / m[rk][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rk])]
        rk += 1
    return rk


def test_solver_soundness_and_completeness():
    rng = random.Random(67)
    for _ in range(60):
        g = random_form(rng)
        system = build_system(g)
        algebra = solve(g)
        for A in algebra.generators:
            assert verify_killing(g, A)
        # rank-nullity against two independent rank computations
        rows = [list(r) for r in system.matrix]
        assert algebra.kernel_dim == 9 - len(rref(rows)[1])
        assert algebra.kernel_dim == 9 - _independent_rank(rows)
        assert algebra.finite_nontrivial_dim >= 0


def test_kernel_covariance():
    rng = random.Random(71)
    for _ in range(30):
        g = random_form(rng)
        T = random_invertible(rng)
        a1 = solve(g)
        a2 = solve(g.pullback(T))
        moved = conjugated_generators(a1, T)
        assert same_span(moved, list(a2.generators))


def hessian(form):
    """H = det of the Hessian of G(x) = G_abc x^a x^b x^c as a form.  Entry
    (i, j) of the Hessian is the linear form 6 G_ijc x^c; the determinant is
    expanded over the six permutations and the 27 index triples, and each
    monomial's coefficient is divided by its orbit size (1, 3 or 6)."""
    L = [[[6 * form.component(i, j, c) for c in (1, 2, 3)] for j in (1, 2, 3)]
         for i in (1, 2, 3)]
    coeff = Counter()
    for p in permutations(range(3)):
        sign = (-1) ** sum(p[i] > p[j] for i in range(3) for j in range(i + 1, 3))
        for c in product(range(3), repeat=3):
            coeff[tuple(sorted(c))] += sign * L[0][p[0]][c[0]] * L[1][p[1]][c[1]] \
                * L[2][p[2]][c[2]]
    return CubicForm(**{TRIPLE_TO_NAME[tuple(k + 1 for k in t)]: v / len(set(permutations(t)))
                        for t, v in coeff.items()})


def test_hessian_is_covariant_under_the_computed_algebras():
    """A Killing field A of G scales its Hessian determinant H by the square
    of the Jacobian: K(H, A) = -2 tr(A) H, on every generator the solver
    finds for the 77 branches."""
    # x^3 + y^3 + z^3 has Hessian diag(6x, 6y, 6z), so H = 216 xyz
    assert hessian(CubicForm(A1=1, A2=1, A3=1)) == CubicForm(F=36)
    assert hessian(CubicForm(A1=1, B1=1)) == CubicForm()
    branches = [entry.build(branch.params) for entry in ENTRIES for branch in entry.branches()]
    nonzero = generators = broken = 0
    for g in branches:
        H = hessian(g)
        nonzero += H != CubicForm()
        for A in solve(g).generators:
            generators += 1
            assert killing_operator(H, A) == H.scale(-2 * (A[0, 0] + A[1, 1] + A[2, 2])), g
        # K(H, I) = 3H, not -6H, for every nonzero H: I is no Killing field
        broken += killing_operator(H, Mat3.identity()) != H.scale(-6)
    assert len(branches) == 77 and generators == 123
    assert nonzero >= 66 and broken >= 1


def test_radical_rank_one_fields_are_symmetries():
    rng = random.Random(73)
    for _ in range(40):
        g = random_form(rng)
        kernel = [m.flatten() for m in solve(g).generators]
        for v in g.radical():
            for w in ([1, 0, 0], [0, 1, 0], [0, 0, 1], [2, -1, 3]):
                A = Mat3([[v[i] * Fraction(w[j]) for j in range(3)] for i in range(3)])
                assert verify_killing(g, A)
                assert in_span(kernel, A.flatten())


def test_radical_is_skipped_only_when_it_is_empty():
    """solve computes the radical only for a kernel of at least 3
    dimensions: r radical vectors v make the 3r independent fields v w^T
    Killing, so a kernel of dimension 1 or 2 has no radical, and with class 7
    empty every larger kernel has one.  On box forms, catalog branches, their
    rational pullbacks and the projective samples, solve's radical must be
    the form's own, and kernels of dimension 0, 1-2 and at least 3 all
    occur."""
    rng = random.Random(79)
    branches = [entry.build(branch.params) for entry in ENTRIES for branch in entry.branches()]
    forms = [CubicForm(**{name: rng.choice((-1, 0, 1)) for name in COMPONENT_NAMES})
             for _ in range(150)]
    forms += [g.pullback(random_invertible(rng).inverse()) for g in branches]
    forms += branches
    forms += [entry.build(sample.params) for entry in PROJECTIVE_ENTRIES
              for sample in entry.samples]
    assert len(branches) == 77 and len(forms) == 150 + 2 * 77 + 22
    seen = set()
    for g in forms:
        algebra, radical = solve(g), tuple(g.radical())
        assert algebra.radical_basis == radical, g
        dim = algebra.kernel_dim
        assert bool(radical) == (dim >= 3), g
        seen.add("0" if dim == 0 else "1-2" if dim < 3 else ">=3")
    assert seen == {"0", "1-2", ">=3"}
