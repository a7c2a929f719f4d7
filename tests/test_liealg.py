"""Brackets, structure constants, invariant series and colinearity."""

import random
from fractions import Fraction

import pytest

from cubicsym import CubicForm, Mat3, bracket, colinearity, derived_algebra, \
    invariants, solvable_pair, solve, structure_constants
from cubicsym.liealg import DependentBasisError, NotClosedError, StructureConstants, \
    _nth_root
from cubicsym.catalog import ENTRIES
from cubicsym.linalg import coordinates_in_span, echelon_basis, rref
from cubicsym.properties import random_form, random_matrix


def rank(vectors):
    return len(rref(vectors)[1])


def is_abelian(basis):
    return structure_constants(basis).is_zero()


def rational_matrix(rng):
    return Mat3([[Fraction(rng.randint(-3, 3), rng.randint(1, 7)) for _ in range(3)]
                 for _ in range(3)])


def test_bracket_examples():
    assert bracket(Mat3.diag(1, -1, 0), Mat3.diag(1, 0, -1)).is_zero()
    rng = random.Random(79)
    for _ in range(20):
        A = random_matrix(rng)
        assert bracket(A, A).is_zero()


def test_bracket_and_delta_match_fraction_products():
    # bracket and invariants multiply integer images; the oracles multiply
    # the Fractions with Mat3's own product and determinant
    rng = random.Random(131)
    for n in range(200):
        A = rational_matrix(rng) if n % 4 else random_matrix(rng)
        B = rational_matrix(rng)
        assert bracket(A, B) == (B @ A) - (A @ B)
        assert invariants(A).delta == A.det()


def test_derived_algebra_and_solvable_pair_on_catalog_algebras():
    # derived_algebra reuses the brackets of its closure check; the reference
    # echelonizes freshly computed brackets
    kinds = {"1": 0, "2": 0}
    for entry in ENTRIES:
        for branch in entry.branches():
            algebra = solve(entry.build(branch.params))
            if algebra.radical_basis or algebra.kernel_dim != 2:
                continue
            basis = list(algebra.generators)
            expected = [Mat3.from_flat(v)
                        for v in echelon_basis([bracket(basis[0], basis[1]).flatten()])]
            assert derived_algebra(basis) == expected
            if not expected:
                kinds["1"] += 1
                with pytest.raises(ValueError, match="not 2-dimensional nonabelian"):
                    solvable_pair(basis)
                continue
            kinds["2"] += 1
            X1, X2 = solvable_pair(basis)
            assert X2 == expected[0]
            assert bracket(X1, X2) == X2.scale(Fraction(3, 2))
            assert rank([X1.flatten(), basis[0].flatten(), basis[1].flatten()]) == 2
    assert min(kinds.values()) >= 5, kinds


def test_bracket_sign_convention():
    # canonical nonabelian pair: scaling plus the nilpotent partner of the
    # (A1, B1, C2) metric; the normalization is bracket(X1, X2) = (3/2) X2
    X1 = Mat3([[1, 0, 0], [0, -Fraction(1, 2), 0], [-1, 0, -2]])
    X2 = Mat3([[0, 0, 0], [-Fraction(1, 2), 0, 0], [0, 1, 0]])
    assert bracket(X1, X2) == X2.scale(Fraction(3, 2))


def test_structure_constants_abelian():
    basis = [Mat3.diag(1, -1, 0), Mat3.diag(1, 0, -1)]
    sc = structure_constants(basis)
    assert sc.is_zero()
    assert is_abelian(basis)
    assert derived_algebra(basis) == []


def test_structure_constants_solvable_pair():
    g = CubicForm(A1=1, B1=1, C2=1)
    X1, X2 = solvable_pair(list(solve(g).generators))
    sc = structure_constants([X1, X2])
    assert sc.c[1][0][1] == Fraction(3, 2)
    assert sc.c[1][1][0] == -Fraction(3, 2)
    assert sc.c[0][0][1] == 0
    assert not sc.is_zero()
    assert not is_abelian([X1, X2])
    derived = derived_algebra([X1, X2])
    assert len(derived) == 1


def test_structure_constants_single_and_empty():
    sc = structure_constants([Mat3.diag(1, 2, 3)])
    assert len(sc.c) == 1 and sc.is_zero()
    assert is_abelian([])
    assert derived_algebra([]) == []


def test_structure_constants_errors():
    with pytest.raises(DependentBasisError):
        structure_constants([Mat3.diag(1, 0, 0), Mat3.diag(2, 0, 0)])
    shear_up = Mat3([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    shear_down = Mat3([[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    with pytest.raises(NotClosedError):
        structure_constants([shear_up, shear_down])
    with pytest.raises(NotClosedError):
        derived_algebra([shear_up, shear_down])


def structure_constants_oracle(basis):
    # reference: a rank check, then one augmented solve per bracket
    vectors = [m.flatten() for m in basis]
    if vectors and rank(vectors) != len(vectors):
        raise DependentBasisError("generators are linearly dependent")
    n = len(basis)
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            coords = coordinates_in_span(vectors, bracket(basis[i], basis[j]).flatten())
            if coords is None:
                raise NotClosedError(
                    f"bracket of generators {i} and {j} is outside the span")
            for k in range(n):
                c[k][i][j] = coords[k]
                c[k][j][i] = -coords[k]
    return StructureConstants(c=tuple(tuple(tuple(row) for row in layer) for layer in c))


def _outcome(f, basis):
    try:
        return f(basis)
    except (DependentBasisError, NotClosedError) as exc:
        return type(exc), str(exc)


def test_structure_constants_match_oracle():
    rng = random.Random(113)
    # closed: computed algebras and their subalgebras, rational multiples included
    bases = []
    for _ in range(120):
        gens = list(solve(random_form(rng)).generators)
        bases.append(gens)
        if len(gens) >= 2:
            bases.append([gens[0].scale(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
                          + gens[1], gens[1]])
    bases += [[], [Mat3.diag(1, 2, 3)], [Mat3.diag(1, -1, 0), Mat3.diag(1, 0, -1)]]
    # dependent: a repeated or rescaled member, placed anywhere
    for _ in range(60):
        basis = [rational_matrix(rng) for _ in range(rng.randint(1, 3))]
        k = rng.randrange(len(basis) + 1)
        basis.insert(k, basis[rng.randrange(len(basis))].scale(rng.randint(-3, 3)))
        bases.append(basis)
    # non-closed: random matrices, whose brackets leave the span
    bases += [[rational_matrix(rng) for _ in range(rng.randint(2, 4))] for _ in range(60)]
    kinds = {}
    for basis in bases:
        expected = _outcome(structure_constants_oracle, basis)
        assert _outcome(structure_constants, basis) == expected, basis
        kind = expected[0] if isinstance(expected, tuple) else StructureConstants
        kinds[kind] = kinds.get(kind, 0) + 1
    assert min(kinds.get(k, 0) for k in
               (StructureConstants, DependentBasisError, NotClosedError)) >= 40


def test_structure_constants_antisymmetry_and_jacobi():
    g = CubicForm(B1=1, B3=1)  # 2-dimensional nonabelian kernel
    basis = list(solve(g).generators)
    sc = structure_constants(basis)
    n = len(sc.c)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                assert sc.c[k][i][j] == -sc.c[k][j][i]
    # Jacobi in coordinates: sum over m of c^m_ij c^l_mk + cyclic = 0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    total = sum(sc.c[m][i][j] * sc.c[l][m][k]
                                + sc.c[m][j][k] * sc.c[l][m][i]
                                + sc.c[m][k][i] * sc.c[l][m][j]
                                for m in range(n))
                    assert total == 0


def test_invariants_examples():
    s = invariants(Mat3.diag(0, 1, -1))
    assert list(s.I) == [0, 2, 0, 2, 0, 2]
    assert s.delta == 0
    s = invariants(Mat3.diag(-2, 1, 0))
    assert list(s.I) == [-1, 5, -7, 17, -31, 65]
    assert s.delta == 0
    s = invariants(Mat3.zero())
    assert list(s.I) == [0] * 6 and s.delta == 0


def test_invariants_charpoly():
    rng = random.Random(83)
    for _ in range(30):
        A = random_matrix(rng)
        s = invariants(A)
        one, c1, c2, c3 = s.charpoly
        assert one == 1 and c1 == -s.I[0]
        assert c2 == (s.I[0] ** 2 - s.I[1]) / 2
        assert c3 == -s.delta
        assert s.delta == (s.I[0] ** 3 - 3 * s.I[0] * s.I[1] + 2 * s.I[2]) / 6


def test_colinearity_self():
    s = invariants(Mat3.diag(0, 1, -1))
    verdict = colinearity(s, s)
    assert verdict.kind == "real" and verdict.C == 1


def test_colinearity_real_between_divergent_cases():
    # both series lie in the 1+(-2)^n family, one rescaled by powers of -2
    s_scaled = invariants(Mat3.diag(0, 1, -Fraction(1, 2)))
    s_plain = invariants(Mat3.diag(-2, 1, 0))
    verdict = colinearity(s_scaled, s_plain)
    assert verdict.kind == "real"
    assert verdict.C == Fraction(-1, 2)
    verdict = colinearity(s_plain, s_scaled)
    assert verdict.kind == "real" and verdict.C == -2


def test_colinearity_complex_between_boost_and_rotation():
    boost = invariants(Mat3.diag(0, 1, -1))            # I2 = 2
    rotation = invariants(Mat3([[0, 0, 0], [0, 0, 1], [0, -1, 0]]))  # I2 = -2
    verdict = colinearity(boost, rotation)
    assert verdict.kind == "complex"
    assert verdict.C_squared == -1
    verdict = colinearity(rotation, boost)
    assert verdict.kind == "complex"


def test_colinearity_zero_pattern_mismatch():
    a = invariants(Mat3.diag(0, 1, -1))
    b = invariants(Mat3.diag(-2, 1, 0))
    assert colinearity(a, b).kind == "none"


def test_colinearity_all_zero():
    z = invariants(Mat3.zero())
    verdict = colinearity(z, z)
    assert verdict.kind == "real" and verdict.C == 1


def test_colinearity_irrational_real_scale():
    # boosts of incommensurable strength: C^2 = 3 has no rational root but
    # the verdict is still real
    a = invariants(Mat3.diag(0, 1, -1))
    b = invariants(Mat3.diag(0, 3, -3))
    verdict = colinearity(b, a)
    assert verdict.kind == "real"
    assert verdict.C_squared == 9
    assert verdict.C == 3
    c = invariants(Mat3([[0, 3, 0], [1, 0, 0], [0, 0, 0]]))  # I2 = 6
    verdict = colinearity(c, a)
    assert verdict.kind == "real"
    assert verdict.C_squared == 3
    assert verdict.C is None


def test_nth_root_is_exact_for_huge_powers():
    assert _nth_root(Fraction(10**400), 2) == 10**200
    assert _nth_root(Fraction(3**600), 3) == 3**200
    assert _nth_root(Fraction(-(7**300), 2**90), 5) == Fraction(-(7**60), 2**18)
    assert _nth_root(Fraction(9, 4), 2) == Fraction(3, 2)


def test_nth_root_rejects_non_powers():
    assert _nth_root(Fraction(2), 2) is None
    assert _nth_root(Fraction(2), 3) is None
    assert _nth_root(Fraction(10**400 + 1), 2) is None
    assert _nth_root(Fraction(3**600 - 1), 3) is None
    assert _nth_root(Fraction(-4), 2) is None


def test_solvable_pair_requires_nonabelian():
    with pytest.raises(ValueError):
        solvable_pair([Mat3.diag(1, -1, 0), Mat3.diag(1, 0, -1)])
    with pytest.raises(ValueError):
        solvable_pair([Mat3.diag(1, -1, 0)])
