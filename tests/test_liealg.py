"""Brackets, structure constants, invariant series and colinearity."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from cubicsym import CubicForm, Mat3, bracket, colinearity, invariants, \
    solvable_pair, solve, structure_constants
from cubicsym.liealg import ColinearityVerdict, DependentBasisError, NotClosedError, \
    StructureConstants, _nth_root
from cubicsym.catalog import ENTRIES
from cubicsym.linalg import rref
from cubicsym.properties import random_form, random_invertible, random_matrix


def rank(vectors):
    return len(rref(vectors)[1])


def is_abelian(basis):
    return structure_constants(basis).is_zero()


def derived_vector(A, B):
    """bracket(A, B) over its first nonzero entry, or None if it is zero:
    the echelon basis of the derived algebra of span(A, B)."""
    ab = bracket(A, B).flatten()
    pivot = next((v for v in ab if v), None)
    return None if pivot is None else Mat3.from_flat([v / pivot for v in ab])


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
    # solvable_pair reads X2 off the reduction of its closure check; the
    # reference normalizes a freshly computed bracket
    kinds = {"1": 0, "2": 0}
    for entry in ENTRIES:
        for branch in entry.branches():
            algebra = solve(entry.build(branch.params))
            if algebra.radical_basis or algebra.kernel_dim != 2:
                continue
            basis = list(algebra.generators)
            expected = derived_vector(*basis)
            if expected is None:
                kinds["1"] += 1
                with pytest.raises(ValueError, match="not 2-dimensional nonabelian"):
                    solvable_pair(basis)
                continue
            kinds["2"] += 1
            X1, X2 = solvable_pair(basis)
            assert X2 == expected
            assert bracket(X1, X2) == X2.scale(Fraction(3, 2))
            assert rank([X1.flatten(), basis[0].flatten(), basis[1].flatten()]) == 2
    assert min(kinds.values()) >= 5, kinds


def class2_bases():
    """Bases of the nonabelian 2-dimensional algebras of the catalog branches
    and of four pullbacks of each by random invertible frames, in both
    orders (swapping A and B turns beta into -alpha, so both cases of
    solvable_pair's X1 occur) and recombined by two rational invertible
    matrices."""
    rng = random.Random(149)
    pairs = []
    for entry in ENTRIES:
        for branch in entry.branches():
            g = entry.build(branch.params)
            algebra = solve(g)
            if algebra.radical_basis or algebra.kernel_dim != 2 \
                    or structure_constants(list(algebra.generators)).is_zero():
                continue
            pairs.append(algebra.generators)
            pairs += [solve(g.pullback(random_invertible(rng))).generators for _ in range(4)]
    bases = []
    for A, B in pairs:
        bases += [[A, B], [B, A]]
        for p, q, r, s in ((1, 0, Fraction(rng.randint(-9, 9), 7), 1),
                           (Fraction(rng.randint(1, 9), rng.randint(1, 9)),
                            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                            Fraction(rng.randint(-9, 9), rng.randint(1, 9)), 1)):
            if p * s - q * r:
                bases.append([A.scale(p) + B.scale(q), A.scale(r) + B.scale(s)])
    return bases


def test_solvable_pair_normal_form_on_class2_bases_and_recombinations():
    # X2 is the echelon vector of the derived algebra, bracket(X1, X2) is
    # (3/2) X2, and X1, X2 span the algebra of the basis
    bases = class2_bases()
    cases = Counter()
    for A, B in bases:
        X1, X2 = solvable_pair([A, B])
        assert X2 == derived_vector(A, B)
        assert next(v for v in X2.flatten() if v) == 1
        assert bracket(X1, X2) == X2.scale(Fraction(3, 2))
        span = [A.flatten(), B.flatten()]
        assert rank(span + [X1.flatten()]) == rank(span + [X2.flatten()]) == 2
        assert rank([X1.flatten(), X2.flatten()]) == 2
        cases[rank(span[:1] + [X1.flatten()])] += 1     # 1 when X1 is a multiple of A
    assert len(bases) >= 200 and min(cases[1], cases[2]) >= 20, (len(bases), cases)


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


def test_structure_constants_solvable_pair():
    g = CubicForm(A1=1, B1=1, C2=1)
    X1, X2 = solvable_pair(list(solve(g).generators))
    sc = structure_constants([X1, X2])
    assert sc.c[1][0][1] == Fraction(3, 2)
    assert sc.c[1][1][0] == -Fraction(3, 2)
    assert sc.c[0][0][1] == 0
    assert not sc.is_zero()
    assert not is_abelian([X1, X2])


def test_structure_constants_single_and_empty():
    sc = structure_constants([Mat3.diag(1, 2, 3)])
    assert len(sc.c) == 1 and sc.is_zero()
    assert is_abelian([])


def test_structure_constants_errors():
    with pytest.raises(DependentBasisError):
        structure_constants([Mat3.diag(1, 0, 0), Mat3.diag(2, 0, 0)])
    shear_up = Mat3([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    shear_down = Mat3([[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    with pytest.raises(NotClosedError):
        structure_constants([shear_up, shear_down])


def coordinates(vectors, target):
    """Coordinates of target over independent vectors, or None outside their
    span: the last column of the reduced [vectors | target]."""
    n = len(vectors)
    red, pivots = rref([[v[i] for v in vectors] + [t] for i, t in enumerate(target)])
    return None if n in pivots else [red[i][n] for i in range(n)]


def structure_constants_oracle(basis):
    # reference: a rank check, then one augmented solve per bracket
    vectors = [m.flatten() for m in basis]
    if vectors and rank(vectors) != len(vectors):
        raise DependentBasisError("generators are linearly dependent")
    n = len(basis)
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            coords = coordinates(vectors, bracket(basis[i], basis[j]).flatten())
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
        if isinstance(expected, StructureConstants):
            # directly: sum_k c[k][i][j] X_k == [X_i, X_j]
            for i, Xi in enumerate(basis):
                for j, Xj in enumerate(basis):
                    total = Mat3.zero()
                    for k, Xk in enumerate(basis):
                        total = total + Xk.scale(expected.c[k][i][j])
                    assert total == bracket(Xi, Xj), basis
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
    assert colinearity(a, b) == ColinearityVerdict(kind="none", reason="zero patterns differ")


def test_colinearity_inconsistent_ratios():
    # c_1 and c_2 are both nonzero, but their ratios 1/2 and 2/3 fit no C
    a = invariants(Mat3.diag(0, 1, -2))
    b = invariants(Mat3.diag(0, 1, -3))
    assert colinearity(a, b) == ColinearityVerdict(kind="none",
                                                   reason="ratios are inconsistent")


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


def _colinearity_reference(s1, s2):
    """colinearity as it was when it decided on the seven ratios of I1..I6
    and Delta, kept as the oracle of the test below."""
    constraints = [(s1.I[n], s2.I[n], n + 1) for n in range(6)]
    constraints.append((s1.delta, s2.delta, 3))
    for a, b, _ in constraints:
        if (a == 0) != (b == 0):
            return ColinearityVerdict(kind="none", reason="zero patterns differ")
    active = [(Fraction(a) / Fraction(b), n) for a, b, n in constraints if a != 0]
    if not active:
        return ColinearityVerdict(kind="real", C=Fraction(1),
                                  reason="all invariants vanish")
    # magnitude consistency: |C|^n is pinned by every active ratio
    for i in range(len(active)):
        ri, ni = active[i]
        for j in range(i + 1, len(active)):
            rj, nj = active[j]
            if abs(ri) ** nj != abs(rj) ** ni:
                return ColinearityVerdict(kind="none", reason="ratios are inconsistent")
    odd = [(r, n) for r, n in active if n % 2 == 1]
    if odd:
        signs = {r > 0 for r, _ in odd}
        if len(signs) > 1:
            return ColinearityVerdict(kind="none", reason="odd-power signs conflict")
        even_bad = any(r < 0 for r, n in active if n % 2 == 0)
        if even_bad:
            return ColinearityVerdict(kind="none",
                                      reason="negative even-power ratio with odd data")
        r, n = odd[0]
        witness = _nth_root(r, n)
        return ColinearityVerdict(kind="real", C=witness,
                                  reason="determined by an odd power"
                                  + ("" if witness is not None else " (irrational C)"))
    # only even powers active: C^2 is pinned down (up to sign when only I4)
    by_power = {n: r for r, n in active}
    if any(by_power.get(n, Fraction(1)) < 0 for n in (4,)):
        return ColinearityVerdict(kind="none", reason="negative fourth-power ratio")
    if 2 in by_power:
        c2 = by_power[2]
    elif 6 in by_power:
        c2 = _nth_root(by_power[6], 3)
        if c2 is None:
            kind = "real" if by_power[6] > 0 else "complex"
            return ColinearityVerdict(kind=kind, reason="irrational C^2 from sixth power")
    else:
        c2 = _nth_root(by_power[4], 2)
        if c2 is None:
            return ColinearityVerdict(kind="real",
                                      reason="C^2 determined only up to sign (irrational)")
    for r, n in active:
        if c2 ** (n // 2) != r:
            return ColinearityVerdict(kind="none", reason="ratios are inconsistent")
    if c2 < 0:
        return ColinearityVerdict(kind="complex", C_squared=c2,
                                  reason="forced C^2 is negative")
    root = _nth_root(c2, 2)
    return ColinearityVerdict(kind="real", C=root, C_squared=c2,
                              reason="determined up to sign by even powers")


def _special_matrix(rng):
    """A matrix from a family that random draws rarely reach: nilpotent or
    zero, spectrum 0 and +-sqrt(pq) (a boost or a rotation), the cube roots
    of d, a multiple of a class-4 or class-5 generator, or a companion
    matrix whose characteristic polynomial has coefficients in {-1, 0, 1},
    so that two of them often have ratios of equal size and clashing sign."""
    c = Fraction(rng.choice((-3, -2, -1, 1, 2, 3, 5)), rng.randint(1, 4))
    unit = [rng.choice((-1, 0, 1)) for _ in range(3)]
    return rng.choice((
        Mat3.zero(), Mat3([[0, 1, 0], [0, 0, 0], [0, 0, 0]]),
        Mat3([[0, 1, 0], [0, 0, 1], [0, 0, 0]]),
        Mat3([[0, c, 0], [rng.choice((-3, -2, -1, 1, 2, 3)), 0, 0], [0, 0, 0]]),
        Mat3([[0, 0, c], [1, 0, 0], [0, 1, 0]]),
        Mat3([[0, 0, unit[0]], [1, 0, unit[1]], [0, 1, unit[2]]]),
        Mat3.diag(0, c, -2 * c), Mat3.diag(0, c, -c)))


def test_colinearity_matches_the_seven_ratio_oracle():
    """On series of matrices, deciding on c_1..c_3 gives the verdict of the
    seven ratios: the same kind, C and C_squared, and the same reason
    wherever a real or an imaginary C exists."""
    rng = random.Random(2024)
    # unimodular frames keep a conjugate integral: P A P^-1 with P^-1 integral
    frames = []
    while len(frames) < 12:
        P = random_invertible(rng)
        if abs(P.det()) == 1:
            frames.append((P, P.inverse()))
    groups = []
    for _ in range(700):
        draw = rng.choice((random_matrix, rational_matrix, _special_matrix))
        A = draw(rng)
        P, P_inv = rng.choice(frames)
        i, j = rng.randrange(3), rng.randrange(3)
        rows = [list(row) for row in A.rows]
        rows[i][j] += rng.choice((-2, -1, 1, 2))
        scale = Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 5)), rng.randint(1, 3))
        groups.append([invariants(M) for M in
                       (A, (P @ A @ P_inv).scale(scale), Mat3(rows))])
    boost, rotation = Mat3.diag(0, 1, -1), Mat3([[0, -1, 0], [1, 0, 0], [0, 0, 0]])
    special = [  # nilpotent, boost vs rotation, C = sqrt 3 and C = cbrt 2
        (Mat3([[0, 1, 0], [0, 0, 0], [0, 0, 0]]), Mat3([[0, 1, 0], [0, 0, 1], [0, 0, 0]])),
        (Mat3([[0, 1, 0], [0, 0, 1], [0, 0, 0]]), boost),
        (boost, rotation), (rotation, boost),
        (Mat3([[0, 3, 0], [1, 0, 0], [0, 0, 0]]), boost),
        (Mat3([[0, 0, 2], [1, 0, 0], [0, 1, 0]]), Mat3([[0, 0, 1], [1, 0, 0], [0, 1, 0]]))]
    pairs = [(invariants(A), invariants(B)) for A, B in special]
    pairs += [(g[0], s) for g in groups for s in g[1:]]
    pairs += [(s, g[0]) for g in groups for s in g[1:]]
    pool = [s for g in groups for s in g]
    pairs += [(rng.choice(pool), rng.choice(pool)) for _ in range(10_000 - len(pairs))]
    kinds = Counter()
    for s1, s2 in pairs:
        new, old = colinearity(s1, s2), _colinearity_reference(s1, s2)
        assert (new.kind, new.C, new.C_squared) == (old.kind, old.C, old.C_squared), \
            (s1, s2, new, old)
        if old.kind != "none":
            assert new.reason == old.reason, (s1, s2, new, old)
        kinds[old.reason] += 1
    assert len(pairs) == 10_000
    # every reason a real or an imaginary C can give is reached
    assert {"all invariants vanish", "determined by an odd power",
            "determined by an odd power (irrational C)",
            "determined up to sign by even powers", "forced C^2 is negative"} <= set(kinds)


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
