"""Tensor core: components, evaluation, pullback, radical, affine type."""

import operator
import random
from fractions import Fraction
from itertools import permutations, product
from math import gcd, lcm

import pytest

from cubicsym import CubicForm, Mat3, SingularTransformError, tau0_upper_bound
from cubicsym.catalog import ENTRIES
from cubicsym.forms import COMPONENT_NAMES, SORTED_TRIPLES, TRIPLE_TO_NAME, _SORTED_NAMES, \
    _frame_tables, _int_tensor, _pair_tables, _zero_pattern, parse_scalar
from cubicsym.linalg import scale_to_integers
from cubicsym.properties import random_form, random_invertible, random_vec


def evaluate_oracle(form, v):
    # independent full 27-term contraction
    total = Fraction(0)
    for a, b, c in product((1, 2, 3), repeat=3):
        total += form.component(a, b, c) * v[a - 1] * v[b - 1] * v[c - 1]
    return total


def test_component_convention():
    # the stored order A1..F, the lexicographic rows of the Killing system,
    # and the names in row order; the kernel basis does not depend on the
    # row order, so no digest would notice a reordered SORTED_TRIPLES
    assert COMPONENT_NAMES == ("A1", "A2", "A3", "B1", "B2", "B3", "C1", "C2", "C3", "F")
    assert SORTED_TRIPLES == ((1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 2), (1, 2, 3),
                              (1, 3, 3), (2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 3, 3))
    assert _SORTED_NAMES == ("A1", "C1", "C2", "B1", "F", "B2", "A2", "C3", "B3", "A3")
    assert all(TRIPLE_TO_NAME[t] == name for t, name in zip(SORTED_TRIPLES, _SORTED_NAMES))


def test_component_examples():
    assert CubicForm(F=1).component(3, 2, 1) == 1
    assert all(CubicForm().component(*idx) == 0
               for idx in product((1, 2, 3), repeat=3))
    assert CubicForm(B1=1).component(2, 1, 2) == 1


def test_component_permutation_invariance():
    rng = random.Random(7)
    for _ in range(50):
        g = random_form(rng)
        a, b, c = (rng.randint(1, 3) for _ in range(3))
        vals = {g.component(*p) for p in permutations((a, b, c))}
        assert len(vals) == 1


def test_component_out_of_range():
    with pytest.raises(IndexError):
        CubicForm(F=1).component(0, 1, 2)
    with pytest.raises(IndexError):
        CubicForm(F=1).component(1, 2, 4)


@pytest.mark.parametrize("index", [True, False, 1.0, 0, 4, "1"])
def test_component_refuses_an_index_that_is_not_an_int_in_range(index):
    g = CubicForm(A1=1, F=2)
    for indices in ((index, 2, 3), (1, index, 3), (1, 2, index)):
        with pytest.raises(IndexError, match="out of range 1..3"):
            g.component(*indices)


def test_evaluate_examples():
    assert CubicForm(F=1).evaluate((1, 1, 1)) == 6
    assert CubicForm(A1=1, A2=1, A3=1).evaluate((1, 2, 3)) == 36
    assert CubicForm(B1=1).evaluate((1, 1, 1)) == 3


def test_evaluate_matches_full_contraction():
    rng = random.Random(11)
    for _ in range(100):
        g = random_form(rng)
        v = random_vec(rng)
        assert g.evaluate(v) == evaluate_oracle(g, v)


def symmetrized_monomial(i, j, k):
    """The form whose only stored component is 1 at the sorted index (i,j,k)."""
    return CubicForm(**{TRIPLE_TO_NAME[tuple(sorted((i, j, k)))]: 1})


def test_symmetrized_monomial():
    assert symmetrized_monomial(1, 2, 3) == CubicForm(F=1)
    assert symmetrized_monomial(2, 2, 1) == CubicForm(B1=1)
    assert symmetrized_monomial(1, 1, 1) == CubicForm(A1=1)
    for triple, name in TRIPLE_TO_NAME.items():
        for p in permutations(triple):
            g = symmetrized_monomial(*p)
            assert getattr(g, name) == 1 and g.component(*p) == 1
            assert g.affine_type() == 1


def test_pullback_identity_and_permutation():
    rng = random.Random(13)
    g = random_form(rng)
    assert g.pullback(Mat3.identity()) == g
    bm = CubicForm(F=1)
    for perm in permutations(range(3)):
        P = Mat3([[1 if j == perm[i] else 0 for j in range(3)] for i in range(3)])
        assert bm.pullback(P) == bm


def test_pullback_composes_contravariantly():
    rng = random.Random(17)
    for _ in range(30):
        g = random_form(rng)
        T1, T2 = random_invertible(rng), random_invertible(rng)
        assert g.pullback(T1).pullback(T2) == g.pullback(T1 @ T2)


def test_pullback_rejects_singular():
    with pytest.raises(SingularTransformError):
        CubicForm(F=1).pullback(Mat3.zero())


def test_pullback_factors_the_special_symmetric_cubic():
    # x^3+y^3+z^3-3xyz = (plane) * (rank-2 quadric); the integer frame below
    # diagonalizes it to a two-component rotation-type normal form
    g = CubicForm(A1=1, A2=1, A3=1, F=Fraction(-1, 2))
    T = Mat3([[1, 1, 1], [1, -1, 1], [1, 0, -2]])
    pulled = g.pullback(T)
    assert pulled == CubicForm(B1=3, B2=9)
    assert pulled.affine_type() == 2


def pullback_oracle(form, T):
    # reference: the 27-term Fraction contraction per sorted component
    if T.det() == 0:
        raise SingularTransformError("pullback requires an invertible transform")
    rows = T.rows
    comps = {}
    for (a, b, c) in SORTED_TRIPLES:
        total = Fraction(0)
        for d, e, f in product(range(1, 4), repeat=3):
            g = form.component(d, e, f)
            if g != 0:
                total += g * rows[d - 1][a - 1] * rows[e - 1][b - 1] * rows[f - 1][c - 1]
        comps[TRIPLE_TO_NAME[(a, b, c)]] = total
    return CubicForm(**comps)


def test_pullback_matches_oracle():
    rng = random.Random(2026)

    def scalar():
        # negative entries, denominators up to 97, and zeros
        if rng.random() < 0.25:
            return Fraction(0)
        return Fraction(rng.randint(-60, 60), rng.randint(1, 97))

    def matrix():
        return Mat3([[scalar() for _ in range(3)] for _ in range(3)])

    def singular():
        r1, r2 = [scalar() for _ in range(3)], [scalar() for _ in range(3)]
        a, b = scalar(), scalar()
        return Mat3([r1, r2, [a * x + b * y for x, y in zip(r1, r2)]])

    forms = [CubicForm(), CubicForm(F=1), CubicForm(A1=Fraction(-1, 97))]
    forms += [CubicForm(**{n: scalar() for n in COMPONENT_NAMES}) for _ in range(60)]
    transforms = [Mat3.identity(), Mat3.zero(), Mat3.diag(-1, Fraction(1, 97), 3)]
    transforms += [matrix() for _ in range(50)] + [singular() for _ in range(10)]
    pairs = [(g, T) for g in forms[:3] for T in transforms]
    pairs += [(rng.choice(forms), rng.choice(transforms)) for _ in range(300)]
    singular_seen = 0
    for g, T in pairs:
        if T.det() == 0:
            singular_seen += 1
            with pytest.raises(SingularTransformError, match="requires an invertible"):
                g.pullback(T)
            with pytest.raises(SingularTransformError, match="requires an invertible"):
                pullback_oracle(g, T)
        else:
            assert g.pullback(T) == pullback_oracle(g, T), (g, T)
    assert singular_seen >= 20 and len(pairs) - singular_seen >= 300


def test_radical_examples():
    assert CubicForm(B1=1).radical() == [(0, 0, 1)]
    assert CubicForm(A1=1).radical() == [(0, 1, 0), (0, 0, 1)]
    assert CubicForm(F=1).radical() == []


def test_radical_is_annihilator():
    # oracle: contract each radical vector into every (beta, gamma) slot
    rng = random.Random(19)
    for _ in range(60):
        g = random_form(rng)
        basis = g.radical()
        for v in basis:
            for b, c in product((1, 2, 3), repeat=2):
                assert sum(v[d - 1] * g.component(d, b, c) for d in (1, 2, 3)) == 0
        # dimension agrees with an independently computed rank
        rows = [[g.component(d, b, c) for d in (1, 2, 3)]
                for b, c in product((1, 2, 3), repeat=2)]
        rk = _rank_by_elimination(rows)
        assert len(basis) == 3 - rk


def _rank_by_elimination(rows):
    m = [list(map(Fraction, r)) for r in rows]
    rank = 0
    for col in range(3):
        piv = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col] / m[rank][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def test_affine_type():
    assert CubicForm(F=1).affine_type() == 1
    assert CubicForm().affine_type() == 0
    assert CubicForm(A1=1, A2=1, A3=1, F=1).affine_type() == 4


def test_tau0_trivial_cases():
    bound, witness = tau0_upper_bound(CubicForm(F=1), 1)
    assert bound == 1 and witness == Mat3.identity()
    bound, witness = tau0_upper_bound(CubicForm(), 1)
    assert bound == 0 and witness == Mat3.identity()


def test_tau0_reaches_the_true_type_of_the_factorable_cubic():
    # the F=-1/2 symmetric cubic has exact affine type 2 (one real plane and
    # an irreducible definite quadric factor rule out a single component)
    g = CubicForm(A1=1, A2=1, A3=1, F=Fraction(-1, 2))
    bound1, _ = tau0_upper_bound(g, 1)
    bound2, witness = tau0_upper_bound(g, 2)
    assert bound2 == 2
    assert bound2 <= bound1
    assert g.pullback(witness).affine_type() == 2


def test_tau0_monotone_and_witnessed():
    # random draws and catalog branches pulled back by rational frames
    rng = random.Random(23)
    forms = [random_form(rng) for _ in range(12)]
    branches = [entry.build(branch.params) for entry in ENTRIES for branch in entry.branches()]
    forms += [g.pullback(random_invertible(rng).inverse()) for g in rng.sample(branches, 10)]
    for g in forms:
        previous = g.affine_type()
        for radius in (1, 2, 3):
            bound, witness = tau0_upper_bound(g, radius)
            assert bound <= previous, (g, radius)
            previous = bound
            assert witness.det() != 0
            assert all(v.denominator == 1 and -radius <= v <= radius for v in witness.flatten())
            assert g.pullback(witness).affine_type() == bound, (g, radius)
            for column in zip(*witness.rows):
                assert gcd(*map(int, column)) == 1
                assert next(v for v in column if v) > 0


def canonical_columns(radius):
    # every nonzero integer 3-vector with entries in [-radius, radius] and
    # first nonzero entry positive, in lexicographic order: the oracles search
    # these, non-primitive columns included
    return [v for v in product(range(-radius, radius + 1), repeat=3)
            if v != (0, 0, 0) and next(x for x in v if x) > 0]


def test_frame_tables_hold_the_primitive_canonical_columns():
    for radius, count in ((1, 13), (2, 49), (3, 145)):
        cols = _frame_tables(radius)[0]
        assert cols == tuple(v for v in canonical_columns(radius) if gcd(*v) == 1)
        assert len(cols) == count


def zero_pattern_oracle(form, radius):
    # G(u, u, v) for every ordered pair of columns, term by term from the
    # integer tensor, as row masks, column masks and the diagonal mask
    tensor, _ = _int_tensor(form)
    cols = _frame_tables(radius)[0]
    n = len(cols)
    zero, zero_t, diag = [0] * n, [0] * n, 0
    for iu, u in enumerate(cols):
        quad = [sum(tensor[d][e][f] * u[d] * u[e] for d in range(3) for e in range(3))
                for f in range(3)]
        for iv, v in enumerate(cols):
            if quad[0] * v[0] + quad[1] * v[1] + quad[2] * v[2] == 0:
                zero[iu] |= 1 << iv
                zero_t[iv] |= 1 << iu
                if iu == iv:
                    diag |= 1 << iu
    return zero, zero_t, diag


def pattern_bound(form, radius):
    # the bound of _zero_pattern on |G(u, u, v)|: radius^3 times the sum of
    # the integer components, each weighted by its number of orderings
    coeffs, _ = scale_to_integers(form.components())
    orbit = [len(set(permutations(t))) for t in SORTED_TRIPLES]
    return radius ** 3 * sum(abs(x) * k for x, k in zip(coeffs, orbit))


def test_zero_pattern_matches_direct_evaluation():
    # box and random draws, catalog branches pulled back to rational frames,
    # 40-digit scalings, and forms scaled to the lowest bound and, negated, to
    # the highest bound whose (2 bound).bit_length() + 1 is 8, 9, 16 or 17
    # bits, on either side of a byte boundary of the field width
    rng = random.Random(25)
    branches = [entry.build(branch.params) for entry in ENTRIES for branch in entry.branches()]
    common = [CubicForm(**{n: rng.choice((-1, 0, 1)) for n in COMPONENT_NAMES}) for _ in range(4)]
    common += [random_form(rng) for _ in range(4)]
    common += [g.pullback(random_invertible(rng)) for g in rng.sample(branches, 4)]
    common += [g.scale(Fraction(10 ** 40, 3)) for g in common[::3]]
    bases = [CubicForm(A1=1), CubicForm(F=1), CubicForm(A2=1, C3=-1), CubicForm(B1=1, F=1),
             CubicForm(A1=2, A2=2, A3=2, F=-1), CubicForm(A1=1, B2=-1, C1=1, F=1)]
    for radius in (1, 2, 3):
        edges = []
        for bits in (8, 9, 16, 17):
            low, high = 1 << (bits - 3), 1 << (bits - 2)     # a bound in [low, high)
            scaled = []
            for g in bases:
                b = pattern_bound(g, radius)
                if b <= low:
                    scaled += [g.scale(-(-low // b)), g.scale(-((high - 1) // b))]
            assert scaled, (radius, bits)
            assert {(2 * pattern_bound(h, radius)).bit_length() + 1 for h in scaled} == {bits}
            edges += scaled
        for g in common + edges:
            coeffs, _ = scale_to_integers(g.components())
            assert _zero_pattern(coeffs, radius) == zero_pattern_oracle(g, radius), (g, radius)


def test_tau0_rejects_bad_radius():
    # True would pass for radius 1 and 2.0 would reach range(); both are refused
    for radius in (0, -1, True, False, 2.0, Fraction(2), "2", None):
        with pytest.raises(ValueError, match="radius must be an int >= 1"):
            tau0_upper_bound(CubicForm(A1=1, F=1), radius)


def tau0_brute_force(form, radius):
    # reference search: every triple of canonical columns, non-primitive ones
    # included, in enumeration order, all ten components by polarization, the
    # first strict improvement wins
    best = form.affine_type()
    witness = Mat3.identity()
    floor = 0 if best == 0 else 1
    if best == floor:
        return best, witness
    comps = form.components()
    m = lcm(*[c.denominator for c in comps])
    nz = [(t, int(c * m)) for t, c in zip(SORTED_TRIPLES, comps) if c != 0]
    cols = canonical_columns(radius)
    ncols = len(cols)
    for ia in range(ncols):
        ca = cols[ia]
        for ib in range(ia + 1, ncols):
            cb = cols[ib]
            for ic in range(ib + 1, ncols):
                cc = cols[ic]
                det = (ca[0] * (cb[1] * cc[2] - cb[2] * cc[1])
                       - cb[0] * (ca[1] * cc[2] - ca[2] * cc[1])
                       + cc[0] * (ca[1] * cb[2] - ca[2] * cb[1]))
                if det == 0:
                    continue
                columns = (ca, cb, cc)
                count = 0
                for (a, b, c) in SORTED_TRIPLES:
                    va, vb, vc = columns[a - 1], columns[b - 1], columns[c - 1]
                    total = 0
                    for (d, e, f), g in nz:
                        s = va[d - 1] * vb[e - 1] * vc[f - 1]
                        if d != e or e != f:
                            s += va[d - 1] * vb[f - 1] * vc[e - 1]
                            s += va[e - 1] * vb[d - 1] * vc[f - 1]
                            s += va[e - 1] * vb[f - 1] * vc[d - 1]
                            s += va[f - 1] * vb[d - 1] * vc[e - 1]
                            s += va[f - 1] * vb[e - 1] * vc[d - 1]
                            if d == e or e == f:
                                s //= 2
                        total += g * s
                    if total != 0:
                        count += 1
                        if count >= best:
                            break
                if count < best:
                    best = count
                    witness = Mat3(tuple(zip(*columns)))
                    if best == floor:
                        return best, witness
    return best, witness


def test_tau0_matches_brute_force_at_radius_1():
    rng = random.Random(41)
    for _ in range(40):
        g = random_form(rng)
        assert tau0_upper_bound(g, 1) == tau0_brute_force(g, 1)


def test_tau0_matches_brute_force_at_radius_2():
    rng = random.Random(0)
    forms = [CubicForm(**{n: rng.choice((-1, 1)) for n in rng.sample(COMPONENT_NAMES, t)})
             for t in range(2, 11)]
    forms.append(CubicForm(A1=1, A2=1, A3=1, F=Fraction(-1, 2)))
    for g in forms:
        assert tau0_upper_bound(g, 2) == tau0_brute_force(g, 2)


def tau0_table_oracle(form, radius):
    # reference search: the table-driven loop over the canonical columns,
    # non-primitive ones included, testing every column pair and every third
    # column against lookup tables of G(u, u, v) != 0
    best = form.affine_type()
    witness = Mat3.identity()
    floor = 0 if best == 0 else 1
    if best == floor:
        return best, witness
    tensor, _ = _int_tensor(form)
    cols = canonical_columns(radius)
    ncols = len(cols)
    slices = [[[u[0] * tensor[0][e][f] + u[1] * tensor[1][e][f] + u[2] * tensor[2][e][f]
                for f in range(3)] for e in range(3)] for u in cols]
    quad = [[u[0] * m[0][f] + u[1] * m[1][f] + u[2] * m[2][f] for f in range(3)]
            for u, m in zip(cols, slices)]
    nz = [[int(q[0] * v[0] + q[1] * v[1] + q[2] * v[2] != 0) for v in cols] for q in quad]
    nzt = [list(row) for row in zip(*nz)]
    diag = [nz[i][i] for i in range(ncols)]
    for ia in range(ncols):
        ca, ma, nza, nzta = cols[ia], slices[ia], nz[ia], nzt[ia]
        count_a = diag[ia]
        for ib in range(ia + 1, ncols):
            count_ab = count_a + diag[ib] + nza[ib] + nzta[ib]
            if count_ab >= best:
                continue
            cb, nzb, nztb = cols[ib], nz[ib], nzt[ib]
            f0, f1, f2 = (ma[0][f] * cb[0] + ma[1][f] * cb[1] + ma[2][f] * cb[2]
                          for f in range(3))
            x0 = ca[1] * cb[2] - ca[2] * cb[1]
            x1 = ca[2] * cb[0] - ca[0] * cb[2]
            x2 = ca[0] * cb[1] - ca[1] * cb[0]
            for ic in range(ib + 1, ncols):
                count = count_ab + diag[ic] + nza[ic] + nzta[ic] + nzb[ic] + nztb[ic]
                if count >= best:
                    continue
                cc = cols[ic]
                if f0 * cc[0] + f1 * cc[1] + f2 * cc[2] != 0:
                    count += 1
                    if count >= best:
                        continue
                if x0 * cc[0] + x1 * cc[1] + x2 * cc[2] == 0:
                    continue
                best = count
                witness = Mat3(tuple(zip(ca, cb, cc)))
                if best == floor:
                    return best, witness
                if count_ab >= best:
                    break
    return best, witness


def test_tau0_matches_table_oracle():
    # every audited catalog branch, each pulled back to a seeded random frame,
    # box and random draws, a few with 40-digit coefficients, and the zero form
    rng = random.Random(43)
    branches = [entry.build(branch.params) for entry in ENTRIES for branch in entry.branches()]
    forms = branches + [g.pullback(random_invertible(rng)) for g in branches]
    forms += [CubicForm(**{n: rng.choice((-1, 0, 1)) for n in COMPONENT_NAMES})
              for _ in range(50)]
    forms += [random_form(rng) for _ in range(50)]
    forms += [g.scale(Fraction(10 ** 40, 3)) for g in forms[-5:]]
    forms.append(CubicForm())
    assert len(branches) == 77 and len(forms) >= 250
    for g in forms:
        for radius in (1, 2):
            assert tau0_upper_bound(g, radius) == tau0_table_oracle(g, radius), (g, radius)
    # the benchmark's frame-search mix: one box form of each affine type 2..10,
    # each in seeded signed-permutation frames; types 6 and 8-10 keep the bound
    # at 5, where most second columns have no third column
    box_rng = random.Random(0)
    box = [CubicForm(**{n: box_rng.choice((-1, 1)) for n in box_rng.sample(COMPONENT_NAMES, t)})
           for t in range(2, 11)]
    for g in box:
        for _ in range(5):
            perm, signs = rng.sample(range(3), 3), [rng.choice((-1, 1)) for _ in range(3)]
            T = Mat3([[signs[j] if perm[j] == i else 0 for j in range(3)] for i in range(3)])
            h = g.pullback(T)
            assert tau0_upper_bound(h, 2) == tau0_table_oracle(h, 2), h
    # the tables of one radius are never used for another: this form has
    # bound 3 at radius 1 and 2 at radius 2
    g = CubicForm(A1=1, A2=1, A3=1, F=Fraction(-1, 2))
    for radius in (2, 1, 2):
        assert tau0_upper_bound(g, radius) == tau0_table_oracle(g, radius), radius
    # radius 3 (145 columns): the same mix
    for g in box:
        assert tau0_upper_bound(g, 3) == tau0_table_oracle(g, 3), g
    # at each radius a form alternating with one of 20-digit coprime
    # components, so that pairs packed for one field width never serve
    # another; a scalar multiple of the form shares its tables
    g = box[-1]
    wide = CubicForm(**{n: getattr(g, n) * (10 ** 20 + i) for i, n in enumerate(COMPONENT_NAMES)})
    for radius in (1, 2, 3):
        expected, expected_wide = tau0_table_oracle(g, radius), tau0_table_oracle(wide, radius)
        _pair_tables.cache_clear()
        for h in (g, g.scale(Fraction(10 ** 40, 3)), wide, g):
            assert tau0_upper_bound(h, radius) == (expected_wide if h is wide else expected), (h, radius)
        assert _pair_tables.cache_info().misses == 2, radius


def test_json_round_trip():
    rng = random.Random(29)
    for _ in range(30):
        g = random_form(rng)
        assert CubicForm.from_json(g.to_json()) == g
    g = CubicForm.from_json({"A1": 2, "F": "-1/2"})
    assert g.A1 == 2 and g.F == Fraction(-1, 2)
    assert CubicForm.from_json({}) == CubicForm()


def test_json_rejects_unknown_key():
    with pytest.raises(ValueError, match="A7"):
        CubicForm.from_json({"A7": 1})
    with pytest.raises(ValueError, match="B1"):
        CubicForm.from_json({"B1": "not-a-number"})


def test_json_rejects_booleans():
    with pytest.raises(TypeError):
        parse_scalar(True)
    with pytest.raises(ValueError, match="F"):
        CubicForm.from_json({"F": True})


# a float would be stored as its binary expansion, 0.1 as 3602879701896397/2^55,
# and a bool as 0 or 1; the constructors refuse both, as parse_scalar does
INEXACT = (0.1, 2.0, True, False)


def test_cubic_form_refuses_floats_and_bools():
    for bad in INEXACT:
        with pytest.raises(TypeError):
            CubicForm(F=bad)
        with pytest.raises(TypeError):
            CubicForm(A1=1, C3=bad)
    assert CubicForm(F=Fraction(1, 10), A1=2, B1="3/4") == CubicForm(F="1/10", A1=2, B1="3/4")


def test_cubic_form_scale_refuses_floats_and_bools():
    g = CubicForm(A1=1, F=2)
    for bad in INEXACT:
        with pytest.raises(TypeError):
            g.scale(bad)
    assert g.scale("1/2") == g.scale(Fraction(1, 2)) == CubicForm(A1="1/2", F=1)


def test_mat3_refuses_floats_and_bools():
    for bad in INEXACT:
        with pytest.raises(TypeError):
            Mat3([[1, 0, 0], [0, bad, 0], [0, 0, 1]])
        with pytest.raises(TypeError):
            Mat3.diag(1, 1, bad)
    assert Mat3.diag(1, "1/2", Fraction(3)) == Mat3([[1, 0, 0], [0, Fraction(1, 2), 0], [0, 0, 3]])


def test_mat3_needs_a_3x3_array():
    for bad in ([[1, 2], [3, 4]], [[1, 0, 0], [0, 1, 0]], [[1, 0, 0], [0, 1, 0], [0, 0, 1, 0]]):
        with pytest.raises(ValueError, match="3x3"):
            Mat3(bad)


def test_mat3_from_flat_takes_exactly_nine_entries():
    assert Mat3.from_flat(list(range(9))) == Mat3([[0, 1, 2], [3, 4, 5], [6, 7, 8]])
    assert Mat3.from_flat(tuple(range(9))) == Mat3.from_flat(list(range(9)))
    for n in (0, 1, 6, 8, 10, 12, 18):
        with pytest.raises(ValueError, match="3x3"):
            Mat3.from_flat(list(range(n)))


def test_mat3_scale_refuses_floats_and_bools():
    for bad in INEXACT:
        with pytest.raises(TypeError):
            Mat3.identity().scale(bad)
    assert Mat3.identity().scale(-2) == Mat3.diag(-2, -2, -2)


def test_scalar_grammar_does_not_depend_on_the_python_release():
    # Fraction alone accepts "1_000" from 3.11 and "1 / 2" from 3.12 on
    accepted = {"7": 7, " -3/4 ": Fraction(-3, 4), "+0.25": Fraction(1, 4), "2.": 2,
                ".5": Fraction(1, 2), "-0": 0, "06/08": Fraction(3, 4)}
    for text, value in accepted.items():
        assert parse_scalar(text) == value, text
    for text in ("1_000", "1 / 2", "1/ 2", "1e5", "1E5", "2.5e-3", "\u0663", "1/\u0663",
                 "", " ", "/2", "1/-2", "1/+2", "--1", "1.5/2", "1/2.5", "0x10", "inf",
                 "nan", "."):
        with pytest.raises(ValueError):
            parse_scalar(text)


def test_zero_denominator_is_a_value_error():
    for text in ("1/0", "-3/00"):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_scalar(text)
    with pytest.raises(ValueError):
        Mat3.from_json([[1, 0, 0], [0, "1/0", 0], [0, 0, 1]])
    with pytest.raises(ValueError, match="F"):
        CubicForm.from_json({"F": "1/0"})


def test_mat3_json_checks_row_shape():
    assert Mat3.from_json([[1, 0, 0], [0, 1, 0], [0, 0, "1/2"]]) == Mat3.diag(1, 1, Fraction(1, 2))
    for bad in ([1, 2, 3], [[1, 0, 0], [0, 1], [0, 0, 1]], [[1, 0, 0], [0, 1, 0], "001"],
                [[1, 0, 0], [0, 1, 0], [0, 0, None]], [[True, 0, 0], [0, 1, 0], [0, 0, 1]]):
        with pytest.raises(ValueError):
            Mat3.from_json(bad)


def test_scaling_and_addition_are_componentwise():
    rng = random.Random(31)
    g, h = random_form(rng), random_form(rng)
    s = g + h
    for name in COMPONENT_NAMES:
        assert getattr(s, name) == getattr(g, name) + getattr(h, name)
    d = g.scale(Fraction(-3, 2))
    for name in COMPONENT_NAMES:
        assert getattr(d, name) == Fraction(-3, 2) * getattr(g, name)


def test_operators_refuse_a_foreign_operand():
    A, g = Mat3.identity(), CubicForm(F=1)
    for op, value, other in ((operator.add, A, g), (operator.sub, A, g),
                             (operator.matmul, A, g), (operator.add, g, A)):
        for foreign in (1, other):
            with pytest.raises(TypeError):
                op(value, foreign)
            with pytest.raises(TypeError):
                op(foreign, value)


def test_mat3_inverse_and_det():
    rng = random.Random(37)
    for _ in range(30):
        T = random_invertible(rng)
        assert T @ T.inverse() == Mat3.identity()
        assert T.inverse() @ T == Mat3.identity()
    with pytest.raises(SingularTransformError):
        Mat3.zero().inverse()


def _rational_matrix(rng):
    """Entries p/q with |p| <= 9 and q up to 7."""
    return Mat3([[Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(3)]
                 for _ in range(3)])


def _leibniz_det(T):
    """The six-term sum over permutations, independent of the cross product."""
    total = 0
    for p in permutations(range(3)):
        inversions = sum(p[i] > p[j] for i in range(3) for j in range(i + 1, 3))
        total += (-1) ** inversions * T[0, p[0]] * T[1, p[1]] * T[2, p[2]]
    return total


def test_mat3_det_matches_leibniz():
    rng = random.Random(41)
    mats = [random_invertible(rng) for _ in range(100)]
    mats += [_rational_matrix(rng) for _ in range(300)]
    for T in mats:
        assert T.det() == _leibniz_det(T), T


def test_mat3_inverse_of_rational_matrices():
    rng = random.Random(43)
    checked = 0
    while checked < 300:
        T = _rational_matrix(rng)
        if T.det() == 0:
            continue
        assert T @ T.inverse() == Mat3.identity(), T
        assert T.inverse() @ T == Mat3.identity(), T
        checked += 1


def test_mat3_inverse_refuses_singular_rational_matrices():
    rng = random.Random(47)
    for _ in range(50):
        T = _rational_matrix(rng)
        a, b = (Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(2))
        # the third row a combination of the first two, in each row position
        rows = list(T.rows)
        rows[2] = tuple(a * x + b * y for x, y in zip(rows[0], rows[1]))
        for k in range(3):
            S = Mat3(rows[k:] + rows[:k])
            assert S.det() == 0
            with pytest.raises(SingularTransformError):
                S.inverse()
