"""Tensor core: components, evaluation, pullback, radical, affine type."""

import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from cubicsym import CubicForm, Mat3, SingularTransformError, form_of, \
    symmetrized_monomial, tau0_upper_bound
from cubicsym.forms import COMPONENT_NAMES, SORTED_TRIPLES, TRIPLE_TO_NAME, \
    _canonical_columns, _int_components, parse_scalar
from cubicsym.properties import random_form, random_invertible, random_vec


def evaluate_oracle(form, v):
    # independent full 27-term contraction
    total = Fraction(0)
    for a, b, c in product((1, 2, 3), repeat=3):
        total += form.component(a, b, c) * v[a - 1] * v[b - 1] * v[c - 1]
    return total


def test_component_examples():
    assert form_of(F=1).component(3, 2, 1) == 1
    assert all(form_of().component(*idx) == 0
               for idx in product((1, 2, 3), repeat=3))
    assert form_of(B1=1).component(2, 1, 2) == 1


def test_component_permutation_invariance():
    rng = random.Random(7)
    for _ in range(50):
        g = random_form(rng)
        a, b, c = (rng.randint(1, 3) for _ in range(3))
        vals = {g.component(*p) for p in permutations((a, b, c))}
        assert len(vals) == 1


def test_component_out_of_range():
    with pytest.raises(IndexError):
        form_of(F=1).component(0, 1, 2)
    with pytest.raises(IndexError):
        form_of(F=1).component(1, 2, 4)


def test_evaluate_examples():
    assert form_of(F=1).evaluate((1, 1, 1)) == 6
    assert form_of(A1=1, A2=1, A3=1).evaluate((1, 2, 3)) == 36
    assert form_of(B1=1).evaluate((1, 1, 1)) == 3


def test_evaluate_matches_full_contraction():
    rng = random.Random(11)
    for _ in range(100):
        g = random_form(rng)
        v = random_vec(rng)
        assert g.evaluate(v) == evaluate_oracle(g, v)


def test_symmetrized_monomial():
    assert symmetrized_monomial(1, 2, 3) == form_of(F=1)
    assert symmetrized_monomial(2, 2, 1) == form_of(B1=1)
    assert symmetrized_monomial(1, 1, 1) == form_of(A1=1)
    for triple, name in TRIPLE_TO_NAME.items():
        for p in permutations(triple):
            g = symmetrized_monomial(*p)
            assert getattr(g, name) == 1
            assert g.affine_type() == 1


def test_pullback_identity_and_permutation():
    rng = random.Random(13)
    g = random_form(rng)
    assert g.pullback(Mat3.identity()) == g
    bm = form_of(F=1)
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
        form_of(F=1).pullback(Mat3.zero())


def test_pullback_factors_the_special_symmetric_cubic():
    # x^3+y^3+z^3-3xyz = (plane) * (rank-2 quadric); the integer frame below
    # diagonalizes it to a two-component rotation-type normal form
    g = form_of(A1=1, A2=1, A3=1, F=Fraction(-1, 2))
    T = Mat3([[1, 1, 1], [1, -1, 1], [1, 0, -2]])
    pulled = g.pullback(T)
    assert pulled == form_of(B1=3, B2=9)
    assert pulled.affine_type() == 2


def test_radical_examples():
    assert form_of(B1=1).radical() == [(0, 0, 1)]
    assert form_of(A1=1).radical() == [(0, 1, 0), (0, 0, 1)]
    assert form_of(F=1).radical() == []


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
    assert form_of(F=1).affine_type() == 1
    assert form_of().affine_type() == 0
    assert form_of(A1=1, A2=1, A3=1, F=1).affine_type() == 4


def test_tau0_trivial_cases():
    bound, witness = tau0_upper_bound(form_of(F=1), 1)
    assert bound == 1 and witness == Mat3.identity()
    bound, witness = tau0_upper_bound(form_of(), 1)
    assert bound == 0 and witness == Mat3.identity()


def test_tau0_reaches_the_true_type_of_the_factorable_cubic():
    # the F=-1/2 symmetric cubic has exact affine type 2 (one real plane and
    # an irreducible definite quadric factor rule out a single component)
    g = form_of(A1=1, A2=1, A3=1, F=Fraction(-1, 2))
    bound1, _ = tau0_upper_bound(g, 1)
    bound2, witness = tau0_upper_bound(g, 2)
    assert bound2 == 2
    assert bound2 <= bound1
    assert g.pullback(witness).affine_type() == 2


def test_tau0_monotone_and_witnessed():
    rng = random.Random(23)
    for _ in range(5):
        g = random_form(rng)
        b1, w1 = tau0_upper_bound(g, 1)
        assert b1 <= g.affine_type()
        assert g.pullback(w1).affine_type() == b1


def test_tau0_rejects_bad_radius():
    with pytest.raises(ValueError):
        tau0_upper_bound(form_of(F=1), 0)


def tau0_brute_force(form, radius):
    # reference search: every column triple in enumeration order, all ten
    # components by polarization, the first strict improvement wins
    best = form.affine_type()
    witness = Mat3.identity()
    floor = 0 if best == 0 else 1
    if best == floor:
        return best, witness
    nz = [(t, c) for t, c in _int_components(form).items() if c != 0]
    cols = _canonical_columns(radius)
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
    forms = [form_of(**{n: rng.choice((-1, 1)) for n in rng.sample(COMPONENT_NAMES, t)})
             for t in range(2, 11)]
    forms.append(form_of(A1=1, A2=1, A3=1, F=Fraction(-1, 2)))
    for g in forms:
        assert tau0_upper_bound(g, 2) == tau0_brute_force(g, 2)


def test_json_round_trip():
    rng = random.Random(29)
    for _ in range(30):
        g = random_form(rng)
        assert CubicForm.from_json(g.to_json()) == g
    g = CubicForm.from_json({"A1": 2, "F": "-1/2"})
    assert g.A1 == 2 and g.F == Fraction(-1, 2)
    assert CubicForm.from_json({}) == form_of()


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


def test_mat3_inverse_and_det():
    rng = random.Random(37)
    for _ in range(30):
        T = random_invertible(rng)
        assert T @ T.inverse() == Mat3.identity()
        assert T.inverse() @ T == Mat3.identity()
    with pytest.raises(SingularTransformError):
        Mat3.zero().inverse()
