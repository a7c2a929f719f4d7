"""Integer elimination and integer trace powers against Fraction oracles.

`rref` eliminates over ints and returns int rows, each a multiple of its
reduced echelon row; the reduced row echelon form is unique, so each row
over its pivot must agree exactly with the plain Fraction Gauss-Jordan loop
kept here as the oracle.  `nullspace`, `in_span` and `span_equal` stop after
the forward pass when the rank answers them, so their oracle answers are
built here from the oracle's (rows, pivots).
"""

import random
from fractions import Fraction

from cubicsym import CubicForm, Mat3, build_system, invariants
from cubicsym.catalog import ENTRIES
from cubicsym.forms import COMPONENT_NAMES
from cubicsym.linalg import in_span, nullspace, rref, span_equal


def rref_fraction_oracle(matrix):
    """Gauss-Jordan elimination entirely in Fraction (the former `rref`)."""
    rows = [list(map(Fraction, row)) for row in matrix]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _entry(rng, max_den):
    if rng.random() < 0.4:
        return 0
    num = rng.randint(-30, 30)
    return num if rng.random() < 0.3 else Fraction(num, rng.randint(1, max_den))


def _matrix(rng, nrows, ncols, max_den=97):
    """Random rational matrix of low rank now and then, with repeated,
    scaled and zero rows mixed in."""
    rows = [[_entry(rng, max_den) for _ in range(ncols)] for _ in range(nrows)]
    for i in range(1, nrows):
        roll = rng.random()
        if roll < 0.15:
            rows[i] = list(rows[rng.randrange(i)])
        elif roll < 0.3:
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 7))
            rows[i] = [c * v for v in rows[rng.randrange(i)]]
        elif roll < 0.35:
            rows[i] = [0] * ncols
    return rows


def _killing_rows(form):
    return [list(row) for row in build_system(form).matrix]


def _full_rank_box_systems(count):
    """Killing systems of rank 9 of seeded forms from the {-1,0,1}^10 box."""
    rng = random.Random(20261019)
    systems = []
    while len(systems) < count:
        form = CubicForm(**{name: rng.choice((-1, 0, 1)) for name in COMPONENT_NAMES})
        rows = _killing_rows(form)
        if len(rref_fraction_oracle(rows)[1]) == 9:
            systems.append(rows)
    return systems


def _cases():
    rng = random.Random(20261018)
    cases = [[], [[0] * 5], [[0] * 4] * 3, [[]], [[Fraction(3, 97)] * 6] * 4]
    for shape in [(10, 9), (6, 3), (9, 10), (1, 7), (7, 1), (4, 4)]:
        cases.extend(_matrix(rng, *shape) for _ in range(25))
    cases.extend(_matrix(rng, rng.randint(1, 11), rng.randint(1, 11))
                 for _ in range(100))
    cases.extend(_full_rank_box_systems(30))
    cases.extend(_killing_rows(entry.build(branch.params))
                 for entry in ENTRIES for branch in entry.branches())
    return cases


CASES = _cases()


def _mat_vec(matrix, vec):
    return [sum(Fraction(a) * b for a, b in zip(row, vec)) for row in matrix]


def test_rref_matches_fraction_oracle():
    for matrix in CASES:
        before = [list(row) for row in matrix]
        rows, pivots = rref(matrix)
        assert matrix == before
        oracle_rows, oracle_pivots = rref_fraction_oracle(matrix)
        assert pivots == oracle_pivots and len(rows) == len(pivots), matrix
        assert all(type(v) is int for row in rows for v in row)
        reduced = [[Fraction(v, row[p]) for v in row] for row, p in zip(rows, pivots)]
        assert reduced == oracle_rows[:len(oracle_pivots)], matrix


def oracle_nullspace(matrix, ncols):
    """Kernel basis read off the oracle's reduced rows: a 1 in each free
    column, the negated reduced entries in the pivot columns."""
    rows, pivots = rref_fraction_oracle(matrix)
    basis = []
    for free in range(ncols):
        if free not in pivots:
            vec = [Fraction(0)] * ncols
            vec[free] = Fraction(1)
            for row, p in zip(rows, pivots):
                vec[p] = -row[free]
            basis.append(vec)
    return basis


def oracle_span(vectors, target):
    """(coordinates or None, membership) from the oracle's reduction of the
    matrix whose columns are the vectors, then the target."""
    n = len(vectors)
    rows, pivots = rref_fraction_oracle(
        [[v[i] for v in vectors] + [target[i]] for i in range(len(target))])
    if n in pivots:
        return None, False
    coords = [Fraction(0)] * n
    for row, p in zip(rows, pivots):
        coords[p] = row[n]
    return coords, True


def test_derived_calls_match_the_oracle():
    full_rank = sparse = 0
    for matrix in CASES:
        if not matrix or not matrix[0]:
            continue
        before = [list(row) for row in matrix]
        ncols = len(matrix[0])
        pivots = rref_fraction_oracle(matrix)[1]
        full_rank += len(pivots) == ncols
        kernel = nullspace(matrix)
        assert kernel == oracle_nullspace(matrix, ncols), matrix
        assert len(kernel) == ncols - len(pivots)
        # nullspace makes a Fraction only for a nonzero entry; every other
        # entry must be one too, not an int equal to it
        assert all(type(v) is Fraction for vec in kernel for v in vec)
        sparse += any(vec[p] == 0 for vec in kernel for p in pivots)
        for vec in kernel:
            assert not any(_mat_vec(matrix, vec))
        vectors, target = matrix[:-1], matrix[-1]
        coords, member = oracle_span(vectors, target)
        assert in_span(vectors, target) is member, matrix
        if coords is not None:
            combo = [sum(c * Fraction(row[i]) for c, row in zip(coords, matrix))
                     for i in range(ncols)]
            assert combo == list(map(Fraction, target))
        # the sum of the columns lies in their span
        columns = [list(col) for col in zip(*matrix)]
        assert in_span(columns, [sum(row) for row in matrix]) is True
        assert matrix == before
    assert full_rank >= 30 and sparse >= 100


def oracle_span_equal(vectors_a, vectors_b):
    """Whether the nonzero rows of the oracle's reductions agree."""
    def basis(vectors):
        return [row for row in rref_fraction_oracle(vectors)[0] if any(row)]
    return basis(vectors_a) == basis(vectors_b)


def _recombined(rng, matrix):
    """Row i of the matrix times a nonzero rational plus rational multiples
    of the rows after it, an invertible recombination, with a row repeated
    and a zero row added, shuffled: the same span."""
    ncols = len(matrix[0])
    out = []
    for i in range(len(matrix)):
        coeffs = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))]
        coeffs += [_entry(rng, 9) for _ in matrix[i + 1:]]
        out.append([sum(c * Fraction(row[k]) for c, row in zip(coeffs, matrix[i:]))
                    for k in range(ncols)])
    out += [list(rng.choice(out)), [0] * ncols]
    rng.shuffle(out)
    return out


def test_span_equal_matches_fraction_oracle():
    # equal spans: recombinations, repeated and zero rows, empty lists;
    # unequal spans: a basis row moved off the span at a free column, which
    # keeps the rank, and a subspace against its superspace
    rng = random.Random(89)
    equal = moved = nested = 0
    for matrix in CASES:
        if not matrix or not matrix[0]:
            continue
        ncols = len(matrix[0])
        rows, pivots = rref_fraction_oracle(matrix)
        basis = rows[:len(pivots)]
        pairs = [(matrix, _recombined(rng, matrix)), ([], [[0] * ncols]), ([], matrix)]
        free = [c for c in range(ncols) if c not in pivots]
        if basis and free:
            shifted = [list(row) for row in basis]
            shifted[rng.randrange(len(basis))][rng.choice(free)] += Fraction(1, rng.randint(1, 97))
            pairs.append((matrix, shifted))
            moved += 1
        if basis:
            pairs.append((basis[:-1], matrix))
            nested += 1
        for a, b in pairs:
            expected = oracle_span_equal(a, b)
            assert span_equal(a, b) is span_equal(b, a) is expected, (a, b)
            equal += expected
    assert equal >= 2 * len(CASES) - 10 and moved >= 100 and nested >= 300, \
        (equal, moved, nested)


def test_in_span_accepts_planted_and_rejects_perturbed_targets():
    # planted combinations of four independent vectors lie in their span; a
    # target moved by a small rational in entry i leaves it unless the unit
    # vector e_i lies in the span, as the Fraction oracle decides
    rng = random.Random(61)
    planted = outside = 0
    for _ in range(30):
        vectors = [[_entry(rng, 97) for _ in range(9)] for _ in range(4)]
        if len(rref(vectors)[1]) < 4:
            continue
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 97)) for _ in range(4)]
        target = [sum(c * v[i] for c, v in zip(coeffs, vectors)) for i in range(9)]
        assert in_span(vectors, target) is True
        planted += 1
        for i in range(9):
            moved = list(target)
            moved[i] += Fraction(1, rng.randint(1, 97))
            member = oracle_span(vectors, moved)[1]
            assert in_span(vectors, moved) is member
            outside += not member
    assert planted >= 20 and outside >= 8 * planted, (planted, outside)


def _rational_matrices(rng, count):
    """Random rational 3x3 matrices with denominators up to 97, among them
    singular ones (a row a combination of the others) and nilpotent ones
    (conjugated strictly triangular matrices)."""
    for n in range(count):
        A = Mat3([[_entry(rng, 97) for _ in range(3)] for _ in range(3)])
        if n % 5 == 1:
            a, b = Fraction(rng.randint(-9, 9), rng.randint(1, 97)), rng.randint(-3, 3)
            rows = A.rows
            A = Mat3([rows[0], rows[1], [a * x + b * y for x, y in zip(rows[0], rows[1])]])
        elif n % 5 == 3:
            N = Mat3([[0, _entry(rng, 97), _entry(rng, 97)], [0, 0, _entry(rng, 97)],
                      [0, 0, 0]])
            T = Mat3([[_entry(rng, 97) for _ in range(3)] for _ in range(3)])
            A = T @ N @ T.inverse() if T.det() else N
        yield A


def test_invariants_match_rational_matrix_powers():
    # invariants reads I3..I6 off the characteristic polynomial; the oracle
    # takes traces of Mat3 powers and Mat3's determinant
    rng = random.Random(71)
    matrices = [Mat3.zero(), Mat3.identity(),
                Mat3.diag(Fraction(1, 2), -3, Fraction(2, 3))]
    matrices += _rational_matrices(rng, 2000)
    singular = nilpotent = 0
    for A in matrices:
        series = invariants(A)
        power, traces = A, []
        for _ in range(6):
            traces.append(power[0, 0] + power[1, 1] + power[2, 2])
            power = power @ A
        assert list(series.I) == traces
        assert all(type(v) is Fraction for v in series.I)
        assert series.delta == A.det()
        singular += A.det() == 0
        nilpotent += (A @ A @ A).is_zero() and not A.is_zero()
    assert singular >= 800 and nilpotent >= 300, (singular, nilpotent)

