"""Exact linear algebra over the rationals.

Everything here works on small dense matrices represented as lists of rows,
each row a list of Fraction.  All results are exact; pivoting is
deterministic (first nonzero entry in column order), so reduced echelon
forms, nullspace bases and echelonized spans are canonical for a given
input.
"""

from fractions import Fraction

Rat = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def rref(matrix):
    """Reduced row echelon form.

    Returns (rows, pivot_columns).  The input is not modified.  Pivots are
    chosen as the first row with a nonzero entry in the leftmost unsettled
    column, which makes the result canonical.
    """
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
        inv = ONE / rows[r][c]
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


def rank(matrix):
    _, pivots = rref(matrix)
    return len(pivots)


def nullspace(matrix, ncols=None):
    """Canonical basis of the right kernel.

    For each free column f the basis vector has a 1 in position f and the
    negated reduced-echelon entries in the pivot positions.  Basis vectors
    are ordered by increasing free column.
    """
    rows = [list(row) for row in matrix]
    if ncols is None:
        if not rows:
            raise ValueError("nullspace of an empty matrix needs ncols")
        ncols = len(rows[0])
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [ZERO] * ncols
        vec[free] = ONE
        for i, p in enumerate(pivots):
            vec[p] = -red[i][free]
        basis.append(vec)
    return basis


def echelon_basis(vectors):
    """Canonical basis (reduced echelon rows) of the span of the given vectors."""
    if not vectors:
        return []
    red, pivots = rref(list(vectors))
    return [red[i] for i in range(len(pivots))]


def in_span(vectors, target):
    """True iff target lies in the span of vectors (all exact)."""
    return coordinates_in_span(vectors, target) is not None


def coordinates_in_span(vectors, target):
    """Coefficients expressing target over the given vectors, or None.

    Solves the linear system exactly; if the vectors are dependent the
    returned combination is the canonical one produced by elimination.
    """
    n = len(vectors)
    if n == 0:
        return [] if all(v == 0 for v in target) else None
    m = len(target)
    augmented = []
    for i in range(m):
        augmented.append([Fraction(vectors[j][i]) for j in range(n)] + [Fraction(target[i])])
    red, pivots = rref(augmented)
    if n in pivots:
        return None
    coords = [ZERO] * n
    for i, p in enumerate(pivots):
        coords[p] = red[i][n]
    return coords


def span_equal(vectors_a, vectors_b):
    """True iff both vector lists span the same subspace."""
    return echelon_basis(vectors_a) == echelon_basis(vectors_b)
