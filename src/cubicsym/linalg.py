"""Exact linear algebra over the rationals.

Everything here works on small dense matrices represented as lists of rows,
each row a list of rationals (int or Fraction); results are lists of
Fraction.  All results are exact; nothing is rounded or approximated.
Elimination runs on Python ints: each row is scaled by the lcm of its
denominators, reduced fraction-free, and divided by its pivot only at the
end.  Pivoting is deterministic (first nonzero entry in column order), so
reduced echelon forms, nullspace bases and echelonized spans are canonical
for a given input.
"""

from fractions import Fraction
from math import gcd, lcm

ZERO = Fraction(0)
ONE = Fraction(1)


def scale_to_integers(values):
    """(ints, d): d is the lcm of the denominators of the rationals and ints
    the list of the values times d, as Python ints."""
    d = lcm(*[v.denominator for v in values])
    return [v.numerator * (d // v.denominator) for v in values], d


def rref(matrix):
    """Reduced row echelon form.

    Returns (rows, pivot_columns).  The input is not modified.  Pivots are
    chosen as the first row with a nonzero entry in the leftmost unsettled
    column, which makes the result canonical.  Scaling a row does not change
    the reduced form, so rows are eliminated as integer multiples of
    themselves (each new row divided by the gcd of its entries) and only the
    final division by the pivot makes a Fraction.
    """
    rows = [scale_to_integers(row)[0] for row in matrix]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        prow = rows[r]
        p = prow[c]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f:
                g = gcd(p, f)
                a, b = p // g, f // g
                row = [a * x - b * y for x, y in zip(rows[i], prow)]
                g = gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    reduced = [[Fraction(x, row[p]) if x else ZERO for x in row]
               for row, p in zip(rows, pivots)]
    reduced += [[ZERO] * ncols for _ in range(len(rows) - r)]
    return reduced, pivots


def nullspace(matrix, ncols):
    """Canonical basis of the right kernel of a matrix with ncols columns.

    For each free column f the basis vector has a 1 in position f and the
    negated reduced-echelon entries in the pivot positions.  Basis vectors
    are ordered by increasing free column.
    """
    red, pivots = rref(matrix)
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
        augmented.append([vectors[j][i] for j in range(n)] + [target[i]])
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
