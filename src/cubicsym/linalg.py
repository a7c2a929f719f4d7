"""Exact linear algebra over the rationals.

Everything here works on small dense matrices represented as lists of rows,
each row a list of rationals (int or Fraction); all results are exact.
Elimination runs on Python ints: each row is scaled by the lcm of its
denominators and reduced fraction-free.  Pivoting is deterministic (first
nonzero entry in column order), so reduced rows and nullspace bases are
canonical for a given input.

Elimination is two steps.  The forward pass clears below each pivot and so
fixes the pivot columns, hence the rank; back-substitution then clears above
each pivot, still in integers.  Where the rank is the answer the forward pass
is all that runs: nullspace returns [] once every column has a pivot, and
in_span and span_equal compare ranks.  rref returns the integer reduced
rows, each a multiple of its reduced echelon row, and makes no Fraction: its
caller divides an entry by its row's pivot where it reads one
(liealg.structure_constants reads the coordinates of brackets over a basis
this way), and nullspace makes one Fraction per nonzero entry of the basis
it returns.
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


def _cleared(row, prow, c):
    """row less a multiple of prow that zeroes column c, both rows scaled to
    integers and the result divided by the gcd of its entries."""
    p, f = prow[c], row[c]
    g = gcd(p, f)
    a, b = p // g, f // g
    row = [a * x - b * y for x, y in zip(row, prow)]
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _forward(matrix):
    """Fraction-free forward elimination: (rows, pivot_columns).

    The rows are the input's rows scaled to ints, with the first
    len(pivot_columns) of them in row echelon form.  Pivots are chosen as the
    first row with a nonzero entry in the leftmost unsettled column, and only
    the rows below a pivot are cleared, so the rank is known here and no
    Fraction is made.  The input is not modified.
    """
    rows = [scale_to_integers(row)[0] for row in matrix]
    pivots = []
    if not rows:
        return rows, pivots
    r = 0
    for c in range(len(rows[0])):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        prow = rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c]:
                rows[i] = _cleared(rows[i], prow, c)
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _back_substitute(rows, pivots):
    """The integer reduced rows, one per pivot, from the forward pass's rows:
    each is its reduced echelon row times its pivot entry.

    Clears above each pivot in turn, first pivot first: the row operations
    Gauss-Jordan elimination makes above its pivots, in the same order.
    The rows are modified in place and no Fraction is made.
    """
    for k, c in enumerate(pivots):
        prow = rows[k]
        for i in range(k):
            if rows[i][c]:
                rows[i] = _cleared(rows[i], prow, c)
    return rows[:len(pivots)]


def rref(matrix):
    """Integer reduced row echelon form: the forward pass, then
    back-substitution.

    Returns (rows, pivot_columns) with one int row per pivot: row k over its
    pivot entry rows[k][pivot_columns[k]] is row k of the reduced row
    echelon form.  No Fraction is made, so a caller divides only the entries
    it reads.  The input is not modified.
    """
    rows, pivots = _forward(matrix)
    return _back_substitute(rows, pivots), pivots


def nullspace(matrix):
    """Canonical basis of the right kernel of a nonempty matrix.

    For each free column f the basis vector has a 1 in position f and the
    negated reduced-echelon entries in the pivot positions.  Basis vectors
    are ordered by increasing free column.  Each entry is read off the
    integer reduced rows, a Fraction made only where it is nonzero.  When
    the forward pass puts a pivot in every column the kernel is zero, and
    the basis is [] with no back-substitution and no Fraction made.
    """
    rows, pivots = _forward(matrix)
    ncols = len(rows[0])
    if len(pivots) == ncols:
        return []
    red = _back_substitute(rows, pivots)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [ZERO] * ncols
        vec[free] = ONE
        for row, p in zip(red, pivots):
            if row[free]:
                vec[p] = Fraction(-row[free], row[p])
        basis.append(vec)
    return basis


def _rank(rows):
    """Rank of a list of rows: the pivot count of the forward pass."""
    return len(_forward(rows)[1])


def in_span(vectors, target):
    """True iff target lies in the span of vectors (all exact): appending it
    leaves the rank unchanged."""
    return _rank([*vectors, target]) == _rank(vectors)


def span_equal(vectors_a, vectors_b):
    """True iff both vector lists span the same subspace: each has the rank
    of their union."""
    return _rank(vectors_a) == _rank([*vectors_a, *vectors_b]) == _rank(vectors_b)
