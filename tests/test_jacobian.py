"""The Jacobian ideal: a classifier that shares no code with the solver.

For a cubic form G(x) = G_abc x^a x^b x^c let J be the ideal of R = Q[x, y, z]
generated by its three partials, and h(d) = dim (R/J)_d.  J_d is spanned
by the products of the partials with the monomials of degree d - 2, the
rows of the degree-d Macaulay matrix, so h(d) = C(d + 2, 2) - its rank.
The field x_j d/dx_i takes G to x_j dG/dx_i, so column 3i+j of the Killing
system holds the coefficients of x_j dG/dx_i, each monomial's over its
multiplicity: the degree-3 Macaulay matrix is the Killing system up to row
scaling, and h(3) = 10 - (9 - kernel_dim) = 1 + kernel_dim.  In
degree 4 and above h(d) is new: for a curve with isolated singularities it
settles at the total Tjurina number, and its growth counts a double line
(1) or a triple line (2).

The partials and the Macaulay matrices are built here from the tensor, and
ranked by test_prolongation's integer elimination; nothing here calls
killing or linalg.  The table pins (h(3), h(4), h(5)) per class over the
1,397 nonzero census orbits: h(4) alone separates {8}, {4, 5, 6}, {1, 2}
and 3(2), and h(5) - h(4) separates 3(3) from 3(1).
"""

from collections import Counter
from itertools import combinations_with_replacement

from cubicsym import classify

from test_census import representatives
from test_classify import catalog_forms
from test_prolongation import integer_tensor, rank

DEGREES = (3, 4, 5)
# (label, (h(3), h(4), h(5))) -> census orbits; class 8 splits into smooth
# curves and curves with one node
TABLE = {
    ("8", (1, 0, 0)): 1131, ("8", (1, 1, 1)): 90,
    ("4", (2, 2, 2)): 53, ("5", (2, 2, 2)): 45, ("6", (2, 2, 2)): 16,
    ("1", (3, 3, 3)): 8, ("2", (3, 3, 3)): 15,
    ("3(2)", (4, 4, 4)): 30, ("3(3)", (5, 6, 7)): 6, ("3(1)", (7, 9, 11)): 3,
}


def monomials(d):
    """Exponent vectors of the monomials of degree d."""
    return [tuple(combo.count(k) for k in range(3))
            for combo in combinations_with_replacement(range(3), d)]


def partials(G):
    """dG/dx_i over 3, as {exponent vector: coefficient}: sum_bc G_ibc x_b x_c."""
    out = []
    for i in range(3):
        p = Counter()
        for b in range(3):
            for c in range(3):
                p[tuple((b == k) + (c == k) for k in range(3))] += G[i][b][c]
        out.append(p)
    return out


def hilbert(G):
    """(h(3), h(4), h(5)) of the Jacobian ideal of the integer tensor G."""
    ps = partials(G)
    out = []
    for d in DEGREES:
        column = {e: n for n, e in enumerate(monomials(d))}
        rows = []
        for m in monomials(d - 2):
            for p in ps:
                row = [0] * len(column)
                for e, v in p.items():
                    row[column[tuple(x + y for x, y in zip(e, m))]] += v
                rows.append(row)
        out.append(len(column) - rank(rows))
    return tuple(out)


def classified(form):
    """(label, (h(3), h(4), h(5))) of a form, after checking that h(3) - 1
    is the kernel dimension of the solver, found here from J alone."""
    h = hilbert(integer_tensor(form))
    report = classify(form)
    assert h[0] - 1 == report.algebra.kernel_dim, form
    return report.label, h


def test_jacobian_ideal_matches_the_classification():
    rows = [classified(form) for form in catalog_forms()]
    # every catalog branch and projective sample lands in a row of the table
    assert all(row in TABLE for row in rows), [r for r in rows if r not in TABLE]
    census = Counter(classified(form) for form in representatives())
    # the zero form: J = 0, so h(d) = dim R_d, and its algebra is gl(3)
    assert census.pop(("3(1)", (10, 15, 21))) == 1
    assert census == TABLE
