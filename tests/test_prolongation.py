"""Every Killing field of a constant cubic metric is affine or radical.

cubicsym solves only for linear fields X = A x (killing.py), and this file
proves that nothing is missed.  Let G be a constant cubic metric on V = R^3,
K the linear map A -> K(A)_{abc} = A^d_a G_{dbc} + A^d_b G_{adc} +
A^d_c G_{abd}, g = ker K, and rad = {v : v^d G_{dbc} = 0} the radical.

A smooth field X is Killing when L_X G = 0.  For constant G this reads
K(DX(x)) = 0 at every point x, so DX(x) lies in g everywhere.  Its
derivative along any e is D^2X(x)(., e), which therefore lies in g too, and
D^2X(x) is symmetric, so D^2X(x) lies in the first prolongation

    g^(1) = {C in S^2V* (x) V : x -> C(x, e) lies in g for every e}

(Sternberg, *Lectures on Differential Geometry*, ch. VII).  For v in rad
every matrix v w^T lies in g, so S^2V* (x) rad, the C with values in rad,
lies in g^(1); it has dimension 6 dim rad.  The test below shows
dim g^(1) = 6 dim rad on every form it checks, so there g^(1) = S^2V* (x) rad
and D^2X takes its values in rad everywhere.  Split V = W + rad: the
W-component of X has zero second derivative, so it is b + A x with A the
W-part of DX(x), which lies in g because the rad-part of DX(x) is a sum of
matrices v w^T.  The rad-component is any field with values in rad, a sum
of the radical families f(x) v.  So every Killing field is a translation,
a linear field A x with A in g, plus a radical family: what solve reports.

The check shares no code with killing or linalg.  K is written out above
and below, g^(1) is the kernel of the 30x18 system K(C(., e_k)) = 0
(k = 1, 2, 3) in the 18 components C^i_{jk}, j <= k, and ranks come from
this file's own elimination.  G is scaled to integers first, which changes
no kernel, so the elimination runs over ints.  A form that contradicted
dim g^(1) = 6 dim rad would be a finding about the model, to be filed, not
fixed in the classification.
"""

from collections import Counter
from itertools import product
from math import gcd, lcm

from cubicsym import solve

from test_census import representatives
from test_classify import catalog_forms

# K(A) is symmetric, so its ten components at the sorted triples decide it
TRIPLES = [t for t in product(range(3), repeat=3) if t[0] <= t[1] <= t[2]]
# the unknowns C^i_{jk} with j <= k, and the nine unit matrices E_ij
UNKNOWNS = [(i, j, k) for i in range(3) for j in range(3) for k in range(j, 3)]
UNITS = {(i, j): [[int((r, c) == (i, j)) for c in range(3)] for r in range(3)]
         for i in range(3) for j in range(3)}
SYMMETRIC_PAIRS = [(b, c) for b in range(3) for c in range(b, 3)]


def integer_tensor(form):
    """G[a][b][c] for all 27 index triples, times the least common
    denominator of the components: an integer tensor with the same kernels."""
    values = [form.component(a, b, c) for a, b, c in product((1, 2, 3), repeat=3)]
    m = lcm(*(v.denominator for v in values))
    flat = [int(v * m) for v in values]
    return [[flat[9 * a + 3 * b:9 * a + 3 * b + 3] for b in range(3)] for a in range(3)]


def rank(rows):
    """Exact rank of integer rows: a forward elimination over ints that
    divides each updated row by the gcd of its entries."""
    rows = [list(row) for row in rows if any(row)]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        p, a = rows[r], rows[r][col]
        for i in range(r + 1, len(rows)):
            b = rows[i][col]
            if b:
                row = [a * x - b * y for x, y in zip(rows[i], p)]
                g = gcd(*row) or 1
                rows[i] = [x // g for x in row]
        r += 1
    return r


def killing(G, A):
    """K(A) at the ten sorted triples."""
    return [sum(A[d][a] * G[d][b][c] + A[d][b] * G[a][d][c] + A[d][c] * G[a][b][d]
                for d in range(3)) for a, b, c in TRIPLES]


def prolongation_system(G):
    """The 30x18 matrix of C -> (K(C(., e_1)), K(C(., e_2)), K(C(., e_3))):
    C(., e_m) has the entry C^i_{jm} at (i, j), so the unknown C^i_{jk}
    enters block k as E_ij and, when j != k, block j as E_ik."""
    images = {ij: killing(G, E) for ij, E in UNITS.items()}
    zero = [0] * len(TRIPLES)
    columns = [[x for m in range(3)
                for x in (images[i, j] if m == k else images[i, k] if m == j else zero)]
               for i, j, k in UNKNOWNS]
    return [list(row) for row in zip(*columns)]


def test_killing_system_has_the_solver_kernel():
    # g above is the model's algebra: its dimension is solve's on the catalog
    for form in catalog_forms():
        G = integer_tensor(form)
        system = list(zip(*(killing(G, E) for E in UNITS.values())))
        assert 9 - rank(system) == solve(form).kernel_dim, form


def test_prolongation_is_the_radical_part():
    forms = catalog_forms() + representatives()
    assert len(forms) == 1497
    radical_dims = Counter()
    for form in forms:
        G = integer_tensor(form)
        radical = form.radical()
        assert 3 - rank([[G[d][b][c] for d in range(3)] for b, c in SYMMETRIC_PAIRS]) \
            == len(radical), form
        system = prolongation_system(G)
        assert 18 - rank(system) == 6 * len(radical), form
        # S^2V* (x) rad lies in g^(1): v times each unit symmetric form
        for v in radical:
            for b, c in SYMMETRIC_PAIRS:
                C = [v[i] if (j, k) == (b, c) else 0 for i, j, k in UNKNOWNS]
                assert all(sum(x * y for x, y in zip(C, row)) == 0 for row in system), form
        radical_dims[len(radical)] += 1
    # the zero form, whose radical is V, gives g^(1) = S^2V* (x) V
    assert radical_dims == {0: 1442, 1: 49, 2: 5, 3: 1}
