"""Affine Killing fields of a constant cubic metric.

A linear vector field X^a = A^a_b x^b is an isometry generator of a constant
cubic metric G exactly when the symmetrized contraction

    K(A)_{abc} = A^d_a G_{dbc} + A^d_b G_{adc} + A^d_c G_{abd}   (sum over d)

vanishes.  K is linear in A, so the solution space is the kernel of a fixed
10x9 rational matrix: rows follow SORTED_TRIPLES, columns the row-major
entries of A.  Constant (translation) fields are isometries of every
constant metric and are excluded from the model entirely.

Each of the ten components of K is nine terms A^d_x G(...), 90 in all,
but where indices repeat, the terms from equal positions coincide: there
are 54 distinct terms, each with a multiplicity of 1, 2 or 3.  A term
drops out whenever its component of G is zero; the catalog's normal forms
have only one to six nonzero components.  So K is computed from a table,
built once per form, of the distinct terms whose G component is nonzero,
each with its multiplicity folded into its G value, and only those are
summed.  Every entry of A is kept in the sum, zeros included.  Each
sum is of exact rationals, so the order of its terms does not change its
value.  killing_operator and verify_killing sum over ints: K is bilinear,
so K(A) = K_M(N) / (m d) for the integer images G = M/m and A = N/d.

Every vector v in the radical of G spans an infinite-dimensional family of
isometries f(x) v with arbitrary smooth f; the linear members v (w . x) all
lie in the kernel above.  The algebra is therefore reported as the exact
kernel basis plus the radical, with

    finite_nontrivial_dim = dim kernel - 3 * dim radical

counting the generators that are not accounted for by radical families.
The members v (w . x) of r independent radical vectors v span 3r dimensions
of the kernel, so a kernel of fewer than 3 dimensions has no radical, and
solve computes the radical only for a kernel of at least 3.  Class 7 being
empty (tests/test_class7.py), every such kernel has a nonzero radical, so
the radical is never computed in vain.  Most forms have a full-rank system, and for them
elimination stops after its forward pass (linalg).
"""

from collections import Counter
from fractions import Fraction

from ._record import record
from .forms import SORTED_TRIPLES, CubicForm, Mat3, _FULL_INDEX, _SORTED_NAMES, format_scalar
from .linalg import ONE, ZERO, nullspace, scale_to_integers

# rows of the nine elementary matrices E_ij (A^i_j = 1), in row-major order of (i, j)
_UNITS = tuple(tuple(tuple(ONE if (r, c) == (i, j) else ZERO for c in range(3))
                     for r in range(3)) for i in range(3) for j in range(3))

# _TERMS[r] lists the distinct terms of K(A) at the r-th sorted triple
# (a, b, c), 0-based, as (d, x, k, n): n times A^d_x times the form's
# component k over SORTED_TRIPLES.  Of the nine terms (x, component) = (a, dbc), (b, adc),
# (c, abd) for each d, those at equal positions of (a, b, c) coincide, so a
# triple with a repeated index has 6 or 3 distinct terms with multiplicity n
# of 2 or 3: 54 over the ten triples, and the n of each triple sum to 9
_TERMS = tuple(
    tuple((d, x, k, n) for (d, x, k), n in Counter(
        (d, x, _FULL_INDEX[i][j][k]) for d in range(3)
        for x, (i, j, k) in ((a, (d, b, c)), (b, (a, d, c)), (c, (a, b, d)))).items())
    for a, b, c in ((a - 1, b - 1, c - 1) for a, b, c in SORTED_TRIPLES))


def _table(flat):
    """The table of K for a form's component vector over SORTED_TRIPLES: for
    each sorted triple, the terms (d, x, n G component) of _TERMS whose
    component is nonzero, each with its multiplicity folded into its value."""
    nonzero = [v != 0 for v in flat]
    return [[(d, x, n * flat[k]) for d, x, k, n in terms if nonzero[k]]
            for terms in _TERMS]


def _contract(table, rows):
    """K(A) over SORTED_TRIPLES from a form's _table and the rows of A: for
    each triple, the sum of A^d_x (n G) over its terms, 0 for a triple
    with none.  Every entry of A is summed, zeros included."""
    return [sum([rows[d][x] * g for d, x, g in terms]) for terms in table]


def _int_contract(form, A):
    """(K_M(N), m d) for the integer images G = M/m and A = N/d."""
    flat, m = scale_to_integers(form.components())
    a, d = scale_to_integers(A.flatten())
    return _contract(_table(flat), (a[0:3], a[3:6], a[6:9])), m * d


def killing_operator(form, A):
    """Symmetrized contraction K(A); identically zero iff X = A x is Killing."""
    K, md = _int_contract(form, A)
    return CubicForm(**{name: Fraction(k, md) for name, k in zip(_SORTED_NAMES, K)})


def verify_killing(form, A):
    """True iff A generates an exact isometry of the form."""
    return not any(_int_contract(form, A)[0])


@record
class KillingSystem:
    """10x9 matrix M with M . vec(A) = vec(K(A)) for every A."""

    matrix: tuple

    def kernel(self):
        return nullspace(self.matrix)


def build_system(form):
    """Assemble the Killing system: column 3i + j is K(E_ij), from one
    table of the form's terms."""
    table = _table(form.components())
    return KillingSystem(tuple(zip(*(_contract(table, unit) for unit in _UNITS))))


@record
class SymmetryAlgebra:
    """Exact kernel basis of the Killing system together with the radical."""

    generators: tuple
    radical_basis: tuple

    @property
    def kernel_dim(self):
        return len(self.generators)

    @property
    def has_infinite_family(self):
        return bool(self.radical_basis)

    @property
    def finite_nontrivial_dim(self):
        return len(self.generators) - 3 * len(self.radical_basis)

    def to_json(self):
        return {
            "generators": [g.to_json() for g in self.generators],
            "radical": [[format_scalar(c) for c in v] for v in self.radical_basis],
            "has_infinite_family": self.has_infinite_family,
            "finite_nontrivial_dim": self.finite_nontrivial_dim,
            "kernel_dim": self.kernel_dim,
        }


def solve(form):
    """Canonical symmetry algebra of the form.

    The generator basis is the deterministic nullspace basis of the Killing
    system (reduced echelon, pivots by first nonzero column), so identical
    inputs give byte-identical output.
    """
    kernel = build_system(form).kernel()
    generators = tuple(Mat3.from_flat(vec) for vec in kernel)
    # r radical vectors v make the 3r independent fields v w^T Killing, so a
    # kernel of fewer than 3 dimensions has no radical
    radical = tuple(form.radical()) if len(kernel) >= 3 else ()
    return SymmetryAlgebra(generators=generators, radical_basis=radical)
