"""Affine Killing fields of a constant cubic metric.

A linear vector field X^a = A^a_b x^b is an isometry generator of a constant
cubic metric G exactly when the symmetrized contraction

    K(A)_{abc} = A^d_a G_{dbc} + A^d_b G_{adc} + A^d_c G_{abd}   (sum over d)

vanishes.  K is linear in A, so the solution space is the kernel of a fixed
10x9 rational matrix: rows follow SORTED_TRIPLES, columns the row-major
entries of A.  Constant (translation) fields are isometries of every
constant metric and are excluded from the model entirely.

Every vector v in the radical of G spans an infinite-dimensional family of
isometries f(x) v with arbitrary smooth f; the linear members v (w . x) all
lie in the kernel above.  The algebra is therefore reported as the exact
kernel basis plus the radical, with

    finite_nontrivial_dim = dim kernel - 3 * dim radical

counting the generators that are not accounted for by radical families.
"""

from fractions import Fraction

from ._record import record
from .forms import CubicForm, Mat3, SORTED_TRIPLES, TRIPLE_TO_NAME, format_scalar
from .linalg import nullspace


def killing_operator(form, A):
    """Symmetrized contraction K(A); identically zero iff X = A x is Killing."""
    comps = {}
    for (a, b, c) in SORTED_TRIPLES:
        total = Fraction(0)
        for d in (1, 2, 3):
            total += (A.rows[d - 1][a - 1] * form.component(d, b, c)
                      + A.rows[d - 1][b - 1] * form.component(a, d, c)
                      + A.rows[d - 1][c - 1] * form.component(a, b, d))
        comps[TRIPLE_TO_NAME[(a, b, c)]] = total
    return CubicForm(**comps)


def verify_killing(form, A):
    """True iff A generates an exact isometry of the form."""
    return killing_operator(form, A).is_zero()


@record
class KillingSystem:
    """10x9 matrix M with M . vec(A) = vec(K(A)) for every A."""

    matrix: tuple

    def apply(self, A):
        flat = A.flatten()
        comps = {}
        for row, triple in zip(self.matrix, SORTED_TRIPLES):
            comps[TRIPLE_TO_NAME[triple]] = sum(m * v for m, v in zip(row, flat))
        return CubicForm(**comps)

    def kernel(self):
        return nullspace([list(row) for row in self.matrix], ncols=9)


def build_system(form):
    """Assemble the Killing system by applying K to the nine elementary matrices."""
    columns = []
    for i in range(3):
        for j in range(3):
            unit = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
            unit[i][j] = 1
            columns.append(killing_operator(form, Mat3(unit)).components())
    matrix = tuple(tuple(columns[j][i] for j in range(9)) for i in range(10))
    return KillingSystem(matrix)


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
    system = build_system(form)
    kernel = system.kernel()
    generators = tuple(Mat3.from_flat(vec) for vec in kernel)
    return SymmetryAlgebra(generators=generators, radical_basis=tuple(form.radical()))
