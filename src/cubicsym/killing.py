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
from .forms import (SORTED_TRIPLES, CubicForm, Mat3, _SORTED_NAMES, _full_tensor,
                    format_scalar)
from .linalg import nullspace

_ZERO, _ONE = Fraction(0), Fraction(1)

# SORTED_TRIPLES with 0-based indices
_SORTED0 = tuple((a - 1, b - 1, c - 1) for a, b, c in SORTED_TRIPLES)

# rows of the nine elementary matrices E_ij (A^i_j = 1), in row-major order of (i, j)
_UNITS = tuple(tuple(tuple(_ONE if (r, c) == (i, j) else _ZERO for c in range(3))
                     for r in range(3)) for i in range(3) for j in range(3))


def _contract(G, rows):
    """K(A) over SORTED_TRIPLES, from the full tensor G[d][e][f] = G(d+1, e+1, f+1)
    and the rows of A: the dense three-term sum over d, in that order."""
    out = []
    for a, b, c in _SORTED0:
        total = _ZERO
        for d in range(3):
            row = rows[d]
            total += row[a] * G[d][b][c] + row[b] * G[a][d][c] + row[c] * G[a][b][d]
        out.append(total)
    return out


def killing_operator(form, A):
    """Symmetrized contraction K(A); identically zero iff X = A x is Killing."""
    return CubicForm(**dict(zip(_SORTED_NAMES,
                                _contract(_full_tensor(form.components()), A.rows))))


def verify_killing(form, A):
    """True iff A generates an exact isometry of the form."""
    return killing_operator(form, A).is_zero()


@record
class KillingSystem:
    """10x9 matrix M with M . vec(A) = vec(K(A)) for every A."""

    matrix: tuple

    def kernel(self):
        return nullspace([list(row) for row in self.matrix], ncols=9)


def build_system(form):
    """Assemble the Killing system: column 3i + j is K(E_ij), from one full
    tensor of the form."""
    G = _full_tensor(form.components())
    return KillingSystem(tuple(zip(*(_contract(G, unit) for unit in _UNITS))))


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
