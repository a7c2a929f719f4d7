"""Lie-series helpers that only the tests call.

No command and no library path needs a normal basis of a class-2 algebra,
so `solvable_pair` lives here, next to the checks that read it; the class-2
normal form takes it back into `cubicsym.liealg` if it ever calls it.
"""

from fractions import Fraction

from cubicsym import structure_constants


def solvable_pair(basis):
    """Basis (X1, X2) of a 2-dimensional nonabelian algebra with
    bracket(X1, X2) = (3/2) X2.  The structure constants of the basis A, B
    give [A, B] = alpha A + beta B, and X2, spanning the derived algebra, is
    alpha A + beta B over its first nonzero entry.  [A, X2] = beta X2 and
    [B, X2] = -alpha X2, so X1 is A (3/2)/beta if beta != 0, else
    B (3/2)/(-alpha): [g, g] is an ideal, and a nonabelian algebra has
    (alpha, beta) != 0, so no case is left."""
    if len(basis) != 2:
        raise ValueError("expected a 2-dimensional algebra")
    A, B = basis
    c = structure_constants(basis).c
    alpha, beta = c[0][0][1], c[1][0][1]
    if alpha == beta == 0:
        raise ValueError("algebra is not 2-dimensional nonabelian")
    X1, mu = (A, beta) if beta else (B, -alpha)
    X2 = A.scale(alpha) + B.scale(beta)
    pivot = next(v for v in X2.flatten() if v)
    return X1.scale(Fraction(3, 2) / mu), X2.scale(1 / pivot)
