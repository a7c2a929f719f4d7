"""Brackets, structure constants and matrix invariants of symmetry algebras.

The matrix of the commutator of two linear vector fields X = A x, Y = B x is
B A - A B (note the order: the field bracket reverses the matrix one).  For
the canonical pair of the nonabelian 2-dimensional algebras in the catalog
this convention gives bracket(X1, X2) = (3/2) X2.
"""

from fractions import Fraction
from math import isqrt

from ._record import record
from .forms import Mat3, _det, format_scalar
from .linalg import ONE, ZERO, rref, scale_to_integers


class DependentBasisError(ValueError):
    """The supplied generators are linearly dependent."""


class NotClosedError(ValueError):
    """The span of the supplied generators is not closed under the bracket."""


def _int_bracket(scaled_a, scaled_b):
    """(P N - N P, d e), flattened, for the integer images (N, d) and (P, e)
    of A = N/d and B = P/e that scale_to_integers gives."""
    (a, d), (b, e) = scaled_a, scaled_b
    return [sum(b[i + k] * a[3 * k + j] - a[i + k] * b[3 * k + j] for k in range(3))
            for i in (0, 3, 6) for j in range(3)], d * e


def bracket(A, B):
    """Matrix of the vector-field commutator [A x, B x]: with A = N/d and
    B = P/e for integer N and P, (P N - N P) / (d e), one Fraction per entry."""
    entries, de = _int_bracket(scale_to_integers(A.flatten()),
                               scale_to_integers(B.flatten()))
    return Mat3.from_flat([Fraction(x, de) for x in entries])


@record
class StructureConstants:
    """Coefficients c[k][i][j] with [X_i, X_j] = sum_k c[k][i][j] X_k."""

    c: tuple

    def is_zero(self):
        return all(v == 0 for layer in self.c for row in layer for v in row)

    def to_json(self):
        return [[[format_scalar(v) for v in row] for row in layer] for layer in self.c]


def _reduced_brackets(basis):
    """(pairs, brackets, red): the index pairs i < j, the brackets of those
    pairs as (integer row, denominator) pairs from _int_bracket, and the
    reduced echelon form of [basis | integer rows].

    That one reduction of the 9 x (n + n(n-1)/2) matrix decides everything:
    the basis is independent iff each of its n columns gets a pivot, the
    first bracket column that gets a pivot is the first bracket outside the
    span, and otherwise each bracket column holds its integer row's
    coordinates over the basis, which are the bracket's times its
    denominator.  Scaling a column changes neither the pivots nor the other
    columns of the reduced form.
    """
    n = len(basis)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    scaled = [scale_to_integers(m.flatten()) for m in basis]
    brackets = [_int_bracket(scaled[i], scaled[j]) for i, j in pairs]
    rows = [row for row, _ in brackets]
    red, pivots = rref(list(zip(*[m.flatten() for m in basis], *rows)))
    if pivots[:n] != list(range(n)):
        raise DependentBasisError("generators are linearly dependent")
    if len(pivots) > n:
        i, j = pairs[pivots[n] - n]
        raise NotClosedError(f"bracket of generators {i} and {j} is outside the span")
    return pairs, brackets, red


def structure_constants(basis):
    """Exact structure constants over the given, necessarily closed, basis."""
    n = len(basis)
    pairs, brackets, red = _reduced_brackets(basis)
    c = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for col, ((i, j), (_, de)) in enumerate(zip(pairs, brackets), start=n):
        for k in range(n):
            c[k][i][j] = red[k][col] / de
            c[k][j][i] = -c[k][i][j]
    return StructureConstants(c=tuple(tuple(tuple(row) for row in layer) for layer in c))


@record
class InvariantSeries:
    """Traces of powers I_n = Tr(A^n) for n = 1..6 and the determinant.

    The characteristic polynomial (1, -I1, (I1^2 - I2)/2, -Delta) is read off
    I1, I2 and Delta, and invariants derives I3..I6 from it by Newton's
    identities, so a computed series satisfies the trace recursion exactly.
    """

    I: tuple
    delta: Fraction

    @property
    def charpoly(self):
        i1, i2 = self.I[0], self.I[1]
        return (ONE, -i1, (i1 * i1 - i2) / 2, -self.delta)

    def to_json(self):
        return {
            "I": [format_scalar(v) for v in self.I],
            "Delta": format_scalar(self.delta),
            "charpoly": [format_scalar(v) for v in self.charpoly],
        }


def invariants(A):
    """Exact invariant series of a field matrix A = M/d, M an integer matrix:
    I_k = P_k/d^k with P_k = Tr(M^k), and Delta = e3/d^3 with e3 = det(M).
    With e1 = P_1 and e2 = (e1^2 - P_2)/2, Newton's identities P_k = e1 P_(k-1)
    - e2 P_(k-2) + e3 P_(k-3) (k >= 3, P_0 = 3) give P_3..P_6, all ints."""
    flat, d = scale_to_integers(A.flatten())
    M = [flat[0:3], flat[3:6], flat[6:9]]
    e1, e3 = M[0][0] + M[1][1] + M[2][2], _det(M)
    p = [3, e1, sum(M[i][j] * M[j][i] for i in range(3) for j in range(3))]
    e2 = (e1 * e1 - p[2]) // 2
    for _ in range(4):
        p.append(e1 * p[-1] - e2 * p[-2] + e3 * p[-3])
    return InvariantSeries(I=tuple(Fraction(x, d ** k) for k, x in enumerate(p) if k),
                           delta=Fraction(e3, d ** 3))


def _nth_root(x, n):
    """Exact rational n-th root, or None.  Negative x allowed for odd n."""
    x = Fraction(x)
    if x < 0 and n % 2 == 0:
        return None
    sign = -1 if x < 0 else 1
    num, den = abs(x.numerator), x.denominator

    def iroot(m):
        if m in (0, 1):
            return m
        if n == 2:
            r = isqrt(m)
        else:
            # integer Newton iteration from above ends at the floor of the root
            r = 1 << -(-m.bit_length() // n)
            while True:
                s = ((n - 1) * r + m // r ** (n - 1)) // n
                if s >= r:
                    break
                r = s
        return r if r ** n == m else None

    rn, rd = iroot(num), iroot(den)
    if rn is None or rd is None:
        return None
    return sign * Fraction(rn, rd)


@record
class ColinearityVerdict:
    """Outcome of the proportionality test I_n = C^n I'_n, Delta = C^3 Delta'.

    kind is 'real' (a real C exists), 'complex' (only an imaginary C fits:
    the forced C^2 is negative) or 'none'.  C carries the rational witness
    when one is determined; C_squared carries C^2 when only the square is
    pinned down (the even-power situation).
    """

    kind: str
    C: Fraction | None = None
    C_squared: Fraction | None = None
    reason: str = ""


def colinearity(s1, s2):
    """Decide whether two invariant series are power-proportional.

    Generators are only defined up to scale, so this is the natural
    necessary condition for equivalence of the underlying metrics; the
    verdict reports the scale class rather than normalizing either side.
    It requires c_k = C^k c'_k for the coefficients c_1..c_3 of charpoly.
    By Newton's identities that holds iff I_n = C^n I'_n for every n and
    Delta = C^3 Delta', so a hand-built InvariantSeries whose I3..I6 break
    the trace recursion is judged on I1, I2 and Delta alone, as its charpoly
    is.
    """
    pairs = list(zip(s1.charpoly[1:], s2.charpoly[1:]))
    if any((a == 0) != (b == 0) for a, b in pairs):
        return ColinearityVerdict(kind="none", reason="zero patterns differ")
    active = [(a / b, k) for k, (a, b) in enumerate(pairs, start=1) if a != 0]
    if not active:
        return ColinearityVerdict(kind="real", C=ONE,
                                  reason="all invariants vanish")
    # each ratio is C^k, so r = C^k and q = C^m need r^m = q^k
    if any(r ** m != q ** k for i, (r, k) in enumerate(active) for q, m in active[i + 1:]):
        return ColinearityVerdict(kind="none", reason="ratios are inconsistent")
    odd = [(r, k) for r, k in active if k != 2]
    if odd:
        # a real k-th root of an odd-power ratio, which the others agree with
        witness = _nth_root(*odd[0])
        return ColinearityVerdict(kind="real", C=witness,
                                  reason="determined by an odd power"
                                  + ("" if witness is not None else " (irrational C)"))
    # only c_2 is active, and it pins C^2
    c2 = active[0][0]
    if c2 < 0:
        return ColinearityVerdict(kind="complex", C_squared=c2,
                                  reason="forced C^2 is negative")
    return ColinearityVerdict(kind="real", C=_nth_root(c2, 2), C_squared=c2,
                              reason="determined up to sign by even powers")


def solvable_pair(basis):
    """Basis (X1, X2) of a 2-dimensional nonabelian algebra with
    bracket(X1, X2) = (3/2) X2.  The reduction that checks the basis A, B gives
    [A, B] = alpha A + beta B, and X2, spanning the derived algebra, is [A, B]
    over its first nonzero entry.  [A, X2] = beta X2 and [B, X2] = -alpha X2,
    so X1 is A (3/2)/beta if beta != 0, else B (3/2)/(-alpha): [g, g] is an
    ideal, and a nonabelian algebra has (alpha, beta) != 0, so no case is left."""
    if len(basis) != 2:
        raise ValueError("expected a 2-dimensional algebra")
    _, ((ab, de),), red = _reduced_brackets(basis)
    alpha, beta = red[0][2] / de, red[1][2] / de
    if alpha == beta == 0:
        raise ValueError("algebra is not 2-dimensional nonabelian")
    X1, mu = (basis[0], beta) if beta else (basis[1], -alpha)
    pivot = next(v for v in ab if v)
    return X1.scale(Fraction(3, 2) / mu), Mat3.from_flat([Fraction(x, pivot) for x in ab])
