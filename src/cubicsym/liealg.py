"""Brackets, structure constants and matrix invariants of symmetry algebras.

The matrix of the commutator of two linear vector fields X = A x, Y = B x is
B A - A B (note the order: the field bracket reverses the matrix one).  For
the canonical pair of the nonabelian 2-dimensional algebras in the catalog
this convention gives bracket(X1, X2) = (3/2) X2.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .forms import Mat3, format_scalar
from .linalg import coordinates_in_span, echelon_basis, in_span, rank


class DependentBasisError(ValueError):
    """The supplied generators are linearly dependent."""


class NotClosedError(ValueError):
    """The span of the supplied generators is not closed under the bracket."""


def bracket(A, B):
    """Matrix of the vector-field commutator [A x, B x]."""
    return (B @ A) - (A @ B)


def _check_independent(basis):
    vectors = [m.flatten() for m in basis]
    if vectors and rank(vectors) != len(vectors):
        raise DependentBasisError("generators are linearly dependent")
    return vectors


@dataclass(frozen=True)
class StructureConstants:
    """Coefficients c[k][i][j] with [X_i, X_j] = sum_k c[k][i][j] X_k."""

    n: int
    c: tuple

    def is_zero(self):
        return all(v == 0 for layer in self.c for row in layer for v in row)

    def to_json(self):
        return [[[format_scalar(v) for v in row] for row in layer] for layer in self.c]


def structure_constants(basis):
    """Exact structure constants over the given, necessarily closed, basis."""
    vectors = _check_independent(basis)
    n = len(basis)
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            coords = coordinates_in_span(vectors, bracket(basis[i], basis[j]).flatten())
            if coords is None:
                raise NotClosedError(
                    f"bracket of generators {i} and {j} is outside the span")
            for k in range(n):
                c[k][i][j] = coords[k]
                c[k][j][i] = -coords[k]
    return StructureConstants(n=n, c=tuple(tuple(tuple(row) for row in layer) for layer in c))


def is_abelian(basis):
    """True iff all pairwise brackets vanish (raises NotClosedError otherwise
    if some bracket leaves the span)."""
    return structure_constants(basis).is_zero()


def derived_algebra(basis):
    """Canonical echelon basis of the span of all pairwise brackets."""
    vectors = _check_independent(basis)
    products = []
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            prod = bracket(basis[i], basis[j]).flatten()
            if not in_span(vectors, prod):
                raise NotClosedError(
                    f"bracket of generators {i} and {j} is outside the span")
            products.append(prod)
    return [Mat3.from_flat(vec) for vec in echelon_basis(products)]


@dataclass(frozen=True)
class InvariantSeries:
    """Traces of powers I_n = Tr(A^n) for n = 1..6, det and char poly.

    The characteristic polynomial coefficients are (1, -I1, (I1^2 - I2)/2,
    -Delta); I4..I6 then satisfy the trace recursion they induce, which the
    test suite checks explicitly.
    """

    I: tuple
    delta: Fraction
    charpoly: tuple

    def to_json(self):
        return {
            "I": [format_scalar(v) for v in self.I],
            "Delta": format_scalar(self.delta),
            "charpoly": [format_scalar(v) for v in self.charpoly],
        }


def invariants(A):
    """Exact invariant series of a field matrix."""
    traces = []
    power = A
    for _ in range(6):
        traces.append(power.trace())
        power = power @ A
    i1, i2 = traces[0], traces[1]
    delta = A.det()
    charpoly = (Fraction(1), -i1, (i1 * i1 - i2) / 2, -delta)
    return InvariantSeries(I=tuple(traces), delta=delta, charpoly=charpoly)


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


@dataclass(frozen=True)
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

    def to_json(self):
        return {
            "kind": self.kind,
            "C": None if self.C is None else format_scalar(self.C),
            "C_squared": None if self.C_squared is None else format_scalar(self.C_squared),
            "reason": self.reason,
        }


def colinearity(s1, s2):
    """Decide whether two invariant series are power-proportional.

    Generators are only defined up to scale, so this is the natural
    necessary condition for equivalence of the underlying metrics; the
    verdict reports the scale class rather than normalizing either side.
    """
    constraints = [(s1.I[n], s2.I[n], n + 1) for n in range(6)]
    constraints.append((s1.delta, s2.delta, 3))
    for a, b, _ in constraints:
        if (a == 0) != (b == 0):
            return ColinearityVerdict(kind="none", reason="zero patterns differ")
    active = [(Fraction(a) / Fraction(b), n) for a, b, n in constraints if a != 0]
    if not active:
        return ColinearityVerdict(kind="real", C=Fraction(1),
                                  reason="all invariants vanish")
    # magnitude consistency: |C|^n is pinned by every active ratio
    for i in range(len(active)):
        ri, ni = active[i]
        for j in range(i + 1, len(active)):
            rj, nj = active[j]
            if abs(ri) ** nj != abs(rj) ** ni:
                return ColinearityVerdict(kind="none", reason="ratios are inconsistent")
    odd = [(r, n) for r, n in active if n % 2 == 1]
    if odd:
        signs = {r > 0 for r, _ in odd}
        if len(signs) > 1:
            return ColinearityVerdict(kind="none", reason="odd-power signs conflict")
        even_bad = any(r < 0 for r, n in active if n % 2 == 0)
        if even_bad:
            return ColinearityVerdict(kind="none",
                                      reason="negative even-power ratio with odd data")
        r, n = odd[0]
        witness = _nth_root(r, n)
        return ColinearityVerdict(kind="real", C=witness,
                                  reason="determined by an odd power"
                                  + ("" if witness is not None else " (irrational C)"))
    # only even powers active: C^2 is pinned down (up to sign when only I4)
    by_power = {n: r for r, n in active}
    if any(by_power.get(n, Fraction(1)) < 0 for n in (4,)):
        return ColinearityVerdict(kind="none", reason="negative fourth-power ratio")
    if 2 in by_power:
        c2 = by_power[2]
    elif 6 in by_power:
        c2 = _nth_root(by_power[6], 3)
        if c2 is None:
            kind = "real" if by_power[6] > 0 else "complex"
            return ColinearityVerdict(kind=kind, reason="irrational C^2 from sixth power")
    else:
        c2 = _nth_root(by_power[4], 2)
        if c2 is None:
            return ColinearityVerdict(kind="real",
                                      reason="C^2 determined only up to sign (irrational)")
    for r, n in active:
        if c2 ** (n // 2) != r:
            return ColinearityVerdict(kind="none", reason="ratios are inconsistent")
    if c2 < 0:
        return ColinearityVerdict(kind="complex", C_squared=c2,
                                  reason="forced C^2 is negative")
    root = _nth_root(c2, 2)
    return ColinearityVerdict(kind="real", C=root, C_squared=c2,
                              reason="determined up to sign by even powers")


def solvable_pair(basis):
    """Basis (X1, X2) of a 2-dimensional nonabelian algebra normalized so
    that bracket(X1, X2) = (3/2) X2; X2 spans the derived algebra."""
    if len(basis) != 2:
        raise ValueError("expected a 2-dimensional algebra")
    derived = derived_algebra(basis)
    if len(derived) != 1:
        raise ValueError("algebra is not 2-dimensional nonabelian")
    D = derived[0]
    dvec = D.flatten()
    for Y in basis:
        coords = coordinates_in_span([dvec], bracket(Y, D).flatten())
        if coords is None:
            raise NotClosedError("derived element is not normalized by the basis")
        mu = coords[0]
        if mu != 0:
            return Y.scale(Fraction(3, 2) / mu), D
    raise ValueError("no basis element acts nontrivially on the derived algebra")
