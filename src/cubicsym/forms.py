"""Cubic forms on 3-space with exact rational coefficients.

A homogeneous cubic metric is a totally symmetric rank-3 tensor G with
constant components.  Ten independent components determine it; they are
stored under their conventional names:

    (111) -> A1   (222) -> A2   (333) -> A3
    (122) -> B1   (133) -> B2   (233) -> B3
    (112) -> C1   (113) -> C2   (223) -> C3
    (123) -> F

A stored component equals the tensor component of the sorted index, with no
factorial normalization, so the symmetrized monomial dx^i dx^j dx^k has the
single stored component 1.  Evaluation therefore weights components by the
orbit sizes 1 / 3 / 6.

All arithmetic is exact (fractions.Fraction); nothing here ever rounds.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .linalg import nullspace

Rat = Fraction

COMPONENT_NAMES = ("A1", "A2", "A3", "B1", "B2", "B3", "C1", "C2", "C3", "F")

# bijection between sorted index triples and stored component names
TRIPLE_TO_NAME = {
    (1, 1, 1): "A1", (2, 2, 2): "A2", (3, 3, 3): "A3",
    (1, 2, 2): "B1", (1, 3, 3): "B2", (2, 3, 3): "B3",
    (1, 1, 2): "C1", (1, 1, 3): "C2", (2, 2, 3): "C3",
    (1, 2, 3): "F",
}
NAME_TO_TRIPLE = {name: triple for triple, name in TRIPLE_TO_NAME.items()}

# sorted triples in lexicographic order; fixed once and used everywhere a
# component vector is needed (rows of the Killing system in particular)
SORTED_TRIPLES = (
    (1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 2), (1, 2, 3),
    (1, 3, 3), (2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 3, 3),
)

# evaluation weight = number of distinct permutations of the triple
_ORBIT_SIZE = {t: (1 if t[0] == t[2] else (6 if len(set(t)) == 3 else 3))
               for t in SORTED_TRIPLES}


def parse_scalar(value):
    """Parse an exact rational from an int, Fraction or 'p/q' string."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def format_scalar(x):
    """Lowest-terms text for a rational: '5', '-2/3', ..."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def scalar_to_json(x):
    x = Fraction(x)
    return int(x) if x.denominator == 1 else format_scalar(x)


def vec3(x1, x2, x3):
    return (Fraction(x1), Fraction(x2), Fraction(x3))


def format_vec(v):
    return [format_scalar(c) for c in v]


class SingularTransformError(ValueError):
    """Raised when an operation requires an invertible transform."""


class Mat3:
    """Immutable 3x3 matrix of exact rationals.

    Doubles as an affine transform T (new components X^a = T^a_b x^b) and as
    the coefficient matrix of a linear vector field.
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(Fraction(v) for v in row) for row in rows)
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("Mat3 needs a 3x3 array")
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Mat3 is immutable")

    @classmethod
    def identity(cls):
        return cls(((1, 0, 0), (0, 1, 0), (0, 0, 1)))

    @classmethod
    def zero(cls):
        return cls(((0, 0, 0), (0, 0, 0), (0, 0, 0)))

    @classmethod
    def diag(cls, a, b, c):
        return cls(((a, 0, 0), (0, b, 0), (0, 0, c)))

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, Mat3) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __add__(self, other):
        return Mat3(tuple(tuple(a + b for a, b in zip(ra, rb))
                          for ra, rb in zip(self.rows, other.rows)))

    def __sub__(self, other):
        return Mat3(tuple(tuple(a - b for a, b in zip(ra, rb))
                          for ra, rb in zip(self.rows, other.rows)))

    def scale(self, c):
        c = Fraction(c)
        return Mat3(tuple(tuple(c * v for v in row) for row in self.rows))

    def __matmul__(self, other):
        return Mat3(tuple(
            tuple(sum(self.rows[i][k] * other.rows[k][j] for k in range(3))
                  for j in range(3))
            for i in range(3)))

    def apply(self, v):
        """Matrix-vector product T v."""
        return tuple(sum(self.rows[i][k] * v[k] for k in range(3)) for i in range(3))

    def transpose(self):
        return Mat3(tuple(tuple(self.rows[j][i] for j in range(3)) for i in range(3)))

    def trace(self):
        return self.rows[0][0] + self.rows[1][1] + self.rows[2][2]

    def det(self):
        r = self.rows
        return (r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
                - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
                + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0]))

    def inverse(self):
        d = self.det()
        if d == 0:
            raise SingularTransformError("matrix is singular")
        r = self.rows
        cof = [
            [r[1][1] * r[2][2] - r[1][2] * r[2][1],
             r[0][2] * r[2][1] - r[0][1] * r[2][2],
             r[0][1] * r[1][2] - r[0][2] * r[1][1]],
            [r[1][2] * r[2][0] - r[1][0] * r[2][2],
             r[0][0] * r[2][2] - r[0][2] * r[2][0],
             r[0][2] * r[1][0] - r[0][0] * r[1][2]],
            [r[1][0] * r[2][1] - r[1][1] * r[2][0],
             r[0][1] * r[2][0] - r[0][0] * r[2][1],
             r[0][0] * r[1][1] - r[0][1] * r[1][0]],
        ]
        return Mat3(tuple(tuple(v / d for v in row) for row in cof))

    def is_zero(self):
        return all(v == 0 for row in self.rows for v in row)

    def flatten(self):
        """Row-major 9-vector (entry order (1,1),(1,2),...,(3,3))."""
        return [v for row in self.rows for v in row]

    @classmethod
    def from_flat(cls, vec):
        return cls((tuple(vec[0:3]), tuple(vec[3:6]), tuple(vec[6:9])))

    def to_json(self):
        return [[format_scalar(v) for v in row] for row in self.rows]

    @classmethod
    def from_json(cls, data):
        if (not isinstance(data, list) or len(data) != 3
                or any(not isinstance(row, list) or len(row) != 3 for row in data)):
            raise ValueError("matrix JSON must be a 3x3 array")
        try:
            return cls(tuple(tuple(parse_scalar(v) for v in row) for row in data))
        except TypeError as exc:
            raise ValueError(f"bad matrix entry: {exc}") from exc

    def __repr__(self):
        return "Mat3([" + ", ".join("[" + ", ".join(format_scalar(v) for v in row) + "]"
                                    for row in self.rows) + "])"


@dataclass(frozen=True)
class CubicForm:
    """The ten stored components of a symmetric cubic tensor."""

    A1: Fraction = Rat(0)
    A2: Fraction = Rat(0)
    A3: Fraction = Rat(0)
    B1: Fraction = Rat(0)
    B2: Fraction = Rat(0)
    B3: Fraction = Rat(0)
    C1: Fraction = Rat(0)
    C2: Fraction = Rat(0)
    C3: Fraction = Rat(0)
    F: Fraction = Rat(0)

    def __post_init__(self):
        for name in COMPONENT_NAMES:
            object.__setattr__(self, name, Fraction(getattr(self, name)))

    def component(self, alpha, beta, gamma):
        """Tensor component for any index order; permutation invariant."""
        idx = tuple(sorted((alpha, beta, gamma)))
        if idx not in TRIPLE_TO_NAME:
            raise IndexError(f"index {(alpha, beta, gamma)} out of range 1..3")
        return getattr(self, TRIPLE_TO_NAME[idx])

    def components(self):
        """Component vector over SORTED_TRIPLES."""
        return [getattr(self, TRIPLE_TO_NAME[t]) for t in SORTED_TRIPLES]

    def evaluate(self, v):
        """G(v, v, v) as the full 27-term contraction (orbit-weighted sum)."""
        total = Fraction(0)
        for t in SORTED_TRIPLES:
            c = getattr(self, TRIPLE_TO_NAME[t])
            if c != 0:
                total += _ORBIT_SIZE[t] * c * v[t[0] - 1] * v[t[1] - 1] * v[t[2] - 1]
        return total

    def pullback(self, T):
        """Components in the new frame: G'_{abc} = G_{def} T^d_a T^e_b T^f_c."""
        if T.det() == 0:
            raise SingularTransformError("pullback requires an invertible transform")
        rows = T.rows
        comps = {}
        for (a, b, c) in SORTED_TRIPLES:
            total = Fraction(0)
            for d, e, f in product(range(1, 4), repeat=3):
                g = self.component(d, e, f)
                if g != 0:
                    total += g * rows[d - 1][a - 1] * rows[e - 1][b - 1] * rows[f - 1][c - 1]
            comps[TRIPLE_TO_NAME[(a, b, c)]] = total
        return CubicForm(**comps)

    def radical(self):
        """Canonical basis of {v : v^d G_{d b c} = 0 for all b, c}."""
        contraction = []
        for (b, c) in ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)):
            contraction.append([self.component(d, b, c) for d in (1, 2, 3)])
        return [tuple(vec) for vec in nullspace(contraction, ncols=3)]

    def affine_type(self):
        """Number of nonzero stored components (frame dependent)."""
        return sum(1 for name in COMPONENT_NAMES if getattr(self, name) != 0)

    def is_zero(self):
        return self.affine_type() == 0

    def __add__(self, other):
        return CubicForm(**{n: getattr(self, n) + getattr(other, n) for n in COMPONENT_NAMES})

    def scale(self, c):
        c = Fraction(c)
        return CubicForm(**{n: c * getattr(self, n) for n in COMPONENT_NAMES})

    def to_json(self):
        return {name: scalar_to_json(getattr(self, name))
                for name in COMPONENT_NAMES if getattr(self, name) != 0}

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, dict):
            raise ValueError("form JSON must be an object with component keys")
        comps = {}
        for key, value in data.items():
            if key not in COMPONENT_NAMES:
                raise ValueError(f"unknown component key {key!r}")
            try:
                comps[key] = parse_scalar(value)
            except (ValueError, ZeroDivisionError, TypeError) as exc:
                raise ValueError(f"bad value for component {key!r}: {value!r}") from exc
        return cls(**comps)

    def describe(self):
        parts = [f"{name}={format_scalar(getattr(self, name))}"
                 for name in COMPONENT_NAMES if getattr(self, name) != 0]
        return ", ".join(parts) if parts else "0"

    def __repr__(self):
        return f"CubicForm({self.describe()})"


def symmetrized_monomial(i, j, k):
    """The form whose only stored component is 1 at the sorted index (i,j,k)."""
    idx = tuple(sorted((i, j, k)))
    if idx not in TRIPLE_TO_NAME:
        raise IndexError(f"index {(i, j, k)} out of range 1..3")
    return CubicForm(**{TRIPLE_TO_NAME[idx]: Fraction(1)})


def form_of(**components):
    """Build a CubicForm from named components (ints, strings or Fractions)."""
    return CubicForm(**{name: parse_scalar(v) for name, v in components.items()})


def _canonical_columns(radius):
    """Nonzero integer 3-vectors with entries in [-radius, radius], first
    nonzero entry positive (column sign is irrelevant to the nonzero count)."""
    cols = []
    rng = range(-radius, radius + 1)
    for v in product(rng, repeat=3):
        if v == (0, 0, 0):
            continue
        lead = next(x for x in v if x != 0)
        if lead > 0:
            cols.append(v)
    return cols


def _int_components(form):
    """Integer-scaled component dict keyed by sorted triple (tau unchanged)."""
    from math import lcm
    denoms = [getattr(form, n).denominator for n in COMPONENT_NAMES]
    m = lcm(*denoms)
    table = {}
    for t in SORTED_TRIPLES:
        c = getattr(form, TRIPLE_TO_NAME[t])
        table[t] = int(c * m)
    return table


def tau0_upper_bound(form, radius):
    """Minimum affine type over integer frames with entries in [-radius, radius].

    Returns (bound, witness) where the witness is an invertible integer Mat3
    realizing the bound.  The result upper-bounds the exact affine type and is
    non-increasing in the radius; the identity frame is always considered, so
    the bound never exceeds the current affine type.

    Frames are column triples a < b < c of canonical columns.  Nine of the ten
    pulled-back components have the shape G(u,u,v): A1..A3 = Q[x][x],
    C1 = Q[a][b], C2 = Q[a][c], C3 = Q[b][c], B1 = Q[b][a], B2 = Q[c][a] and
    B3 = Q[c][b], with Q[u][v] = G(u,u,v) tabulated once per call.  Only
    F = G(a,b,c) is computed per triple.  A column pair whose known nonzero
    count already reaches the best bound is skipped with all its triples, and
    the determinant is evaluated only for a triple that would improve the
    bound, so the first strictly improving frame in enumeration order wins.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    best = form.affine_type()
    witness = Mat3.identity()
    floor = 0 if best == 0 else 1
    if best == floor:
        return best, witness
    comp = _int_components(form)
    tensor = [[[comp[tuple(sorted((d, e, f)))] for f in (1, 2, 3)]
               for e in (1, 2, 3)] for d in (1, 2, 3)]
    cols = _canonical_columns(radius)
    ncols = len(cols)
    # slices[u][e][f] = G(u, e, f) and quad[u][f] = G(u, u, f)
    slices = [[[u[0] * tensor[0][e][f] + u[1] * tensor[1][e][f] + u[2] * tensor[2][e][f]
                for f in range(3)] for e in range(3)] for u in cols]
    quad = [[u[0] * m[0][f] + u[1] * m[1][f] + u[2] * m[2][f] for f in range(3)]
            for u, m in zip(cols, slices)]
    # nz[u][v] = 1 when Q[u][v] = G(u, u, v) is nonzero; nzt is its transpose
    nz = [[int(q[0] * v[0] + q[1] * v[1] + q[2] * v[2] != 0) for v in cols] for q in quad]
    nzt = [list(row) for row in zip(*nz)]
    diag = [nz[i][i] for i in range(ncols)]
    for ia in range(ncols):
        ca, ma, nza, nzta = cols[ia], slices[ia], nz[ia], nzt[ia]
        count_a = diag[ia]                                   # A1
        for ib in range(ia + 1, ncols):
            count_ab = count_a + diag[ib] + nza[ib] + nzta[ib]    # A2, C1, B1
            if count_ab >= best:
                continue
            cb, nzb, nztb = cols[ib], nz[ib], nzt[ib]
            # G(a, b, .) and a x b, once per pair
            f0, f1, f2 = (ma[0][f] * cb[0] + ma[1][f] * cb[1] + ma[2][f] * cb[2]
                          for f in range(3))
            x0 = ca[1] * cb[2] - ca[2] * cb[1]
            x1 = ca[2] * cb[0] - ca[0] * cb[2]
            x2 = ca[0] * cb[1] - ca[1] * cb[0]
            for ic in range(ib + 1, ncols):
                # A3, C2, B2, C3, B3
                count = count_ab + diag[ic] + nza[ic] + nzta[ic] + nzb[ic] + nztb[ic]
                if count >= best:
                    continue
                cc = cols[ic]
                if f0 * cc[0] + f1 * cc[1] + f2 * cc[2] != 0:     # F
                    count += 1
                    if count >= best:
                        continue
                if x0 * cc[0] + x1 * cc[1] + x2 * cc[2] == 0:
                    continue
                best = count
                witness = Mat3(tuple(zip(ca, cb, cc)))
                if best == floor:
                    return best, witness
                if count_ab >= best:
                    break
    return best, witness
