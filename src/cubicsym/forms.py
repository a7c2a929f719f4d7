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

import re
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd
from operator import attrgetter

from ._record import record
from .linalg import nullspace, scale_to_integers


COMPONENT_NAMES = ("A1", "A2", "A3", "B1", "B2", "B3", "C1", "C2", "C3", "F")
_ZERO = Fraction(0)

# bijection between sorted index triples and stored component names
TRIPLE_TO_NAME = {
    (1, 1, 1): "A1", (2, 2, 2): "A2", (3, 3, 3): "A3",
    (1, 2, 2): "B1", (1, 3, 3): "B2", (2, 3, 3): "B3",
    (1, 1, 2): "C1", (1, 1, 3): "C2", (2, 2, 3): "C3",
    (1, 2, 3): "F",
}

# sorted triples in lexicographic order; fixed once and used everywhere a
# component vector is needed (rows of the Killing system in particular)
SORTED_TRIPLES = (
    (1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 2), (1, 2, 3),
    (1, 3, 3), (2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 3, 3),
)

# _FULL_INDEX[d][e][f] = position of the sorted (d+1, e+1, f+1) in SORTED_TRIPLES
_FULL_INDEX = tuple(tuple(tuple(SORTED_TRIPLES.index(tuple(sorted((d, e, f))))
                                for f in (1, 2, 3)) for e in (1, 2, 3)) for d in (1, 2, 3))

# component names in SORTED_TRIPLES order
_SORTED_NAMES = tuple(TRIPLE_TO_NAME[t] for t in SORTED_TRIPLES)
_sorted_components = attrgetter(*_SORTED_NAMES)

# evaluation weight = number of distinct permutations of the triple
_ORBIT_SIZE = {t: (1 if t[0] == t[2] else (6 if len(set(t)) == 3 else 3))
               for t in SORTED_TRIPLES}

# the scalar strings every supported Python parses alike: '-3', '3/4', '0.5', '2.', '.5'
_SCALAR = re.compile(r"[+-]?(?:[0-9]+(?:/[0-9]+)?|[0-9]+\.[0-9]*|\.[0-9]+)")


def parse_scalar(value):
    """Parse an exact rational from an int, Fraction, or a string in the
    grammar of _SCALAR: an integer, 'p/q' or a decimal, in ASCII digits with
    an optional sign and surrounding whitespace.  The grammar is checked here
    rather than left to Fraction, whose own grammar differs between Python
    releases; exponent notation ('1e5') is refused, as Fraction would expand
    it to an integer of any size before a check could run."""
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        text = value.strip()
        if _SCALAR.fullmatch(text) is None:
            raise ValueError("expected an integer, 'p/q' or a decimal in ASCII digits "
                             f"without exponent: {value!r}")
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator: {value!r}") from None
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def format_scalar(x):
    """Lowest-terms text for a rational: '5', '-2/3', ..."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def scalar_to_json(x):
    x = Fraction(x)
    return int(x) if x.denominator == 1 else format_scalar(x)


class SingularTransformError(ValueError):
    """Raised when an operation requires an invertible transform."""


def _det(r):
    """Determinant of a 3x3 array of ints or rationals."""
    return (r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
            - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
            + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0]))


@record
class Mat3:
    """Immutable 3x3 matrix of exact rationals.

    Doubles as an affine transform T (new components X^a = T^a_b x^b) and as
    the coefficient matrix of a linear vector field.  Entries are read by
    parse_scalar, so a float or a bool is refused with TypeError.
    """

    rows: tuple

    def __init__(self, rows):
        rows = tuple(tuple(parse_scalar(v) for v in row) for row in rows)
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("Mat3 needs a 3x3 array")
        object.__setattr__(self, "rows", rows)

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

    def __add__(self, other):
        return Mat3(tuple(tuple(a + b for a, b in zip(ra, rb))
                          for ra, rb in zip(self.rows, other.rows)))

    def __sub__(self, other):
        return Mat3(tuple(tuple(a - b for a, b in zip(ra, rb))
                          for ra, rb in zip(self.rows, other.rows)))

    def scale(self, c):
        c = parse_scalar(c)
        return Mat3(tuple(tuple(c * v for v in row) for row in self.rows))

    def __matmul__(self, other):
        return Mat3(tuple(
            tuple(sum(self.rows[i][k] * other.rows[k][j] for k in range(3))
                  for j in range(3))
            for i in range(3)))

    def apply(self, v):
        """Matrix-vector product T v."""
        return tuple(sum(self.rows[i][k] * v[k] for k in range(3)) for i in range(3))

    def det(self):
        return _det(self.rows)

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
            return cls(data)
        except TypeError as exc:
            raise ValueError(f"bad matrix entry: {exc}") from exc

    def __repr__(self):
        return "Mat3([" + ", ".join("[" + ", ".join(format_scalar(v) for v in row) + "]"
                                    for row in self.rows) + "])"


@record
class CubicForm:
    """The ten stored components of a symmetric cubic tensor.

    An immutable value: equality and hash go by class and components.
    Components are read by parse_scalar, so a float or a bool is refused
    with TypeError.  The one slot that is not a field holds the report
    classify stores on the form; a copy or a pickle does not carry it.
    """

    A1: Fraction
    A2: Fraction
    A3: Fraction
    B1: Fraction
    B2: Fraction
    B3: Fraction
    C1: Fraction
    C2: Fraction
    C3: Fraction
    F: Fraction
    __slots__ = ("_classification",)

    def __init__(self, A1=_ZERO, A2=_ZERO, A3=_ZERO, B1=_ZERO, B2=_ZERO, B3=_ZERO,
                 C1=_ZERO, C2=_ZERO, C3=_ZERO, F=_ZERO):
        for name, value in zip(COMPONENT_NAMES, (A1, A2, A3, B1, B2, B3, C1, C2, C3, F)):
            object.__setattr__(self, name,
                               value if value.__class__ is Fraction else parse_scalar(value))

    def component(self, alpha, beta, gamma):
        """Tensor component for any index order; permutation invariant."""
        if alpha not in (1, 2, 3) or beta not in (1, 2, 3) or gamma not in (1, 2, 3):
            raise IndexError(f"index {(alpha, beta, gamma)} out of range 1..3")
        return getattr(self, _SORTED_NAMES[_FULL_INDEX[alpha - 1][beta - 1][gamma - 1]])

    def components(self):
        """Component vector over SORTED_TRIPLES."""
        return list(_sorted_components(self))

    def evaluate(self, v):
        """G(v, v, v) as the full 27-term contraction (orbit-weighted sum)."""
        total = Fraction(0)
        for t in SORTED_TRIPLES:
            c = getattr(self, TRIPLE_TO_NAME[t])
            if c != 0:
                total += _ORBIT_SIZE[t] * c * v[t[0] - 1] * v[t[1] - 1] * v[t[2] - 1]
        return total

    def pullback(self, T):
        """Components in the new frame: G'_{abc} = G_{def} T^d_a T^e_b T^f_c.

        With G = M/m and T = S/s for integer M and S, G' = M(S, S, S) / (m s^3):
        the contraction runs over ints one index at a time, and each of the
        ten components makes one Fraction at the end.
        """
        flat, s = scale_to_integers(T.flatten())
        S = [flat[0:3], flat[3:6], flat[6:9]]
        if _det(S) == 0:
            raise SingularTransformError("pullback requires an invertible transform")
        M, m = _int_tensor(self)
        cols = list(zip(*S))
        # M(a, e, f), then M(a, b, f); M(a, b, c) only for the sorted triples
        M = [[[u[0] * M[0][e][f] + u[1] * M[1][e][f] + u[2] * M[2][e][f]
               for f in range(3)] for e in range(3)] for u in cols]
        M = [[[u[0] * Ma[0][f] + u[1] * Ma[1][f] + u[2] * Ma[2][f]
               for f in range(3)] for u in cols] for Ma in M]
        den = m * s ** 3
        return CubicForm(**{
            TRIPLE_TO_NAME[t]: Fraction(sum(x * y for x, y in zip(M[t[0] - 1][t[1] - 1],
                                                                 cols[t[2] - 1])), den)
            for t in SORTED_TRIPLES})

    def radical(self):
        """Canonical basis of {v : v^d G_{d b c} = 0 for all b, c}."""
        G = _full_tensor(self.components())
        contraction = [[G[d][b][c] for d in range(3)]
                       for b, c in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))]
        return [tuple(vec) for vec in nullspace(contraction, ncols=3)]

    def affine_type(self):
        """Number of nonzero stored components (frame dependent)."""
        return sum(1 for name in COMPONENT_NAMES if getattr(self, name) != 0)

    def is_zero(self):
        return self.affine_type() == 0

    def __add__(self, other):
        return CubicForm(**{n: getattr(self, n) + getattr(other, n) for n in COMPONENT_NAMES})

    def scale(self, c):
        c = parse_scalar(c)
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
            except (ValueError, TypeError) as exc:
                raise ValueError(f"bad value for component {key!r}: {value!r}") from exc
        return cls(**comps)

    def describe(self):
        parts = [f"{name}={format_scalar(getattr(self, name))}"
                 for name in COMPONENT_NAMES if getattr(self, name) != 0]
        return ", ".join(parts) if parts else "0"

    def __repr__(self):
        return f"CubicForm({self.describe()})"


def _full_tensor(flat):
    """The 3x3x3 tensor T[d][e][f] = flat[position of the sorted (d+1, e+1, f+1)]
    of a component vector over SORTED_TRIPLES."""
    return [[[flat[k] for k in row] for row in plane] for plane in _FULL_INDEX]


def _int_tensor(form):
    """(M, m): m is the lcm of the component denominators and M the integer
    tensor with M[d][e][f] = m * G(d+1, e+1, f+1)."""
    flat, m = scale_to_integers(form.components())
    return _full_tensor(flat), m


@lru_cache(maxsize=4)
def _frame_tables(radius):
    """The tables of the frame search that depend only on the radius:
    (cols, monos, after, unit).  cols are the primitive canonical columns:
    the integer 3-vectors with entries in [-radius, radius], first nonzero
    entry positive and gcd 1 (gcd(0, 0, 0) = 0 drops the zero vector), in
    lexicographic order.  monos[u] holds the quadratic monomials u_d u_e of
    column u in the order 11, 12, 13, 22, 23, 33, after[u] the mask of the
    columns after column u and unit[u] the bit 1 << u of column u."""
    rng = range(-radius, radius + 1)
    cols = tuple(v for v in product(rng, repeat=3)
                 if gcd(*v) == 1 and next(x for x in v if x) > 0)
    monos = tuple((u0 * u0, u0 * u1, u0 * u2, u1 * u1, u1 * u2, u2 * u2)
                  for u0, u1, u2 in cols)
    unit = tuple(1 << i for i in range(len(cols)))
    full = (1 << len(cols)) - 1
    after = tuple(full ^ ((u << 1) - 1) for u in unit)
    return cols, monos, after, unit


@lru_cache(maxsize=8)
def _packed_columns(radius, w):
    """The packed columns of the frame search for a field width of w bits:
    (high, low, biased, packed).  Column v owns bits w v .. w v + w - 1 of a
    packed int; packed[i] holds the i-th entries of all columns, high the top
    bit of every field, low the bits below it and biased 2^(w-2) in every
    field."""
    cols = _frame_tables(radius)[0]
    ones = sum(1 << (w * iv) for iv in range(len(cols)))
    high = ones << (w - 1)
    packed = tuple(sum(v[i] << (w * iv) for iv, v in enumerate(cols)) for i in range(3))
    return high, high - ones, ones << (w - 2), packed


def _second_columns(flat, t0_a, t1_a, base, full):
    """Columns b that leave a pair (a, b) a candidate third column c > b (see
    tau0_upper_bound), from a's masks of t(a,v) = 0 and t(a,v) <= 1 and
    base = best - 4 - d(a).

    With s(b) = [d(b) = 0] + [G(a,a,b) = 0] + [G(b,b,a) = 0], the pair may
    still spend k = base + s(b) nonzero components on c, and every such c lies
    in Z_k, the columns with s >= 3 - k (every column once k >= 3).  So b must
    come before the last column of Z_k; as the Z_k are nested, b is kept when
    s(b) >= i - base and b comes before the last column of Z_i, for some i."""
    if base >= 3:
        return full >> 1
    if base < -3:
        return 0
    # the columns with s >= 1, 2 and 3, and the columns before the last of each
    s1 = flat | t1_a
    s2 = flat & t1_a | t0_a
    s3 = flat & t0_a
    cut1 = ((1 << s1.bit_length()) - 1) >> 1
    cut2 = ((1 << s2.bit_length()) - 1) >> 1
    cut3 = ((1 << s3.bit_length()) - 1) >> 1
    if base == 2:
        return cut1 | s1 & full >> 1
    if base == 1:
        return cut2 | s1 & cut1 | s2 & full >> 1
    if base == 0:
        return cut3 | s1 & cut2 | s2 & cut1 | s3 & full >> 1
    if base == -1:
        return s1 & cut3 | s2 & cut2 | s3 & cut1
    if base == -2:
        return s2 & cut3 | s3 & cut2
    return s3 & cut3


def tau0_upper_bound(form, radius):
    """Minimum affine type over integer frames with entries in [-radius, radius].

    Returns (bound, witness) where the witness is an invertible integer Mat3
    realizing the bound.  The result upper-bounds the exact affine type and is
    non-increasing in the radius; the identity frame is always considered, so
    the bound never exceeds the current affine type.

    Frames are column triples a < b < c of primitive canonical columns
    (_frame_tables).  Nine of the ten pulled-back components have the shape
    G(u,u,v): A1..A3 = G(x,x,x), C1 = G(a,a,b), C2 = G(a,a,c), C3 = G(b,b,c),
    B1 = G(b,b,a), B2 = G(c,c,a) and B3 = G(c,c,b).  So besides F = G(a,b,c)
    a frame has d(a) + d(b) + d(c) + t(a,b) + t(a,c) + t(b,c) nonzero
    components, with d(u) = [G(u,u,u) != 0] and
    t(u,v) = [G(u,u,v) != 0] + [G(v,v,u) != 0].

    Per radius (_frame_tables): the columns, their quadratic monomials, the
    masks of later columns and the unit bit of each column.  Per radius and
    field width w (_packed_columns): the columns packed into three ints, one
    w-bit field per column.  Per call: G(u,u,.) from the monomials, w from its
    size, the zero pattern of G(u,u,v) as bitmasks over the columns (one
    packed product per column u) and the masks of third columns that each
    second column leaves.  The second columns b of a first column a that leave
    a candidate third column (_second_columns), and the third columns c of a
    pair, are then a few mask ANDs and ORs; they are walked in increasing
    order and narrowed whenever the bound drops.  G(a,.,.) is computed only
    for a first column with a candidate pair, G(a,b,.) only for a pair with a
    candidate c, and the determinant only for a triple that would improve the
    bound, so the first strictly improving frame in enumeration order wins.

    Leaving out the non-primitive columns changes no (bound, witness).  A
    column's sign changes no zero component, and neither does a factor k > 1:
    each pulled-back component is multiplied by a power of k when a column p
    becomes k p, and so is the determinant.  So a frame holding k p has the
    count of the frame holding p instead, and both are invertible or neither
    (p itself is not in an invertible frame with k p).  p comes before k p in
    the enumeration, so the second frame, sorted, comes before the first.  As
    the search accepts only strict improvements and prunes only triples that
    cannot improve the bound, it returns the identity or the first frame of
    least count in enumeration order, and that frame holds no non-primitive
    column.
    """
    if not isinstance(radius, int) or isinstance(radius, bool) or radius < 1:
        raise ValueError("radius must be an int >= 1")
    best = form.affine_type()
    witness = Mat3.identity()
    floor = 0 if best == 0 else 1
    if best == floor:
        return best, witness
    tensor, _ = _int_tensor(form)
    cols, monos, after, unit = _frame_tables(radius)
    ncols = len(cols)
    full = (1 << ncols) - 1
    # quad[u][f] = G(u, u, f) = sum over d <= e of u_d u_e coef[f][de]
    (p0, p1, p2, p3, p4, p5), (q0, q1, q2, q3, q4, q5), (r0, r1, r2, r3, r4, r5) = (
        (tensor[0][0][f], 2 * tensor[0][1][f], 2 * tensor[0][2][f],
         tensor[1][1][f], 2 * tensor[1][2][f], tensor[2][2][f]) for f in range(3))
    quad = [(m0 * p0 + m1 * p1 + m2 * p2 + m3 * p3 + m4 * p4 + m5 * p5,
             m0 * q0 + m1 * q1 + m2 * q2 + m3 * q3 + m4 * q4 + m5 * q5,
             m0 * r0 + m1 * r1 + m2 * r2 + m3 * r3 + m4 * r4 + m5 * r5)
            for m0, m1, m2, m3, m4, m5 in monos]
    # zero[u]: columns v with G(u, u, v) = 0; zero_t[u]: columns v with G(v, v, u) = 0.
    # quad[u] . v for every v at once: column v owns a w-bit field of a packed
    # int holding quad[u] . v + 2^(w-2), which lies in [1, 2^(w-1)), and a field
    # is zero exactly when its top bit survives high & ~(((e & low) + low) | e).
    bound = radius * max(abs(x) + abs(y) + abs(z) for x, y, z in quad)
    w = (2 * bound).bit_length() + 1
    high, low, biased, (c0, c1, c2) = _packed_columns(radius, w)
    zero = []
    zero_t = [0] * ncols
    flat = 0        # columns v with d(v) = 0
    for iu, (x, y, z) in enumerate(quad):
        e = (x * c0 + y * c1 + z * c2 + biased) ^ biased
        m = high & ~(((e & low) + low) | e)
        row = 0
        if m:
            bit_u = unit[iu]
            while m:
                top = m.bit_length()
                m ^= 1 << (top - 1)
                iv = top // w - 1
                row |= unit[iv]
                zero_t[iv] |= bit_u
            flat |= row & bit_u
        zero.append(row)
    # reach[u][k + 2]: columns v after u with d(v) + t(u, v) <= k, for -2 <= k <= 9
    reach = []
    for z, zt, later in zip(zero, zero_t, after):
        m0, m1 = z & zt, z | zt
        reach.append((0, 0, flat & m0 & later, (flat & m1 | m0) & later, (flat | m1) & later,
                      later, later, later, later, later, later, later))
    for ia in range(ncols):
        za, zta = zero[ia], zero_t[ia]
        t0_a, t1_a = za & zta, za | zta
        count_a = 1 - (flat >> ia & 1)                                   # A1
        bmask = _second_columns(flat, t0_a, t1_a, best - 4 - count_a, full) & after[ia]
        if not bmask:
            continue
        ca, ma = cols[ia], None
        while bmask:
            bit = bmask & -bmask
            bmask ^= bit
            ib = bit.bit_length() - 1
            # A2, C1, B1; the third columns c of the pair have d(c) + t(a,c) + t(b,c) <= k
            count_ab = count_a + 3 - (flat >> ib & 1) - (za >> ib & 1) - (zta >> ib & 1)
            reach_b = reach[ib]
            j = best + 1 - count_ab                                      # k + 2
            cmask = t0_a & reach_b[j] | t1_a & reach_b[j - 1] | reach_b[j - 2]
            if not cmask:
                continue
            if ma is None:
                # ma[e][f] = G(a, e, f)
                ma = [[ca[0] * tensor[0][e][f] + ca[1] * tensor[1][e][f] + ca[2] * tensor[2][e][f]
                       for f in range(3)] for e in range(3)]
            cb, zb, ztb = cols[ib], zero[ib], zero_t[ib]
            # G(a, b, .) and a x b, once per pair
            f0, f1, f2 = (ma[0][f] * cb[0] + ma[1][f] * cb[1] + ma[2][f] * cb[2]
                          for f in range(3))
            x0 = ca[1] * cb[2] - ca[2] * cb[1]
            x1 = ca[2] * cb[0] - ca[0] * cb[2]
            x2 = ca[0] * cb[1] - ca[1] * cb[0]
            while cmask:
                bit = cmask & -cmask
                cmask ^= bit
                ic = bit.bit_length() - 1
                cc = cols[ic]
                if x0 * cc[0] + x1 * cc[1] + x2 * cc[2] == 0:
                    continue
                # A3, C2, B2, C3, B3 and F
                count = (count_ab + 5 - (flat >> ic & 1) - (za >> ic & 1) - (zta >> ic & 1)
                         - (zb >> ic & 1) - (ztb >> ic & 1)
                         + (f0 * cc[0] + f1 * cc[1] + f2 * cc[2] != 0))
                if count >= best:
                    continue
                best = count
                witness = Mat3(tuple(zip(ca, cb, cc)))
                if best == floor:
                    return best, witness
                bmask &= _second_columns(flat, t0_a, t1_a, best - 4 - count_a, full)
                if count_ab >= best:
                    break
                j = best + 1 - count_ab
                cmask &= t0_a & reach_b[j] | t1_a & reach_b[j - 1] | reach_b[j - 2]
    return best, witness
