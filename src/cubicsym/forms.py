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
from .linalg import ZERO, nullspace, scale_to_integers


# bijection between sorted index triples and stored component names, A1..F
TRIPLE_TO_NAME = {
    (1, 1, 1): "A1", (2, 2, 2): "A2", (3, 3, 3): "A3",
    (1, 2, 2): "B1", (1, 3, 3): "B2", (2, 3, 3): "B3",
    (1, 1, 2): "C1", (1, 1, 3): "C2", (2, 2, 3): "C3",
    (1, 2, 3): "F",
}
COMPONENT_NAMES = tuple(TRIPLE_TO_NAME.values())

# sorted triples in lexicographic order; fixed once and used everywhere a
# component vector is needed (rows of the Killing system in particular)
SORTED_TRIPLES = tuple(sorted(TRIPLE_TO_NAME))

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


def _cross(u, v):
    """Cross product u x v of two 3-vectors of ints or rationals."""
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _det(r):
    """Determinant r[0] . (r[1] x r[2]) of a 3x3 array of ints or rationals."""
    c = _cross(r[1], r[2])
    return r[0][0] * c[0] + r[0][1] * c[1] + r[0][2] * c[2]


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
        if not isinstance(other, Mat3):
            return NotImplemented
        return Mat3(tuple(tuple(a + b for a, b in zip(ra, rb))
                          for ra, rb in zip(self.rows, other.rows)))

    def __sub__(self, other):
        if not isinstance(other, Mat3):
            return NotImplemented
        return Mat3(tuple(tuple(a - b for a, b in zip(ra, rb))
                          for ra, rb in zip(self.rows, other.rows)))

    def scale(self, c):
        c = parse_scalar(c)
        return Mat3(tuple(tuple(c * v for v in row) for row in self.rows))

    def __matmul__(self, other):
        if not isinstance(other, Mat3):
            return NotImplemented
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
        # the adjugate: row i is column i+1 x column i+2, so its dot product
        # with column j is det when j == i and 0 otherwise
        c = tuple(zip(*self.rows))
        return Mat3(tuple(tuple(v / d for v in _cross(c[(i + 1) % 3], c[(i + 2) % 3]))
                          for i in range(3)))

    def is_zero(self):
        return all(v == 0 for row in self.rows for v in row)

    def flatten(self):
        """Row-major 9-vector (entry order (1,1),(1,2),...,(3,3))."""
        return [v for row in self.rows for v in row]

    @classmethod
    def from_flat(cls, vec):
        """The matrix of a row-major 9-vector; other lengths raise ValueError."""
        return cls([vec[i:i + 3] for i in range(0, len(vec), 3)])

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


# the witness of a frame search that keeps the given frame
_IDENTITY = Mat3.identity()


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

    def __init__(self, A1=ZERO, A2=ZERO, A3=ZERO, B1=ZERO, B2=ZERO, B3=ZERO,
                 C1=ZERO, C2=ZERO, C3=ZERO, F=ZERO):
        for name, value in zip(COMPONENT_NAMES, (A1, A2, A3, B1, B2, B3, C1, C2, C3, F)):
            object.__setattr__(self, name,
                               value if value.__class__ is Fraction else parse_scalar(value))

    def component(self, alpha, beta, gamma):
        """Tensor component for any index order; permutation invariant.
        Each index is an int in 1..3; any other value, a bool or a float
        included, raises IndexError."""
        if any(i.__class__ is not int or not 1 <= i <= 3 for i in (alpha, beta, gamma)):
            raise IndexError(f"index {(alpha, beta, gamma)} out of range 1..3")
        return getattr(self, _SORTED_NAMES[_FULL_INDEX[alpha - 1][beta - 1][gamma - 1]])

    def components(self):
        """Component vector over SORTED_TRIPLES."""
        return list(_sorted_components(self))

    def evaluate(self, v):
        """G(v, v, v) as the full 27-term contraction (orbit-weighted sum)."""
        total = ZERO
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
        return [tuple(vec) for vec in nullspace(contraction)]

    def affine_type(self):
        """Number of nonzero stored components (frame dependent)."""
        return sum(1 for name in COMPONENT_NAMES if getattr(self, name) != 0)

    def __add__(self, other):
        if not isinstance(other, CubicForm):
            return NotImplemented
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
        return ", ".join(f"{k}={v}" for k, v in self.to_json().items()) or "0"

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
    (cols, after).  cols are the primitive canonical columns: the integer
    3-vectors with entries in [-radius, radius], first nonzero entry positive
    and gcd 1 (gcd(0, 0, 0) = 0 drops the zero vector), in lexicographic
    order.  after[u] is the mask of the columns after column u."""
    rng = range(-radius, radius + 1)
    cols = tuple(v for v in product(rng, repeat=3)
                 if gcd(*v) == 1 and next(x for x in v if x) > 0)
    full = (1 << len(cols)) - 1
    return cols, tuple(full ^ ((2 << u) - 1) for u in range(len(cols)))


@lru_cache(maxsize=4)
def _pair_tables(radius, nbytes):
    """The ordered pairs of columns of the frame search, packed into fields
    of w = 8 nbytes bits: (biased, low, packed).  Pair (u, v) of the n columns
    owns the field n u + v.  biased holds 2^(w-2) and low 2^(w-1) - 1 in every
    field; packed[k] holds, in the field of (u, v), the coefficient c_k(u, v)
    of the k-th stored component (SORTED_TRIPLES order) in
    G(u,u,v) = sum_k G_k c_k(u, v): the sum of u_d u_e v_f over the index
    triples (d, e, f) that sort to k.  A field is a signed value, so a packed
    int is sum over pairs of c_k(u, v) 2^(w (n u + v)).

    c_k(u, v) = sum_f q_kf(u) v_f, so packed[k] is sum_f V_f Q_kf, with V_f the
    f-th entries of the columns in w-bit fields and Q_kf the q_kf(u) in fields
    of n w bits: each product puts q_kf(u) v_f at bit w (n u + v).

    An entry is twelve ints of n^2 nbytes bytes.  n = 13, 49 and 145 columns
    at radius 1, 2 and 3 give 169, 2,401 and 21,025 fields, so an entry takes
    ~2.3, ~31 and ~270 KB per byte of field width: ~62 KB for the 16-bit
    fields of a box form at radius 2 and ~540 KB at radius 3.  n^2 grows as
    radius^6, and the width with the size of the form's coefficients, which
    tau0_upper_bound makes coprime: a multiple of a form shares its tables,
    and the catalog branches and their rational pullbacks need 1-3 bytes,
    but 40-digit coprime components need 19 (~5 MB at radius 3).  At most
    four entries are kept."""
    cols = _frame_tables(radius)[0]
    n = len(cols)
    q = [[[0] * n for _ in range(3)] for _ in SORTED_TRIPLES]
    for iu, u in enumerate(cols):
        for d, e, f in product(range(3), repeat=3):
            q[_FULL_INDEX[d][e][f]][f][iu] += u[d] * u[e]
    w = 8 * nbytes
    entries = [sum(v[f] << (w * i) for i, v in enumerate(cols)) for f in range(3)]
    packed = tuple(sum(entries[f] * sum(x << (n * w * i) for i, x in enumerate(qk[f]))
                       for f in range(3) if any(qk[f]))
                   for qk in q)
    ones = int.from_bytes(b"\x01".ljust(nbytes, b"\x00") * (n * n), "little")
    return ones << (w - 2), (ones << (w - 1)) - ones, packed


# the top byte of a field of (e ^ biased) + low is below 0x80 iff G(u,u,v) = 0 there
_FLAGS = b"1" * 128 + b"0" * 128


def _zero_pattern(coeffs, radius):
    """(zero, zero_t, diag) over the columns of the frame search: zero[u] is
    the mask of the columns v with G(u,u,v) = 0, zero_t[v] the mask of the
    columns u with G(u,u,v) = 0 and diag the mask of the columns u with
    G(u,u,u) = 0, for the integer component vector coeffs (SORTED_TRIPLES
    order) of G.

    The sum of coeffs[k] packed[k] (_pair_tables) holds G(u,u,v) in the field
    of pair (u, v).  A term u_d u_e v_f is at most radius^3 in size and c_k
    has as many terms as k has orderings, so |G(u,u,v)| <= bound.  The field
    width w = 8 nbytes is (2 bound).bit_length() + 1 rounded up to whole
    bytes, so |G(u,u,v)| < 2^(w-2).  With biased added every field holds
    G(u,u,v) + 2^(w-2) in [1, 2^(w-1)), and no field borrows from the next;
    xoring biased away leaves a field in [0, 2^(w-1)) that is zero iff
    G(u,u,v) is, and adding low then sets the top bit of exactly the nonzero
    fields.  The top byte of every field, as '1' (zero) or '0' after
    translate, makes a string whose char n^2 - 1 - (n u + v) is the bit of
    pair (u, v): runs of n chars give the rows, every n-th char the columns
    and every (n+1)-th char the diagonal."""
    bound = radius ** 3 * sum(abs(x) * _ORBIT_SIZE[t] for x, t in zip(coeffs, SORTED_TRIPLES))
    nbytes = ((2 * bound).bit_length() + 8) // 8
    biased, low, packed = _pair_tables(radius, nbytes)
    n = len(_frame_tables(radius)[0])
    e = biased
    for x, p in zip(coeffs, packed):
        if x:
            e += x * p
    bits = (((e ^ biased) + low).to_bytes(n * n * nbytes, "big")[::nbytes]).translate(_FLAGS)
    zero = [int(bits[j:j + n], 2) for j in range(n * n - n, -1, -n)]
    zero_t = [int(bits[j::n], 2) for j in range(n - 1, -1, -1)]
    return zero, zero_t, int(bits[::n + 1], 2)


def _second_columns(reach_a, base):
    """Columns b after a that leave a pair (a, b) a candidate third column
    c > b (see tau0_upper_bound), from a's reach row and base = best - 4 - d(a).

    With s(b) = [d(b) = 0] + [G(a,a,b) = 0] + [G(b,b,a) = 0], the pair may
    still spend k = base + s(b) nonzero components on c, and every such c lies
    in Z_k, the columns with s >= 3 - k (every column once k >= 3).  So b must
    come before the last column of Z_k; as the Z_k are nested, b is kept when
    s(b) >= i - base and b comes before the last column of Z_i, for some i.
    reach_a[5], [4], [3] and [2] hold the columns after a with s >= 0, 1, 2
    and 3, and base >= -3, as the search runs only while best >= 2."""
    # s_k and cut_k, the columns before the last of s_k (s0 >> 1 on subsets of s0)
    s0 = reach_a[5]
    cut0 = s0 >> 1
    if base >= 3:
        return s0 & cut0
    s1 = reach_a[4]
    cut1 = ((1 << s1.bit_length()) - 1) >> 1
    if base == 2:
        return s0 & cut1 | s1 & cut0
    s2 = reach_a[3]
    cut2 = ((1 << s2.bit_length()) - 1) >> 1
    if base == 1:
        return s0 & cut2 | s1 & cut1 | s2 & cut0
    s3 = reach_a[2]
    cut3 = ((1 << s3.bit_length()) - 1) >> 1
    if base == 0:
        return s0 & cut3 | s1 & cut2 | s2 & cut1 | s3 & cut0
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

    Per radius (_frame_tables): the columns and the masks of later columns.
    Per radius and byte-rounded field width (_pair_tables): every ordered
    column pair (u, v) owns a field of a packed int, and one packed int per
    stored component holds that component's coefficient in G(u,u,v).  Per
    call (_zero_pattern): the field width from the size of the form's
    integer components, divided by their gcd (a scalar factor changes no
    zero pattern), then one packed sum of the components times their packed
    ints, which holds G(u,u,v) for every pair; its zero fields give the zero
    pattern of G(u,u,v) as bitmasks over the columns, by rows and by columns.
    From those, the masks of third columns that each second column leaves.
    The search reads only t(u,v) = 0 and t(u,v) <= 1, the AND and the OR of
    a row and a column.  The second columns b of a first column a that leave
    a candidate third column (_second_columns), and the third columns c of a
    pair, are then a few mask ANDs and ORs; they are walked in increasing
    order and narrowed whenever the bound drops.  G(a,.,.) is computed only
    for a first column with a candidate pair, G(a,b,.) only for a pair with a
    candidate c, and the determinant only for a triple that would improve the
    bound, so the first strictly improving frame in enumeration order wins.
    Its columns are kept as tuples, and one Mat3 is made for the frame
    returned.

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
    if best <= 1:
        return best, _IDENTITY
    coeffs, _ = scale_to_integers(form.components())
    # a scalar factor changes no zero pattern, so every multiple of a form
    # shares its field width and tables
    g = gcd(*coeffs)
    coeffs = [x // g for x in coeffs]
    tensor = _full_tensor(coeffs)
    cols, after = _frame_tables(radius)
    zero, zero_t, flat = _zero_pattern(coeffs, radius)       # flat: columns v with d(v) = 0
    # t0[u]: columns v with t(u, v) = 0; t1[u]: columns v with t(u, v) <= 1
    t0 = [z & zt for z, zt in zip(zero, zero_t)]
    t1 = [z | zt for z, zt in zip(zero, zero_t)]
    # reach[u][k + 2]: columns v after u with d(v) + t(u, v) <= k, for -2 <= k <= 9
    reach = [(0, 0, flat & m0 & later, (flat & m1 | m0) & later, (flat | m1) & later,
              later, later, later, later, later, later, later)
             for m0, m1, later in zip(t0, t1, after)]
    witness = None
    for ia, (t0_a, t1_a, reach_a) in enumerate(zip(t0, t1, reach)):
        count_a = 1 - (flat >> ia & 1)                                   # A1
        bmask = _second_columns(reach_a, best - 4 - count_a)
        if not bmask:
            continue
        ca, ma = cols[ia], None
        while bmask:
            bit = bmask & -bmask
            bmask ^= bit
            ib = bit.bit_length() - 1
            # A2, C1, B1; the third columns c of the pair have d(c) + t(a,c) + t(b,c) <= k
            count_ab = count_a + 3 - (flat >> ib & 1) - (t0_a >> ib & 1) - (t1_a >> ib & 1)
            reach_b = reach[ib]
            j = best + 1 - count_ab                                      # k + 2
            cmask = t0_a & reach_b[j] | t1_a & reach_b[j - 1] | reach_b[j - 2]
            if not cmask:
                continue
            if ma is None:
                # ma[e][f] = G(a, e, f)
                ma = [[ca[0] * tensor[0][e][f] + ca[1] * tensor[1][e][f] + ca[2] * tensor[2][e][f]
                       for f in range(3)] for e in range(3)]
            cb, t0_b, t1_b = cols[ib], t0[ib], t1[ib]
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
                count = (count_ab + 5 - (flat >> ic & 1) - (t0_a >> ic & 1) - (t1_a >> ic & 1)
                         - (t0_b >> ic & 1) - (t1_b >> ic & 1)
                         + (f0 * cc[0] + f1 * cc[1] + f2 * cc[2] != 0))
                if count >= best:
                    continue
                best = count
                witness = ca, cb, cc
                if best == 1:
                    return best, Mat3(tuple(zip(*witness)))
                bmask &= _second_columns(reach_a, best - 4 - count_a)
                if count_ab >= best:
                    break
                j = best + 1 - count_ab
                cmask &= t0_a & reach_b[j] | t1_a & reach_b[j - 1] | reach_b[j - 2]
    return best, _IDENTITY if witness is None else Mat3(tuple(zip(*witness)))
