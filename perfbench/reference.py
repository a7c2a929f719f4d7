"""The benchmark's own exact tensor arithmetic, independent of cubicsym.

The output checks must not trust the code they time, so the contractions
used to check results are written out here from their definitions on plain
dicts of Fractions.  A form is a JSON object with the ten component keys;
a matrix is a 3x3 list of rows.  Nothing here imports cubicsym.
"""

from fractions import Fraction
from itertools import permutations, product

COMPONENT_NAMES = ("A1", "A2", "A3", "B1", "B2", "B3", "C1", "C2", "C3", "F")
_NAME_OF = {
    (1, 1, 1): "A1", (2, 2, 2): "A2", (3, 3, 3): "A3",
    (1, 2, 2): "B1", (1, 3, 3): "B2", (2, 3, 3): "B3",
    (1, 1, 2): "C1", (1, 1, 3): "C2", (2, 2, 3): "C3",
    (1, 2, 3): "F",
}
_TRIPLES = tuple(sorted(_NAME_OF))

BOX_SIZE = 3 ** len(COMPONENT_NAMES)


def box_form(index):
    """Form JSON of entry `index` of the {-1,0,1}^10 box (A1 varies fastest)."""
    out = {}
    for name in COMPONENT_NAMES:
        index, digit = divmod(index, 3)
        if digit != 1:
            out[name] = digit - 1
    return out


def box_index(form_json):
    index = 0
    for name in reversed(COMPONENT_NAMES):
        index = 3 * index + int(form_json.get(name, 0)) + 1
    return index


def tensor(form_json):
    """All 27 components G[(a, b, c)] of the symmetric tensor."""
    stored = {t: Fraction(form_json.get(name, 0)) for t, name in _NAME_OF.items()}
    return {abc: stored[tuple(sorted(abc))] for abc in product((1, 2, 3), repeat=3)}


def scalar_json(x):
    """An exact rational as JSON: an int, or a 'p/q' string."""
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def to_form_json(G):
    """Stored components of a symmetric tensor, zeros omitted."""
    return {name: scalar_json(G[t]) for t, name in _NAME_OF.items() if G[t] != 0}


def nonzero_count(form_json):
    return sum(1 for name in COMPONENT_NAMES if Fraction(form_json.get(name, 0)) != 0)


def matrix(rows):
    return [[Fraction(v) for v in row] for row in rows]


def det(M):
    return (M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
            - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
            + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0]))


def pullback(form_json, T):
    """G'_abc = G_def T^d_a T^e_b T^f_c, as form JSON."""
    G = tensor(form_json)
    T = matrix(T)
    new = {}
    for a, b, c in _TRIPLES:
        new[(a, b, c)] = sum(G[(d, e, f)] * T[d - 1][a - 1] * T[e - 1][b - 1] * T[f - 1][c - 1]
                             for d, e, f in product((1, 2, 3), repeat=3))
    return to_form_json({abc: new[tuple(sorted(abc))] for abc in product((1, 2, 3), repeat=3)})


def is_killing(form_json, A):
    """True iff A^d_a G_dbc + A^d_b G_adc + A^d_c G_abd vanishes for all a, b, c.

    A is indexed A[d][a] = A^d_a (row-major, as cubicsym's Mat3 rows).
    """
    G = tensor(form_json)
    A = matrix(A)
    for a, b, c in product((1, 2, 3), repeat=3):
        total = sum(A[d - 1][a - 1] * G[(d, b, c)] + A[d - 1][b - 1] * G[(a, d, c)]
                    + A[d - 1][c - 1] * G[(a, b, d)] for d in (1, 2, 3))
        if total != 0:
            return False
    return True


def annihilates(form_json, v):
    """True iff v^d G_dbc = 0 for all b, c (v lies in the radical)."""
    G = tensor(form_json)
    v = [Fraction(x) for x in v]
    return all(sum(v[d - 1] * G[(d, b, c)] for d in (1, 2, 3)) == 0
               for b, c in product((1, 2, 3), repeat=2))


def signed_permutation_images(form_json):
    """The box form mapped by each of the 48 signed coordinate permutations.

    For T with T^d_a = s_a when d = perm(a), the pullback is
    G'_abc = s_a s_b s_c G_perm(a)perm(b)perm(c); integer components only.
    """
    G = {t: int(form_json.get(name, 0)) for t, name in _NAME_OF.items()}
    images = []
    for perm in permutations((1, 2, 3)):
        for s in product((1, -1), repeat=3):
            image = {}
            for (a, b, c), name in _NAME_OF.items():
                v = s[a - 1] * s[b - 1] * s[c - 1] * G[tuple(sorted((perm[a - 1], perm[b - 1],
                                                                    perm[c - 1])))]
                if v:
                    image[name] = v
            images.append(image)
    return images
