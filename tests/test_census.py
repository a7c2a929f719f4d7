"""Exhaustive census of the {-1,0,1}^10 coefficient box, one form per orbit.

perfbench/census_labels.txt pins the class label of all 3^10 box forms, one
code character per form in box index order (A1 varies fastest).  A signed
coordinate permutation x_a -> s_a x_p(a) maps the box to itself and keeps
the symmetry class: it pulls G back to G'_abc = s_a s_b s_c G_p(a)p(b)p(c).
The 48 of them split the box into 1,398 orbits.  The test checks without
solving that the pinned labels are constant on every orbit, then classifies
one representative per orbit and compares it with its pinned label, and
pins the SHA-256 of the representatives' full reports, which a changed
kernel basis, radical, series or structure constant moves even where the
label stays.
"""

import hashlib
import json
from collections import Counter
from itertools import product
from pathlib import Path

from cubicsym import CubicForm, classify
from cubicsym.forms import COMPONENT_NAMES, TRIPLE_TO_NAME

LABELS = Path(__file__).resolve().parent.parent / "perfbench" / "census_labels.txt"
CODES = {"1": "1", "2": "2", "a": "3(1)", "b": "3(2)", "c": "3(3)",
         "4": "4", "5": "5", "6": "6", "8": "8"}
HISTOGRAM = {"8": 53624, "4": 2304, "5": 1476, "3(2)": 588, "2": 504, "6": 312,
             "3(3)": 108, "1": 106, "3(1)": 27}
N = 3 ** 10
# SHA-256 of the sorted-key JSON reports of the 1,398 representatives, one
# line each, in orbit order
REPORTS_SHA256 = "a102acd1c1a02264a628868df63ddc98284e948bc5c6a4bca4b259d3c1c717b2"


def box_digits():
    """Digits (0, 1, 2 for -1, 0, 1) of every box form, in box index order."""
    return [digits[::-1] for digits in product((0, 1, 2), repeat=10)]


def image_indices(perm, signs, digits):
    """Box index of the image of every box form under x_a -> s_a x_perm(a)."""
    position = {name: k for k, name in enumerate(COMPONENT_NAMES)}
    # component k of the image is sign[k] times component source[k] of the form
    source, sign = [0] * 10, [0] * 10
    for (a, b, c), name in TRIPLE_TO_NAME.items():
        k = position[name]
        source[k] = position[TRIPLE_TO_NAME[tuple(sorted((perm[a - 1], perm[b - 1],
                                                          perm[c - 1])))]]
        sign[k] = signs[a - 1] * signs[b - 1] * signs[c - 1]
    # weight[k][d]: contribution to the image index of digit d in source slot
    weight = [[3 ** k * (1 + sign[k] * (d - 1)) for d in range(3)] for k in range(10)]
    pairs = list(zip(source, weight))
    return [sum(w[ds[s]] for s, w in pairs) for ds in digits]


def orbits(maps):
    """Orbits of the group the index maps generate, as lists of box indices."""
    seen = [False] * N
    out = []
    for start in range(N):
        if seen[start]:
            continue
        seen[start] = True
        orbit, stack = [], [start]
        while stack:
            i = stack.pop()
            orbit.append(i)
            for image in maps:
                j = image[i]
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
        out.append(orbit)
    return out


def test_census_by_orbit():
    labels = [CODES[c] for c in "".join(LABELS.read_text().split())]
    assert len(labels) == N
    assert Counter(labels) == HISTOGRAM

    # (1 2), (1 2 3) and the sign of x_1 generate all 48 signed permutations
    digits = box_digits()
    maps = [image_indices((2, 1, 3), (1, 1, 1), digits),
            image_indices((2, 3, 1), (1, 1, 1), digits),
            image_indices((1, 2, 3), (-1, 1, 1), digits)]
    for image in maps:
        assert sorted(image) == list(range(N))
        assert all(labels[image[i]] == labels[i] for i in range(N))
    classes = orbits(maps)
    assert len(classes) == 1398
    assert sum(len(orbit) for orbit in classes) == N

    digest = hashlib.sha256()
    for orbit in classes:
        i = min(orbit)
        form = CubicForm(*(d - 1 for d in digits[i]))
        report = classify(form)
        assert report.label == labels[i], form
        digest.update((json.dumps(report.to_json(), sort_keys=True) + "\n").encode())
    assert digest.hexdigest() == REPORTS_SHA256
