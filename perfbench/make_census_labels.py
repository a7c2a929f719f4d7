"""Regenerate census_labels.txt, the pinned class label of every box form.

    python3 perfbench/make_census_labels.py

Classifies all 3^10 forms of the {-1,0,1}^10 coefficient box with
cubicsym.classify, checks that each label is constant on its orbit under
the 48 signed coordinate permutations (which map the box to itself and
preserve the symmetry class), and writes one code character per form,
81 per line, in box index order.  Takes several minutes.
"""

import sys
from collections import Counter
from pathlib import Path

from reference import BOX_SIZE, box_form, box_index, signed_permutation_images
from workloads import LABEL_CODES, import_cubicsym, CENSUS_LABELS

LINE = 81


def main():
    cs = import_cubicsym()
    codes = []
    for i in range(BOX_SIZE):
        codes.append(LABEL_CODES[cs.classify(cs.CubicForm.from_json(box_form(i))).label])
    for i in range(BOX_SIZE):
        for image in signed_permutation_images(box_form(i)):
            j = box_index(image)
            if codes[j] != codes[i]:
                sys.exit(f"label of box form {i} differs from its image {j}")
    text = "".join(codes)
    Path(CENSUS_LABELS).write_text(
        "\n".join(text[k:k + LINE] for k in range(0, len(text), LINE)) + "\n")
    inverse = {code: label for label, code in LABEL_CODES.items()}
    print(sorted((inverse[c], n) for c, n in Counter(text).items()))


if __name__ == "__main__":
    main()
