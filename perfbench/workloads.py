"""Workloads: seeded input generation, one operation, and its output check.

Every workload hands cubicsym only generated form JSON (and matrix JSON),
never a workload name.  Each input item carries the expected outcome its
check compares against under the key "expect"; the self-test corrupts that
key to prove that a wrong answer is counted as a failure.

`cycle` is the length of the input schedule's stratification cycle (every
branch once, every affine type once); timings are reported over whole
cycles so that where the time window ends does not change the input mix.
`warmup_ops`, a whole number of cycles, run checked but untimed first.
`pinned_ops` is how many first operations the class-label counts cover.
`calibration` is the loop whose speed stands for the machine's while the
workload runs (see calibrate.py).

The operations call cubicsym through module attributes (cs.classify,
cs.CubicForm.from_json, ...) so that the traced run can wrap those names
from outside; the untraced run calls them unwrapped.
"""

import contextlib
import importlib
import io
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import reference as ref
from calibrate import fraction_loop, integer_loop

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CENSUS_LABELS = Path(__file__).resolve().parent / "census_labels.txt"

# one character per symmetry class label in census_labels.txt
LABEL_CODES = {"1": "1", "2": "2", "3(1)": "a", "3(2)": "b", "3(3)": "c",
               "4": "4", "5": "5", "6": "6", "7": "7", "8": "8"}

LAYERS = ("forms", "linalg", "killing", "liealg", "classify", "catalog", "cli")

AUDIT_ARGV = ["catalog-verify", "--all", "--json"]
AUDIT_SUMMARY = {"branches": 77, "match": 65, "known_discrepancies": 14,
                 "unknown_discrepancies": 0, "generators_passed": 69,
                 "generators_total": 74}


def import_cubicsym():
    """Import cubicsym from the checkout's own src/ and nowhere else."""
    if not (SRC / "cubicsym" / "__init__.py").is_file():
        raise SystemExit(f"cubicsym sources not found under {SRC}")
    # write the bytecode caches from another interpreter first, so that the
    # compiler's memory does not count in this process's peak resident size
    subprocess.run([sys.executable, "-I", "-c",
                    "import sys; sys.path.insert(0, sys.argv[1]); import cubicsym.cli", str(SRC)],
                   cwd=ROOT, capture_output=True, timeout=120)
    sys.path.insert(0, str(SRC))
    import cubicsym
    import cubicsym.cli
    if Path(cubicsym.__file__).resolve().parent != SRC / "cubicsym":
        raise SystemExit(f"imported cubicsym from {cubicsym.__file__}, not from {SRC}")
    return cubicsym


def modules():
    """The cubicsym submodules by layer name (cs.classify is the function)."""
    return {name: importlib.import_module(f"cubicsym.{name}") for name in LAYERS}


def _same_form(form_json, other_json):
    names = set(form_json) | set(other_json)
    return all(Fraction(form_json.get(n, 0)) == Fraction(other_json.get(n, 0)) for n in names)


def _algebra_problem(form_json, algebra):
    """Check generators and radical with the benchmark's own contractions."""
    for k, A in enumerate(algebra.generators):
        if not ref.is_killing(form_json, A.rows):
            return f"generator {k} fails the 27-term Killing contraction"
    for k, v in enumerate(algebra.radical_basis):
        if not ref.annihilates(form_json, v):
            return f"radical vector {k} does not annihilate the form"
    return None


def kernel_entry_bits(kernel):
    return max((max(x.numerator.bit_length(), x.denominator.bit_length())
                for vec in kernel for x in vec), default=0)


def solver_probe(span, form, report):
    """Call the steps behind classify one by one, each inside its own span.

    Returns the largest numerator or denominator bit length in the kernel.
    """
    m = modules()
    with span("killing.build_system"):
        system = m["killing"].build_system(form)
    with span("killing.kernel"):
        kernel = system.kernel()
    with span("forms.radical"):
        form.radical()
    algebra = m["killing"].solve(form)
    if report.invariant_series is not None:
        with span("liealg.invariants"):
            m["liealg"].invariants(algebra.generators[0])
    if report.structure is not None:
        with span("liealg.structure_constants"):
            m["liealg"].structure_constants(list(algebra.generators))
    return kernel_entry_bits(kernel)


class Census:
    name = "census"
    why = ("3^10 box draws, no repeats, ~90% class 8: killing.build_system dominates and a "
           "memo cache must gain nothing; moves build_system, kernel, radical, classify")
    op_definition = "CubicForm.from_json(form) then classify(form)"
    input_size = "one form from the 3^10 box, integer coefficients in {-1,0,1}, no repeats"
    pinned_ops = 200
    calibration = staticmethod(fraction_loop)
    cycle = 1
    warmup_ops = 100

    def __init__(self):
        lines = CENSUS_LABELS.read_text().split()
        self.codes = "".join(lines)
        self.label_of = {code: label for label, code in LABEL_CODES.items()}
        if len(self.codes) != ref.BOX_SIZE:
            raise SystemExit(f"{CENSUS_LABELS} holds {len(self.codes)} labels, "
                             f"expected {ref.BOX_SIZE}")

    def inputs(self, cs, seed):
        order = list(range(ref.BOX_SIZE))
        random.Random(seed).shuffle(order)
        for i in order:
            yield {"form": ref.box_form(i), "expect": self.label_of[self.codes[i]]}

    def op(self, cs, item):
        form = cs.CubicForm.from_json(item["form"])
        return form, cs.classify(form)

    def check(self, item, out):
        _, report = out
        if report.label != item["expect"]:
            return f"class {report.label}, pinned {item['expect']} for {item['form']}"
        return _algebra_problem(item["form"], report.algebra)

    def labels(self, out):
        return [out[1].label]

    def probe(self, cs, span, item, out):
        form, report = out
        return solver_probe(span, form, report)


def _random_rational_transform(rng):
    """Invertible 3x3 matrix with entries p/q, q in {2, 3}, as matrix JSON."""
    while True:
        rows = [[Fraction(rng.randint(-2, 2), rng.choice((2, 3))) for _ in range(3)]
                for _ in range(3)]
        if ref.det(rows) != 0:
            return [[ref.scalar_json(x) for x in row] for row in rows]


class Covariance:
    name = "covariance"
    why = ("catalog branches pulled back by rational T, then classify(h) and compare(g, h): "
           "large-denominator kernels, liealg, 3 solves per op")
    op_definition = ("CubicForm.from_json(g), Mat3.from_json(T), h = g.pullback(T), "
                     "classify(h), compare(g, h)")
    input_size = ("77 catalog branch forms g in seeded order per pass; T has entries p/q, "
                  "|p| <= 2, q in {2, 3}")
    pinned_ops = 77
    calibration = staticmethod(fraction_loop)
    cycle = 77
    warmup_ops = 77

    def inputs(self, cs, seed):
        branches = [(entry.build(branch.params).to_json(), branch.expected.label)
                    for entry in cs.catalog.ENTRIES for branch in entry.branches()]
        rng = random.Random(seed)
        while True:
            order = list(range(len(branches)))
            rng.shuffle(order)
            for k in order:
                g, label = branches[k]
                T = _random_rational_transform(rng)
                yield {"form": g, "matrix": T, "pullback": ref.pullback(g, T), "expect": label}

    def op(self, cs, item):
        g = cs.CubicForm.from_json(item["form"])
        h = g.pullback(cs.Mat3.from_json(item["matrix"]))
        return g, h, cs.classify(h), cs.compare(g, h)

    def check(self, item, out):
        _, h, report, verdict = out
        if not _same_form(h.to_json(), item["pullback"]):
            return f"pullback of {item['form']} differs from the 27-term contraction"
        if report.label != item["expect"]:
            return f"class {report.label}, expected {item['expect']} for {item['form']}"
        if verdict.verdict == "NOT_EQUIVALENT":
            return f"equivalent forms reported NOT_EQUIVALENT: {verdict.witness}"
        return _algebra_problem(item["pullback"], report.algebra)

    def labels(self, out):
        return [out[2].label]

    def probe(self, cs, span, item, out):
        g, h, report, _ = out
        bits = solver_probe(span, h, report)
        m = modules()
        if report.invariant_series is not None:
            other = m["killing"].solve(g)
            series_g = m["liealg"].invariants(other.generators[0])
            with span("liealg.colinearity"):
                m["liealg"].colinearity(series_g, report.invariant_series)
        return bits


class Audit:
    name = "audit"
    why = ("in-process cli catalog-verify --all --json: the only path through catalog, "
           "verify_killing, in_span and cli JSON; 176 solve calls per op")
    op_definition = "cli.main(['catalog-verify', '--all', '--json']) with stdout captured"
    input_size = "the built-in catalog: 77 affine branches and 22 projective samples"
    pinned_ops = 1
    calibration = staticmethod(fraction_loop)
    cycle = 1
    warmup_ops = 1

    def inputs(self, cs, seed):
        # the catalog is fixed data, so the seed has nothing to vary here
        while True:
            yield {"argv": list(AUDIT_ARGV), "expect": dict(AUDIT_SUMMARY)}

    def op(self, cs, item):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cs.cli.main(item["argv"])
        return code, buf.getvalue()

    def check(self, item, out):
        code, text = out
        if code != 0:
            return f"exit code {code}"
        summary = json.loads(text)["summary"]
        if summary != item["expect"]:
            return f"summary {summary}, expected {item['expect']}"
        return None

    def labels(self, out):
        payload = json.loads(out[1])
        return ([r["computed"]["class"] for r in payload["entries"]]
                + [r["computed_class"] for r in payload["projective"]])

    probe = None


def _frame_forms(pool_seed=0):
    """One fixed box form of each affine type 2..10."""
    rng = random.Random(pool_seed)
    return [{n: rng.choice((-1, 1)) for n in rng.sample(ref.COMPONENT_NAMES, t)}
            for t in range(2, 11)]


class FrameSearch:
    name = "frame-search"
    why = ("tau0_upper_bound(g, 2), a pure-integer loop in forms over 37,820 column triples; "
           "it never reaches killing, linalg or liealg, so solver changes should not move it")
    op_definition = "CubicForm.from_json(form) then tau0_upper_bound(form, 2)"
    input_size = ("9 fixed box forms, one of each affine type 2..10, each op showing one in a "
                  "seeded signed-permutation frame; 37,820 column triples at radius 2")
    pinned_ops = 0
    calibration = staticmethod(integer_loop)
    cycle = 9
    # the search is one integer loop that is warm within its first call
    warmup_ops = 0

    def inputs(self, cs, seed):
        # Search time varies by ~25% between box forms of one affine type but
        # by only a few percent between frames of one form, and a run holds
        # only ~40 operations.  So every cycle runs the same nine forms, each
        # in a new seeded frame, and runs of different seeds and lengths time
        # the same mix.
        rng = random.Random(seed)
        forms = _frame_forms()
        while True:
            for form in forms:
                image = rng.choice(ref.signed_permutation_images(form))
                yield {"form": image, "expect": len(form)}

    def op(self, cs, item):
        return cs.tau0_upper_bound(cs.CubicForm.from_json(item["form"]), 2)

    def check(self, item, out):
        bound, witness = out
        if ref.det(witness.rows) == 0:
            return f"witness {witness} is singular"
        count = ref.nonzero_count(ref.pullback(item["form"], witness.rows))
        if bound != count:
            return f"bound {bound} but the witness frame has {count} nonzero components"
        if bound > item["expect"]:
            return f"bound {bound} exceeds the affine type {item['expect']}"
        return None

    def labels(self, out):
        return []

    probe = None


WORKLOADS = {w.name: w for w in (Census, Covariance, Audit, FrameSearch)}
