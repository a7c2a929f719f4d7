"""Randomized exact property suites.

Each suite draws seeded random instances, checks an algebraic identity
exactly, and returns a SuiteResult.  The suites back both the test suite and
the command-line selftest.  Failures carry a reproducible description of the
offending instance: its suite seed and, for a drawn form, describe() text
with the form JSON that `cubicsym classify --form` reads, followed by a
one-line shell command that classifies it, or for a drawn matrix its JSON,
which `cubicsym transform --matrix` reads.  Each suite draws from its own
fixed seed, 101 to 108.

Random forms are drawn from a mix of sparse small-integer forms, catalog
instances and random pullbacks of catalog instances, so kernels of every
dimension (0, 1, 2 and infinite families) actually occur.
"""

import json
import random
import shlex
from fractions import Fraction

from . import catalog
from ._record import record
from .classify import classify
from .forms import (COMPONENT_NAMES, SORTED_TRIPLES, TRIPLE_TO_NAME, CubicForm, Mat3,
                    format_scalar)
from .killing import build_system, killing_operator, solve, verify_killing
from .liealg import bracket, invariants
from .linalg import in_span, span_equal


@record
class SuiteResult:
    name: str
    trials: int
    seed: int
    failures: tuple

    @property
    def ok(self):
        return not self.failures

    def summary(self):
        state = "PASS" if self.ok else f"FAIL ({len(self.failures)})"
        return f"{self.name}: {state} [{self.trials} trials, seed {self.seed}]"


def random_form(rng):
    """Sparse random integer form, 1 to 5 nonzero components in [-3, 3];
    occasionally a catalog instance."""
    # a catalog instance with probability 7/20, compared exactly
    if rng.random() < Fraction(7, 20):
        entry = catalog.ENTRIES[rng.randrange(len(catalog.ENTRIES))]
        return entry.build(entry.defaults())
    names = list(COMPONENT_NAMES)
    rng.shuffle(names)
    k = rng.randint(1, 5)
    comps = {}
    for name in names[:k]:
        v = 0
        while v == 0:
            v = rng.randint(-3, 3)
        comps[name] = v
    return CubicForm(**comps)


def random_invertible(rng):
    """Invertible matrix with entries in [-2, 2]."""
    while True:
        T = Mat3([[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)])
        if T.det() != 0:
            return T


def random_matrix(rng):
    return Mat3([[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])


def random_vec(rng):
    return tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))


def _form_json(g):
    return json.dumps(g.to_json(), sort_keys=True)


def _form(g):
    """describe() text of a drawn form with its JSON, for a failure message."""
    return f"{g.describe()} (form JSON {_form_json(g)})"


def _failure(message, *forms):
    """A failure message, then for each drawn form in it a line with the
    shell command that classifies the form from its JSON."""
    return "\n".join([message] + [f"  $ echo {shlex.quote(_form_json(g))} "
                                   "| cubicsym classify --form /dev/stdin" for g in forms])


def _matrices(**named):
    """Named matrices as the JSON that `cubicsym transform --matrix` reads."""
    return ", ".join(f"{name} = {json.dumps(M.to_json())}" for name, M in named.items())


def _run(name, trials, seed, body):
    rng = random.Random(seed)
    failures = []
    for i in range(trials):
        problem = body(rng)
        if problem is not None:
            failures.append(f"trial {i}: {problem}")
            if len(failures) >= 5:
                break
    return SuiteResult(name, trials, seed, tuple(failures))


def suite_evaluate_pullback(trials=200):
    """evaluate(pullback(G,T), v) == evaluate(G, T v), plus homogeneity."""
    def body(rng):
        g = random_form(rng)
        T = random_invertible(rng)
        v = random_vec(rng)
        if g.pullback(T).evaluate(v) != g.evaluate(T.apply(v)):
            return _failure(f"pullback/evaluate mismatch for {_form(g)}", g)
        lam = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        scaled = tuple(lam * c for c in v)
        if g.evaluate(scaled) != lam ** 3 * g.evaluate(v):
            return _failure(f"homogeneity failure for {_form(g)}", g)
        return None
    return _run("evaluate/pullback compatibility", trials, 101, body)


def suite_radical_covariance(trials=200):
    """radical(pullback(G,T)) equals T^-1 radical(G) as a subspace."""
    def body(rng):
        g = random_form(rng)
        T = random_invertible(rng)
        direct = [list(v) for v in g.pullback(T).radical()]
        inv = T.inverse()
        mapped = [list(inv.apply(v)) for v in g.radical()]
        if not span_equal(direct, mapped):
            return _failure(f"radical covariance failure for {_form(g)}", g)
        return None
    return _run("radical covariance", trials, 102, body)


def conjugated_generators(algebra, T):
    """Generators transported to the pulled-back frame: T^-1 A T."""
    inv = T.inverse()
    return [inv @ A @ T for A in algebra.generators]


def same_span(mats_a, mats_b):
    """Exact equality of matrix spans."""
    return span_equal([m.flatten() for m in mats_a], [m.flatten() for m in mats_b])


def suite_kernel_covariance(trials=200):
    """Conjugated kernel spans the pulled-back kernel; class label invariant."""
    def body(rng):
        g = random_form(rng)
        T = random_invertible(rng)
        rep = classify(g)
        rep2 = classify(g.pullback(T))
        if rep.label != rep2.label:
            return _failure(f"class label changed under pullback: {rep.label} -> "
                            f"{rep2.label} for {_form(g)}", g)
        moved = conjugated_generators(rep.algebra, T)
        if not same_span(moved, list(rep2.algebra.generators)):
            return _failure(f"kernel span not covariant for {_form(g)}", g)
        return None
    return _run("kernel and class covariance", trials, 103, body)


def suite_lie_closure(trials=200):
    """Brackets of kernel elements stay in the kernel span; every generator
    actually satisfies the Killing equation."""
    def body(rng):
        g = random_form(rng)
        algebra = solve(g)
        vectors = [m.flatten() for m in algebra.generators]
        for A in algebra.generators:
            if not verify_killing(g, A):
                return _failure(f"kernel element fails the Killing check for {_form(g)}", g)
        for i in range(len(algebra.generators)):
            for j in range(i + 1, len(algebra.generators)):
                br = bracket(algebra.generators[i], algebra.generators[j])
                if not in_span(vectors, br.flatten()):
                    return _failure(f"bracket escapes the kernel for {_form(g)}", g)
        return None
    return _run("Lie closure of kernels", trials, 104, body)


def suite_cayley_hamilton(trials=200):
    """Delta = det(A), Cayley-Hamilton exactly, and I_n = Tr(A^n) by Mat3
    products.  Delta is checked first: Cayley-Hamilton with the true I1 and
    I2 already forces the true Delta, so a later check could never fail."""
    def body(rng):
        A = random_matrix(rng)
        s = invariants(A)
        if s.delta != A.det():
            return f"Delta != det(A) for {_matrices(A=A)}"
        c2 = (s.I[0] ** 2 - s.I[1]) / 2
        lhs = (A @ A @ A) - (A @ A).scale(s.I[0]) + A.scale(c2) \
            - Mat3.identity().scale(s.delta)
        if not lhs.is_zero():
            return f"Cayley-Hamilton fails for {_matrices(A=A)}"
        power = A
        for n in range(1, 7):
            if s.I[n - 1] != power[0, 0] + power[1, 1] + power[2, 2]:
                return f"I{n} != Tr(A^{n}) for {_matrices(A=A)}"
            power = power @ A
        return None
    return _run("Cayley-Hamilton and trace recursion", trials, 105, body)


def suite_conjugation_invariance(trials=200):
    """Invariant series is unchanged under conjugation by invertible T."""
    def body(rng):
        A = random_matrix(rng)
        T = random_invertible(rng)
        conj = T.inverse() @ A @ T
        if invariants(A) != invariants(conj):
            return f"conjugation changed invariants of {_matrices(A=A, T=T)}"
        return None
    return _run("conjugation invariance of invariants", trials, 106, body)


def suite_bracket_identities(trials=200):
    """Bilinearity, antisymmetry and the Jacobi identity of the bracket."""
    def body(rng):
        A, B, C = (random_matrix(rng) for _ in range(3))
        if not (bracket(A, A).is_zero()):
            return f"bracket(A,A) != 0 for {_matrices(A=A)}"
        if bracket(A, B) + bracket(B, A) != Mat3.zero():
            return f"antisymmetry fails for {_matrices(A=A, B=B)}"
        jac = bracket(A, bracket(B, C)) + bracket(B, bracket(C, A)) \
            + bracket(C, bracket(A, B))
        if not jac.is_zero():
            return f"Jacobi identity fails for {_matrices(A=A, B=B, C=C)}"
        lam = Fraction(rng.randint(-3, 3))
        if bracket(A.scale(lam) + B, C) != bracket(A, C).scale(lam) + bracket(B, C):
            return f"bilinearity fails for lambda = {lam}, {_matrices(A=A, B=B, C=C)}"
        return None
    return _run("bracket identities", trials, 107, body)


def suite_killing_linearity(trials=200):
    """K is linear in the form; the assembled system M gives the derivative of
    G along the field; radical rank-one fields are always symmetries.

    With p(t) = G(x + tAx), K(A)(x) = 3 G(Ax, x, x) = p'(0), and p is a cubic
    in t, so the five-point difference (8(p(1) - p(-1)) - (p(2) - p(-2))) / 12
    gives p'(0) exactly, from evaluate alone."""
    def body(rng):
        g1, g2 = random_form(rng), random_form(rng)
        A = random_matrix(rng)
        lhs = killing_operator(g1 + g2, A)
        rhs = killing_operator(g1, A) + killing_operator(g2, A)
        if lhs != rhs:
            return _failure(f"K not linear in the form for {_form(g1)} and {_form(g2)}",
                            g1, g2)
        x = random_vec(rng)
        Ax = A.apply(x)

        def p(t):
            return g1.evaluate([u + t * v for u, v in zip(x, Ax)])
        flat = A.flatten()
        image = CubicForm(**{TRIPLE_TO_NAME[t]: sum(m * v for m, v in zip(row, flat))
                             for t, row in zip(SORTED_TRIPLES, build_system(g1).matrix)})
        if image.evaluate(x) != (8 * (p(1) - p(-1)) - (p(2) - p(-2))) / 12:
            x_json = json.dumps([format_scalar(c) for c in x])
            return _failure(f"assembled system disagrees with d/dt G(x + tAx) at t = 0 "
                            f"for {_form(g1)}, {_matrices(A=A)}, x = {x_json}", g1)
        for v in g1.radical():
            w = random_vec(rng)
            rank_one = Mat3([[v[i] * w[j] for j in range(3)] for i in range(3)])
            if not verify_killing(g1, rank_one):
                return _failure(f"radical rank-one field fails for {_form(g1)}", g1)
        return None
    return _run("Killing operator linearity and radical fields", trials, 108, body)


ALL_SUITES = (
    suite_evaluate_pullback,
    suite_radical_covariance,
    suite_kernel_covariance,
    suite_lie_closure,
    suite_cayley_hamilton,
    suite_conjugation_invariance,
    suite_bracket_identities,
    suite_killing_linearity,
)


def run_all(trials=200):
    return [suite(trials=trials) for suite in ALL_SUITES]
