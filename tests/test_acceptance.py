"""Acceptance suite.

One test per acceptance criterion; each prints a single PASS line on the way
out (run with -s or -rA to see them).  Everything is exact rational
arithmetic, so every comparison is equality: tolerance zero throughout.
"""

import hashlib
import json
import time
from fractions import Fraction

import pytest

from cubicsym import POSSIBLY_EQUIVALENT, CubicForm, Mat3, bracket, classify, compare, \
    invariants, solve, structure_constants, tau0_upper_bound, verify_killing
from cubicsym.catalog import KNOWN_DISCREPANCIES, get_entry, \
    projective_table, verify_all, verify_branch
from cubicsym.liealg import colinearity
from cubicsym.properties import (suite_cayley_hamilton,
                                 suite_conjugation_invariance,
                                 suite_evaluate_pullback,
                                 suite_kernel_covariance, suite_lie_closure,
                                 suite_radical_covariance)

from lie_series import solvable_pair


def instantiate(entry, overrides=None):
    """Concrete CubicForm of the entry at the given parameter assignment."""
    return entry.build(entry.resolve_params(overrides))


@pytest.fixture(scope="module")
def audit():
    return verify_all()


def _done(name, detail=""):
    print(f"\nACCEPTANCE {name}: PASS" + (f" -- {detail}" if detail else ""))


def test_catalog_dimension_reproduction():
    """Every affine entry, every sign branch, default parameters: computed
    (finite dimension, infinite flag) match the recorded claims except for
    the short known-typo list, which the exact solver resolves."""
    start = time.time()
    audit = verify_all()
    dimension_typos = set()
    for report in audit.branch_reports:
        # the exact computation must always match the catalog's expected data
        assert report.oracle_ok, (report.entry_id, report.branch)
        if report.claim_ok is False:
            assert (report.entry_id, "dimension") in KNOWN_DISCREPANCIES, \
                (report.entry_id, report.branch)
            dimension_typos.add(report.entry_id)
    assert dimension_typos == {"2.4", "2.5", "2.6", "3.3"}
    assert len(dimension_typos) <= 5
    elapsed = time.time() - start
    assert elapsed < 5.0
    assert audit.unknown_discrepancies == []
    _done("catalog dimension reproduction",
          f"{audit.n_branches} branches, known typos resolved: "
          f"{sorted(dimension_typos)}, {elapsed:.2f}s")


def test_generator_verification(audit):
    """Transcribed generators pass the exact isometry check, >= 90%; the
    failures are ledgered and the solver provides corrections."""
    passed, total = audit.generator_tally()
    assert total == 74
    assert passed / total >= 0.9
    failing = {}
    for report in audit.branch_reports:
        for check in report.generator_checks:
            if not check.passes:
                kind = "generator" if check.source == "field" else "invariant-matrix"
                failing[(report.entry_id, kind)] = True
                assert (report.entry_id, kind) in KNOWN_DISCREPANCIES, report.entry_id
                # solver-derived correction exists: a nonempty exact kernel
                form = get_entry(report.entry_id).build(report.params)
                algebra = solve(form)
                assert algebra.generators
                assert all(verify_killing(form, g) for g in algebra.generators)
            elif check.passes:
                assert check.in_kernel
    assert set(failing) == {("3.5", "generator"), ("3.9", "generator"),
                            ("3.11", "generator"), ("4.5", "invariant-matrix"),
                            ("4.6", "invariant-matrix")}
    _done("generator verification",
          f"{passed}/{total} pass as written ({passed/total:.1%}), "
          f"{len(failing)} ledgered with corrections")


def test_commutator_structure():
    """Abelian pairs vs solvable pairs with the (3/2) normal form."""
    abelian_cases = [("1.1", {}), ("2.2", {}), ("2.5", {"eps": 1}),
                     ("2.5", {"eps": -1}), ("3.3", {"eps": -1}), ("3.5", {})]
    for cid, overrides in abelian_cases:
        algebra = solve(instantiate(get_entry(cid), overrides))
        assert algebra.finite_nontrivial_dim == 2, cid
        assert structure_constants(list(algebra.generators)).is_zero(), cid
    # the other sign branch of 3.3 degenerates to an infinite family; its
    # ledger entry records the resolution
    degenerate = solve(instantiate(get_entry("3.3"), {"eps": 1}))
    assert degenerate.has_infinite_family
    assert degenerate.finite_nontrivial_dim == 1
    assert ("3.3", "dimension") in KNOWN_DISCREPANCIES

    nonabelian_cases = [("2.6", {}), ("3.9", {"eps": 1}), ("3.9", {"eps": -1}),
                        ("3.13", {"eps": 1}), ("3.13", {"eps": -1}), ("4.9", {})]
    for cid, overrides in nonabelian_cases:
        algebra = solve(instantiate(get_entry(cid), overrides))
        assert algebra.finite_nontrivial_dim == 2, cid
        basis = list(algebra.generators)
        assert not structure_constants(basis).is_zero(), cid
        X1, X2 = solvable_pair(basis)
        assert bracket(X1, X2) == X2.scale(Fraction(3, 2)), cid
    _done("commutator structure",
          f"{len(abelian_cases)} abelian and {len(nonabelian_cases)} solvable "
          "instances, bracket normalized to (3/2)")


def test_invariant_tables(audit):
    """Computed invariant series match the recorded closed forms exactly on
    every non-boundary branch that has one."""
    checked = 0
    for report in audit.branch_reports:
        if report.series_ok is not None:
            assert report.series_ok, (report.entry_id, report.branch)
            checked += 1
    assert checked >= 27
    # spot checks straight from the closed forms
    series = invariants(solve(instantiate(get_entry("2.1"))).generators[0])
    assert list(series.I) == [0, 2, 0, 2, 0, 2] and series.delta == 0
    entry = get_entry("2.4")
    series = invariants(entry.generators(entry.defaults())[0])
    assert list(series.I) == [-1, 5, -7, 17, -31, 65]
    entry = get_entry("3.8")
    rotation = entry.generators({"eps1": Fraction(1), "eps2": Fraction(1)})[0]
    assert invariants(rotation).I[1] == -2
    _done("invariant tables", f"{checked} branch series verified exactly")


# sha256 of the full audit JSON.  A deliberate change to any audit output
# (a branch, a check, a message) must update this digest in the same change.
AUDIT_JSON_SHA256 = "869b9861df196b77d67469ef4fee487a34bb50b0673744df5e3637b9766b20b4"


def test_audit_json_is_pinned(audit):
    """The audit output is byte-for-byte what it was when the digest was
    recorded, so a speedup that claims identical outputs is checked."""
    payload = json.dumps(audit.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(payload).hexdigest() == AUDIT_JSON_SHA256
    _done("audit JSON pinned", AUDIT_JSON_SHA256[:12])


def test_boundary_degenerations():
    """Parameter loci where the symmetry algebra jumps."""
    inf = get_entry("4.1")
    for signs in ((1, 1), (-1, -1)):
        algebra = solve(instantiate(inf, {"F": 1, "eps1": signs[0],
                                          "eps2": signs[1]}))
        assert algebra.has_infinite_family
        assert classify(instantiate(inf, {"F": 1, "eps1": signs[0],
                                          "eps2": signs[1]})).label == "3(2)"
    two_dim = [("4.3", {"F": 1, "eps": 1}), ("4.10", {"B": 0}),
               ("5.3", {"C2": 2, "C3": Fraction(1, 2)}), ("5.4", {"C3": 1}),
               ("6.1", {"C3": 4})]
    for cid, overrides in two_dim:
        form = instantiate(get_entry(cid), overrides)
        report = classify(form)
        assert report.label == "2", cid
        basis = list(report.algebra.generators)
        X1, X2 = solvable_pair(basis)
        assert bracket(X1, X2) == X2.scale(Fraction(3, 2)), cid
    _done("boundary degenerations",
          "infinite family at the 4.1 locus; class 2 at the five solvable loci")


def test_projective_table():
    """The correspondence table, recomputed from scratch, with the two
    documented complex-equivalence deviations, plus the factorization
    witness at F=-1/2."""
    rows, deviations = projective_table()
    expected_rows = {
        "1": ["III", "XII"], "2": ["V"], "3(1)": ["VIII"],
        "3(2)": ["VI", "XIII"], "3(3)": ["VII"], "4": ["IV"],
        "5": ["II"], "6": ["X", "XI"],
        "8": ["general", "I", "IX"],
    }
    for label, expected in expected_rows.items():
        assert rows[label]["computed"] == expected, label
    assert {d["projective"] for d in deviations} == {"X", "XI"}
    assert all(d["known"] and d["computed"] == "6" for d in deviations)

    # general class, one sample per rational-reachable subclass interval,
    # with F=0 and F=-1/2 exact
    for F, label in [(-2, "8"), (-1, "8"), (Fraction(-1, 4), "8"), (0, "8"),
                     (Fraction(1, 4), "8"), (Fraction(1, 2), "8"), (1, "8"),
                     (2, "8"), (Fraction(-1, 2), "1")]:
        form = CubicForm(A1=1, A2=1, A3=1, F=F)
        assert classify(form).label == label, F

    # explicit pullback witness at F=-1/2: the integer factorization frame
    # takes the form to a two-component normal form in the same symmetry
    # class as the single-F metric, and no implemented invariant separates
    # them (they are complex-equivalent, not real-equivalent)
    special = CubicForm(A1=1, A2=1, A3=1, F=Fraction(-1, 2))
    witness = Mat3([[1, 1, 1], [1, -1, 1], [1, 0, -2]])
    pulled = special.pullback(witness)
    assert pulled == CubicForm(B1=3, B2=9)
    bm = CubicForm(F=1)
    assert classify(pulled).label == classify(bm).label == "1"
    assert compare(pulled, bm).verdict == POSSIBLY_EQUIVALENT
    assert compare(special, bm).verdict == POSSIBLY_EQUIVALENT
    bound, tau_witness = tau0_upper_bound(special, 2)
    assert bound == 2
    assert special.pullback(tau_witness).affine_type() == 2
    _done("projective table",
          "12/14 rows exact; X, XI documented as complex-equivalent class 6; "
          "factorization witness reaches the exact affine type 2")


def test_property_suites():
    """Six exact randomized suites, 200 instances each, zero failures."""
    suites = (suite_kernel_covariance, suite_lie_closure, suite_cayley_hamilton,
              suite_conjugation_invariance, suite_radical_covariance,
              suite_evaluate_pullback)
    results = [s(trials=200) for s in suites]
    for result in results:
        assert result.ok, result.summary()
        assert result.trials >= 200
    _done("property suites",
          "; ".join(r.summary() for r in results))


def test_colinearity_groups():
    """All nonzero-divergence invariant systems are pairwise proportional
    with a real constant; a boost-class representative against a
    rotation-class representative is proportional only over the complexes."""
    div_group = ["1.2", "2.3", "2.4", "3.7", "3.10", "4.5", "4.6", "4.8", "5.2"]
    series = []
    for cid in div_group:
        entry = get_entry(cid)
        branch = entry.branches()[0]
        report = verify_branch(entry, branch)
        assert report.series_ok is not False
        expected_I, expected_delta = entry.series(branch.params)
        from cubicsym.liealg import InvariantSeries
        series.append((cid, InvariantSeries(
            I=tuple(map(Fraction, expected_I)), delta=Fraction(expected_delta))))
    for i in range(len(series)):
        for j in range(len(series)):
            verdict = colinearity(series[i][1], series[j][1])
            assert verdict.kind == "real", (series[i][0], series[j][0])
            assert verdict.C is not None
    boost = invariants(solve(instantiate(get_entry("2.1"))).generators[0])
    entry = get_entry("3.8")
    rotation_form = instantiate(entry, {"eps1": 1, "eps2": 1})
    rotation = invariants(entry.generators({"eps1": Fraction(1),
                                            "eps2": Fraction(1)})[0])
    assert classify(rotation_form).label == "6"
    verdict = colinearity(boost, rotation)
    assert verdict.kind == "complex"
    assert verdict.C_squared == -1
    _done("colinearity groups",
          f"{len(div_group)}^2 real pairs in the divergence group; "
          "boost vs rotation forced C^2 = -1")
