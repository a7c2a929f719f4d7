"""Catalog integrity: instantiation, per-entry audits, the pinned image."""

import hashlib
import json
from fractions import Fraction

import pytest

from cubicsym import CubicForm, SymmetryClass, catalog, form_of, invariants, \
    solve, verify_killing
from cubicsym.catalog import CORRESPONDENCE_TABLE, ENTRIES, \
    KNOWN_DISCREPANCIES, PROJECTIVE_ENTRIES, Branch, ParameterRangeError, \
    get_entry, projective_table, verify_all, verify_branch, verify_entry
from cubicsym.forms import scalar_to_json

# SHA-256 of json.dumps(export_catalog(), indent=1, sort_keys=True) + "\n".
# Any change to a recorded catalog fact changes it; re-pin it on purpose.
CATALOG_IMAGE_SHA256 = \
    "8e033a61ff4fa91cd4337e34efadd05be2dd621d02b1046900e5cca0e6f49e15"


def export_catalog():
    """Plain-data image of the catalog: the image whose digest the tests pin."""
    affine = []
    for entry in ENTRIES:
        branches = []
        for b in entry.branches():
            form = entry.build(b.params)
            finite, infinite = b.expected.shape
            branches.append({
                "label": b.label,
                "params": {k: scalar_to_json(v) for k, v in b.params.items()},
                "form": form.to_json(),
                "affine_type": b.tau,
                "claim": b.claim,
                "expected": {
                    "finite_nontrivial_dim": finite,
                    "has_infinite_family": infinite,
                    "class": b.expected.label,
                },
                "boundary": b.boundary,
            })
        affine.append({
            "id": entry.id,
            "tau": entry.tau,
            "params": [{"name": p.name, "kind": p.kind,
                        "default": scalar_to_json(p.default),
                        "allow_zero": p.allow_zero} for p in entry.params],
            "claimed_dim": entry.claimed_dim,
            "series": entry.series_tag,
            "generators": [g.to_json() for g in entry.generators(entry.defaults())],
            "invariant_matrix": None if entry.inv_matrix is None
            else entry.inv_matrix(entry.defaults()).to_json(),
            "notes": list(entry.notes),
            "branches": branches,
        })
    projective = []
    for entry in PROJECTIVE_ENTRIES:
        samples = []
        for s in entry.samples:
            samples.append({
                "label": s.label,
                "params": {k: scalar_to_json(v) for k, v in s.params.items()},
                "form": entry.build(s.params).to_json(),
                "recorded_class": s.recorded_class,
                "expected_class": s.expected_class,
            })
        projective.append({"id": entry.id, "components": entry.description,
                           "notes": list(entry.notes), "samples": samples})
    return {
        "affine": affine,
        "projective": projective,
        "correspondence_table": {k: list(v) for k, v in CORRESPONDENCE_TABLE.items()},
        "known_discrepancies": [
            {"id": key[0], "kind": key[1], "detail": detail}
            for key, detail in sorted(KNOWN_DISCREPANCIES.items())],
    }


def test_catalog_has_41_affine_entries():
    assert len(ENTRIES) == 41
    by_tau = {}
    for e in ENTRIES:
        by_tau.setdefault(e.tau, []).append(e.id)
    assert {t: len(v) for t, v in by_tau.items()} == \
        {1: 3, 2: 9, 3: 13, 4: 10, 5: 5, 6: 1}


def test_instantiate_examples():
    assert get_entry("1.1").instantiate() == form_of(F=1)
    assert get_entry("3.8").instantiate({"eps1": 1, "eps2": -1}) == \
        form_of(A1=1, B1=1, B2=-1)
    three = catalog.PROJECTIVE_BY_ID["III"]
    assert three.build({}) == form_of(F=1)


def test_instantiate_validates_parameters():
    with pytest.raises(ParameterRangeError):
        get_entry("3.8").instantiate({"eps1": 2})
    with pytest.raises(ParameterRangeError):
        get_entry("4.1").instantiate({"F": 0})
    with pytest.raises(ParameterRangeError):
        get_entry("4.1").instantiate({"bogus": 1})
    # the one rational parameter whose vanishing is itself a catalogued case
    assert get_entry("4.10").instantiate({"B": 0}) == form_of(B2=1, C1=1, C2=1)


def test_parameters_refuse_floats_and_bools():
    # True == 1 would pass the sign check, and 0.5 would pass as 1/2
    for overrides in ({"F": 0.5}, {"F": True}):
        with pytest.raises(TypeError):
            get_entry("4.1").resolve_params(overrides)
    for overrides in ({"eps1": True}, {"eps1": 1.0}):
        with pytest.raises(TypeError):
            get_entry("3.8").instantiate(overrides)
    assert get_entry("4.1").resolve_params({"F": "1/2"})["F"] == Fraction(1, 2)


def test_unknown_id():
    with pytest.raises(KeyError):
        get_entry("9.9")


def test_affine_type_matches_tau_at_defaults():
    for entry in ENTRIES:
        assert entry.instantiate().affine_type() == entry.tau, entry.id


def test_transcribed_generators_live_in_kernels():
    # at the first branch of each entry: every generator that verifies must
    # lie in the computed kernel span
    for entry in ENTRIES:
        branch = entry.branches()[0]
        reports = catalog.verify_branch(entry, branch)
        for check in reports.generator_checks:
            if check.passes:
                assert check.in_kernel, (entry.id, check.source, check.index)


def test_verify_entry_match_cases():
    for report in verify_entry("2.1"):
        assert report.status == "MATCH"
        assert report.series_ok is True
    for report in verify_entry("1.2"):
        assert report.status == "MATCH"
        assert report.computed_infinite and report.computed_finite == 1
        assert report.computed_class == "3(3)"


def test_verify_entry_known_discrepancy():
    reports = verify_entry("2.6")
    assert all(r.status == "DISCREPANCY" for r in reports)
    assert all(not r.unknown_issues for r in reports)
    assert any("dimension" in issue for r in reports for issue in r.known_issues)
    # oracle truth is still reproduced exactly
    assert all(r.oracle_ok for r in reports)
    assert all(r.computed_finite == 2 for r in reports)


def test_verify_entry_custom_parameters():
    # one instance of an entry at chosen parameters is audited by verify_branch
    entry = get_entry("6.1")
    params = entry.resolve_params({"F": Fraction(1, 2)})
    branch = Branch("F=1/2", params, entry.claimed_dim,
                    entry.expected_at(params), entry.tau, boundary=True)
    report = verify_branch(entry, branch)
    assert report.computed_class == "6"
    assert report.params == params


def test_full_audit_is_clean():
    audit = verify_all()
    assert audit.unknown_discrepancies == []
    passed, total = audit.generator_tally()
    assert total == 74
    assert passed == 69
    failing = {(r.entry_id, c.source)
               for r in audit.branch_reports
               for c in r.generator_checks if not c.passes}
    assert failing == {("3.5", "field"), ("3.9", "field"), ("3.11", "field"),
                       ("4.5", "invariant-matrix"), ("4.6", "invariant-matrix")}


def test_known_discrepancy_ledger_is_minimal():
    # every recorded known discrepancy actually occurs in the audit
    audit = verify_all()
    seen = {(r.entry_id, kind)
            for r in audit.branch_reports + audit.projective_reports
            for kind, _ in r.findings}
    assert seen == set(KNOWN_DISCREPANCIES)


def test_dimension_discrepancies_are_within_budget():
    ids = {key[0] for key in KNOWN_DISCREPANCIES if key[1] == "dimension"}
    assert ids == {"2.4", "2.5", "2.6", "3.3"}
    assert len(ids) <= 5


def test_projective_table_rows():
    rows, deviations = projective_table()
    assert rows["1"]["computed"] == ["III", "XII"]
    assert rows["2"]["computed"] == ["V"]
    assert rows["3(1)"]["computed"] == ["VIII"]
    assert rows["3(2)"]["computed"] == ["VI", "XIII"]
    assert rows["3(3)"]["computed"] == ["VII"]
    assert rows["4"]["computed"] == ["IV"]
    assert rows["5"]["computed"] == ["II"]
    assert rows["6"]["computed"] == ["X", "XI"]
    assert rows["8"]["computed"] == ["general", "I", "IX"]
    assert all(d["known"] for d in deviations)
    assert {d["projective"] for d in deviations} == {"X", "XI"}


def test_projective_table_deviations_are_the_audit_table_findings():
    # each deviation is a "table" finding of the projective audit, and each
    # such finding is a deviation, with the same classes and known flag
    _, deviations = projective_table()
    findings = [{"projective": r.entry_id, "recorded": r.recorded_class,
                 "computed": r.computed_class,
                 "known": any(i.startswith("table: ") for i in r.known_issues)}
                for r in verify_all().projective_reports
                for kind, _ in r.findings if kind == "table"]
    assert deviations == findings
    assert len(findings) == 2


def test_catalog_image_is_pinned():
    text = json.dumps(export_catalog(), indent=1, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == CATALOG_IMAGE_SHA256


def test_catalog_image_forms_reparse():
    image = export_catalog()
    forms = [b["form"] for e in image["affine"] for b in e["branches"]]
    samples = [s["form"] for e in image["projective"] for s in e["samples"]]
    assert (len(forms), len(samples)) == (77, 22)
    for data in forms + samples:
        assert CubicForm.from_json(data).to_json() == data


def test_boundary_branches_have_expected_classes():
    checks = [
        ("4.1", {"F": 1, "eps1": 1, "eps2": 1}, "3(2)"),
        ("4.3", {"F": 1, "eps": 1}, "2"),
        ("4.10", {"B": 0}, "2"),
        ("5.3", {"C2": 2, "C3": Fraction(1, 2)}, "2"),
        ("5.4", {"C3": 1}, "2"),
        ("6.1", {"C3": 4}, "2"),
    ]
    from cubicsym import classify
    for cid, overrides, label in checks:
        form = get_entry(cid).instantiate(overrides)
        assert classify(form).label == label, cid


def test_recorded_generator_corrections_available():
    # each entry with a failing transcription still has a computed kernel
    # that contains a corrected generator
    for cid in ("3.5", "3.9", "3.11"):
        entry = get_entry(cid)
        branch = entry.branches()[0]
        algebra = solve(entry.build(branch.params))
        assert algebra.generators
        for g in algebra.generators:
            assert verify_killing(entry.build(branch.params), g)


def test_audit_files_each_finding_kind_as_unknown(monkeypatch):
    # a wrong oracle class, a wrong tau, a wrong series and a wrong projective
    # expectation each become an unknown issue with the oracle's message text
    entry = get_entry("1.1")
    five = get_entry("2.1").branches()[0].expected
    params = entry.resolve_params()
    report = verify_branch(entry, Branch("wrong class", params, "2", five, 1))
    assert not report.oracle_ok and report.known_issues == ()
    assert report.unknown_issues == (
        "oracle: computed (dim=2, inf=False, class=1) != expected "
        "(dim=1, inf=False, class=5)",)
    right = entry.branches()[0].expected
    report = verify_branch(entry, Branch("wrong tau", params, "2", right, 2))
    assert not report.tau_ok and report.oracle_ok
    assert report.unknown_issues == ("tau: affine type 1 != 2",)

    boost = get_entry("2.1")
    monkeypatch.setattr(catalog, "invariants", lambda A: invariants(A.scale(2)))
    report = verify_branch(boost, boost.branches()[0])
    assert report.series_ok is False and report.known_issues == ()
    assert report.unknown_issues == (
        "series: computed invariant series differs from the recorded closed form",)

    sample = catalog.ProjectiveSample("default", {}, "1", "8")
    three = catalog.ProjectiveEntry("III", "F=1", lambda p: form_of(F=1), (sample,))
    [report] = catalog.verify_projective(three)
    assert report.computed_class == "1" and report.known_issues == ()
    assert report.unknown_issues == ("class: computed 1 != expected 8",)


def test_audit_expecting_the_catch_all_class_files_an_oracle_finding():
    # class 7 fixes no shape, so only the labels are compared
    entry = get_entry("1.1")
    params = entry.resolve_params()
    seven = Branch("seven", params, "2", SymmetryClass("7"), 1)
    report = verify_branch(entry, seven)
    assert not report.oracle_ok and report.status == "DISCREPANCY"
    assert report.findings == (
        ("oracle", "computed (dim=2, inf=False, class=1) != expected (class=7)"),)
    assert report.unknown_issues == (
        "oracle: computed (dim=2, inf=False, class=1) != expected (class=7)",)
