"""Command-line interface: subcommands, JSON output, exit codes."""

import json

import pytest

from cubicsym import CubicForm, form_of
from cubicsym.cli import main


@pytest.fixture
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)
    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_plain(files, capsys):
    bm = files("bm.json", {"F": 1})
    code, out, _ = run(capsys, "classify", "--form", bm)
    assert code == 0
    assert "symmetry class:          1" in out
    assert "abelian" in out


def test_classify_json(files, capsys):
    bm = files("bm.json", {"F": 1})
    code, out, _ = run(capsys, "classify", "--form", bm, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["class"] == "1"
    assert payload["algebra"]["finite_nontrivial_dim"] == 2


def test_solve_json(files, capsys):
    path = files("g.json", {"B1": 1})
    code, out, _ = run(capsys, "solve", "--form", path, "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["has_infinite_family"] is True
    assert payload["finite_nontrivial_dim"] == 1
    assert payload["radical"] == [["0", "0", "1"]]


def test_invariants(files, capsys):
    path = files("case21.json", {"A1": 1, "F": 1})
    code, out, _ = run(capsys, "invariants", "--form", path, "--generator", "0")
    assert code == 0
    assert "[0, 2, 0, 2, 0, 2]" in out
    assert "Delta:  0" in out


def test_invariants_no_generators(files, capsys):
    path = files("rigid.json", {"A1": 1, "A2": 1, "A3": 1})
    code, _, err = run(capsys, "invariants", "--form", path)
    assert code == 1
    assert "no nontrivial" in err


def test_radical(files, capsys):
    path = files("g.json", {"A1": 1})
    code, out, _ = run(capsys, "radical", "--form", path, "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["dimension"] == 2


def test_transform_round_trip(files, capsys, tmp_path):
    form = files("g.json", {"A1": 1, "A2": 1, "A3": 1, "F": "-1/2"})
    matrix = files("t.json", [["1", "1", "1"], ["1", "-1", "1"], ["1", "0", "-2"]])
    code, out, _ = run(capsys, "transform", "--form", form, "--matrix", matrix)
    assert code == 0
    parsed = CubicForm.from_json(json.loads(out))
    assert parsed == form_of(B1=3, B2=9)


def test_transform_identity_round_trip(files, capsys):
    original = {"A1": 2, "B2": "-1/3", "F": 1}
    form = files("g.json", original)
    eye = files("id.json", [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    code, out, _ = run(capsys, "transform", "--form", form, "--matrix", eye)
    assert code == 0
    assert CubicForm.from_json(json.loads(out)) == CubicForm.from_json(original)


def test_transform_singular_matrix(files, capsys):
    form = files("g.json", {"F": 1})
    bad = files("t.json", [[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    code, _, err = run(capsys, "transform", "--form", form, "--matrix", bad)
    assert code == 1
    assert "invertible" in err or "singular" in err


def test_compare(files, capsys):
    a = files("a.json", {"F": 1})
    b = files("b.json", {"A1": 1, "B3": 1})
    code, out, _ = run(capsys, "compare", "--form", a, "--other", b)
    assert code == 0
    assert "NOT_EQUIVALENT" in out


def test_malformed_form_reports_key(files, capsys):
    bad = files("bad.json", {"Q9": 1})
    code, _, err = run(capsys, "classify", "--form", bad)
    assert code == 1
    assert "Q9" in err


def test_matrix_with_flat_row_is_an_input_error(files, capsys):
    form = files("g.json", {"F": 1})
    flat = files("t.json", [1, 2, 3])
    code, out, err = run(capsys, "transform", "--form", form, "--matrix", flat)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "3x3" in err


def test_boolean_component_is_an_input_error(files, capsys):
    bad = files("bool.json", {"F": True})
    code, out, err = run(capsys, "classify", "--form", bad)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'F'" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "classify", "--form", "/nonexistent/g.json")
    assert code == 1
    assert "cannot read" in err


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog-list", "--json")
    payload = json.loads(out)
    assert code == 0
    assert len(payload) == 41
    assert payload[0]["id"] == "1.1"


def test_catalog_verify_all(capsys):
    code, out, _ = run(capsys, "catalog-verify", "--all", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["summary"]["unknown_discrepancies"] == 0
    assert payload["summary"]["generators_total"] == 74


def test_catalog_verify_single(capsys):
    code, out, _ = run(capsys, "catalog-verify", "--id", "3.8")
    assert code == 0
    code, _, err = run(capsys, "catalog-verify", "--id", "7.7")
    assert code == 1
    assert "unknown catalog id" in err


def test_projective_table(capsys):
    code, out, _ = run(capsys, "projective-table")
    assert code == 0
    assert "III,XII" in out
    assert "deviation (known)" in out


def test_usage_error_maps_to_input_error(capsys):
    code = main(["no-such-command"])
    capsys.readouterr()
    assert code == 1


def test_catalog_verify_regression_exit_code(capsys, monkeypatch):
    # with the known-discrepancy ledger emptied, the audit's findings become
    # regressions and the command signals them with exit code 2
    from cubicsym import catalog
    monkeypatch.setattr(catalog, "KNOWN_DISCREPANCIES", {})
    code, out, _ = run(capsys, "catalog-verify", "--all", "--json")
    assert code == 2
    assert json.loads(out)["summary"]["unknown_discrepancies"] > 0


def test_selftest_smoke(capsys):
    code, out, _ = run(capsys, "selftest", "--trials", "5")
    assert code == 0
    assert "selftest: PASS" in out
