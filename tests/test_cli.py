"""Command-line interface: subcommands, JSON output, exit codes."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import cubicsym
from cubicsym import CubicForm, Mat3, catalog, cli, form_of, liealg, properties
from cubicsym.cli import _emit, main


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
    assert "2-dimensional algebra:   abelian\n" in out


def test_classify_plain_nonabelian(files, capsys):
    # catalog entry 2.6, B1=B3=1: class 2, a 2-dimensional nonabelian algebra
    path = files("g.json", {"B1": 1, "B3": 1})
    code, out, _ = run(capsys, "classify", "--form", path)
    assert code == 0
    assert "symmetry class:          2" in out
    assert "2-dimensional algebra:   nonabelian\n" in out


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


def test_solve_plain(files, capsys):
    path = files("g.json", {"B1": 1})
    code, out, _ = run(capsys, "solve", "--form", path)
    assert code == 0
    lines = out.splitlines()
    assert "radical dimension:       1" in lines
    assert "radical vector: (0, 0, 1)" in lines
    assert "infinite family:         yes" in lines


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


def test_invariants_generator_out_of_range(files, capsys):
    path = files("case21.json", {"A1": 1, "F": 1})
    code, out, err = run(capsys, "invariants", "--form", path, "--generator", "9")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "generator index 9 out of range 0..0" in err


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


def test_exponent_notation_is_an_input_error(files, capsys):
    # Fraction("1e5000") is a 5,001-digit integer: it parsed, then the JSON
    # output died on Python's integer-to-string digit limit
    form = files("g.json", {"A1": "1e5000", "F": 1})
    identity = files("id.json", [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    code, out, err = run(capsys, "transform", "--form", form, "--matrix", identity)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'A1'" in err


def test_decimal_component_is_accepted(files, capsys):
    form = files("g.json", {"A1": "0.5", "F": 1})
    identity = files("id.json", [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    code, out, _ = run(capsys, "transform", "--form", form, "--matrix", identity)
    assert code == 0
    assert json.loads(out) == {"A1": "1/2", "F": 1}


def test_non_utf8_form_file_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "g.json"
    bad.write_bytes(b'\xff\xfe{"F": 1}')
    code, out, err = run(capsys, "classify", "--form", str(bad))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "is not valid JSON" in err


def test_non_utf8_matrix_file_is_an_input_error(files, capsys, tmp_path):
    form = files("g.json", {"F": 1})
    bad = tmp_path / "t.json"
    bad.write_bytes(b"\xff\xfe[[1, 0, 0], [0, 1, 0], [0, 0, 1]]")
    code, out, err = run(capsys, "transform", "--form", form, "--matrix", str(bad))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "is not valid JSON" in err


def test_overlong_integer_in_form_file_is_an_input_error(tmp_path, capsys):
    # json refuses integer literals over the interpreter's digit limit (4300)
    big = tmp_path / "g.json"
    big.write_text('{"F": 1' + "0" * 5000 + "}")
    code, out, err = run(capsys, "classify", "--form", str(big))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "is not valid JSON" in err


def test_overlong_integer_in_matrix_file_is_an_input_error(files, capsys, tmp_path):
    form = files("g.json", {"F": 1})
    big = tmp_path / "t.json"
    big.write_text("[[1" + "0" * 5000 + ", 0, 0], [0, 1, 0], [0, 0, 1]]")
    code, out, err = run(capsys, "transform", "--form", form, "--matrix", str(big))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "is not valid JSON" in err


@pytest.mark.parametrize("option", ["--form", "--other", "--matrix"])
def test_deeply_nested_json_is_an_input_error(files, capsys, tmp_path, option):
    # json's decoder raises RecursionError, not ValueError, on deep nesting
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    form = files("g.json", {"F": 1})
    identity = files("id.json", [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    argv = {"--form": ["classify", "--form", str(deep)],
            "--other": ["compare", "--form", form, "--other", str(deep)],
            "--matrix": ["transform", "--form", form, "--matrix", str(deep)]}[option]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "nests too deeply" in err


def test_overlong_integer_in_output_is_an_error(files, capsys):
    # each entry has 1,501 digits, but the pulled-back F = 10^4500 has 4,501:
    # over the interpreter's limit for int-to-str conversion (4300)
    form = files("g.json", {"F": 1})
    big = "1" + "0" * 1500
    matrix = files("t.json", [[big, 0, 0], [0, big, 0], [0, 0, big]])
    code, out, err = run(capsys, "transform", "--form", form, "--matrix", matrix)
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot write the output") and err.count("\n") == 1
    assert "limit of 4300 digits" in err


def test_other_value_errors_in_output_propagate():
    # only the digit-limit error becomes an error: line; a ValueError from
    # building the payload is a fault in the program and keeps its traceback
    def payload():
        raise ValueError("not a digit limit")
    with pytest.raises(ValueError, match="not a digit limit"):
        _emit(payload, True)


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


def test_catalog_list_plain(capsys):
    code, out, _ = run(capsys, "catalog-list")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["id", "tau", "claimed", "branches", "components",
                                "(defaults)"]
    assert len(lines) == 42
    assert lines[[line.split()[0] for line in lines].index("3.12")].split()[:4] == \
        ["3.12", "3", "1", "1"]


def test_closed_output_pipe_exits_1_without_a_traceback():
    # the reader is gone before the child, still importing, writes a line
    src = str(Path(cubicsym.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, "-m", "cubicsym.cli", "catalog-list"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err == b""


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


def test_catalog_verify_empty_id_is_an_input_error(capsys):
    # an empty --id names no entry; it does not fall back to the full audit
    code, out, err = run(capsys, "catalog-verify", "--id", "")
    assert code == 1
    assert out == ""
    assert err == "error: unknown catalog id ''\n"


def test_catalog_verify_all_with_id_is_an_input_error(capsys):
    code, out, err = run(capsys, "catalog-verify", "--all", "--id", "3.8")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--id" in err


def test_internal_key_error_propagates(files, capsys, monkeypatch):
    # only catalog-verify --id turns its unknown-id KeyError into an input
    # error; a KeyError from inside a computation is a fault and keeps its traceback
    def broken(form):
        raise KeyError("internal bug")
    monkeypatch.setattr(cli, "classify", broken)
    path = files("bm.json", {"F": 1})
    with pytest.raises(KeyError, match="internal bug"):
        main(["classify", "--form", path])


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


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_selftest_rejects_fewer_than_one_trial(capsys, trials):
    code, out, err = run(capsys, "selftest", "--trials", trials)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--trials" in err


def test_selftest_smoke(capsys):
    code, out, _ = run(capsys, "selftest", "--trials", "5")
    assert code == 0
    assert "selftest: PASS" in out
    assert "radical covariance: PASS [5 trials, seed 102]" in out


def test_selftest_failure_prints_seed_and_form_json(capsys, monkeypatch, tmp_path):
    # a radical check that always fails: the summary names the suite's seed,
    # and each failure gives its form as JSON that classify --form reads back
    monkeypatch.setattr(properties, "span_equal", lambda a, b: False)
    code, out, _ = run(capsys, "selftest", "--trials", "3")
    assert code == 1
    assert "radical covariance: FAIL (3) [3 trials, seed 102]" in out
    lines = [line for line in out.splitlines() if "radical covariance failure" in line]
    assert len(lines) == 3
    for line in lines:
        text = re.search(r"form JSON (\{[^}]*\})", line).group(1)
        form = CubicForm.from_json(json.loads(text))
        assert f"failure for {form.describe()} (form JSON {text})" in line
        path = tmp_path / "form.json"
        path.write_text(text)
        code, classified, _ = run(capsys, "classify", "--form", str(path))
        assert code == 0 and "symmetry class:" in classified
    # each failure is followed by a shell command that classifies its form;
    # run it as printed, with a cubicsym on PATH that runs this checkout
    commands = [line.strip()[2:] for line in out.splitlines() if line.strip().startswith("$ ")]
    assert len(commands) == 3
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    script = bin_dir / "cubicsym"
    script.write_text(f"#!{sys.executable}\nimport sys\n"
                      f"sys.path.insert(0, {str(Path(cubicsym.__file__).parents[1])!r})\n"
                      "from cubicsym.cli import main\nsys.exit(main())\n")
    script.chmod(0o755)
    env = dict(os.environ, PATH=f"{bin_dir}{os.pathsep}{os.environ['PATH']}")
    for command, line in zip(commands, lines):
        text = re.search(r"form JSON (\{[^}]*\})", line).group(1)
        assert command == f"echo {shlex.quote(text)} | cubicsym classify --form /dev/stdin"
        proc = subprocess.run(command, shell=True, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "symmetry class:" in proc.stdout


def test_selftest_names_unknown_audit_findings(capsys, monkeypatch):
    # drop one affine and one projective finding from the ledger: selftest
    # fails, names each as unknown and prints the command that reproduces it
    known = dict(catalog.KNOWN_DISCREPANCIES)
    del known[("2.4", "dimension")], known[("X", "table")]
    monkeypatch.setattr(catalog, "KNOWN_DISCREPANCIES", known)
    code, out, _ = run(capsys, "selftest", "--trials", "1")
    assert code == 1
    assert "12 known discrepancies, 2 unknown" in out
    lines = out.splitlines()
    i = lines.index("      $ cubicsym catalog-verify --id 2.4")
    assert lines[i - 1].startswith("    2.4 [default]: dimension: ")
    j = lines.index("      $ cubicsym catalog-verify --all")
    assert lines[j - 1].startswith("    projective X [default]: table: ")
    assert lines[-1] == "selftest: FAIL"
    for k in (i, j):
        code, verified, _ = run(capsys, *shlex.split(lines[k].strip())[2:])
        assert code == 2
        assert lines[k - 1].split(": ", 1)[1] in verified


def test_selftest_failure_prints_matrices_as_json(capsys, monkeypatch):
    # invariants taken of A + E11 change under conjugation and break
    # Cayley-Hamilton, and a bracket A B is not antisymmetric: each failure
    # prints its matrices as JSON that transform --matrix reads
    e11 = Mat3.diag(1, 0, 0)
    monkeypatch.setattr(properties, "invariants", lambda A: liealg.invariants(A + e11))
    monkeypatch.setattr(properties, "bracket", lambda A, B: A @ B)
    code, out, _ = run(capsys, "selftest", "--trials", "3")
    assert code == 1
    matrix_suites = ("Cayley-Hamilton and trace recursion",
                     "conjugation invariance of invariants", "bracket identities")
    failures, suite = [], None
    for line in out.splitlines():
        if not line.startswith(" "):
            suite = line.split(":")[0]
        elif suite in matrix_suites:
            failures.append(line)
    for name in matrix_suites:
        assert f"{name}: FAIL" in out
    assert any("T = [[" in line for line in failures)
    assert any("bracket(A,A) != 0 for A = [[" in line for line in failures)
    for line in failures:
        matrices = re.findall(r"\b([ABCT]) = (\[\[.*?\]\])", line)
        assert matrices, line
        for _, text in matrices:
            assert isinstance(Mat3.from_json(json.loads(text)), Mat3)
