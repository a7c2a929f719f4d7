"""Command-line interface: subcommands, JSON output, exit codes."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import cubicsym
from cubicsym import CubicForm, Mat3, catalog, cli, liealg, properties
from cubicsym.cli import _emit, main
from cubicsym.killing import build_system, killing_operator, solve


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
    code, out, _ = run(capsys, "classify", "--form", files("zero.json", {}))
    assert code == 0
    assert out.splitlines()[-1] == (
        "note: degenerate input: the zero form carries the full radical")


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
    code, out, _ = run(capsys, "radical", "--form", path)
    assert code == 0
    assert out.splitlines() == ["radical dimension: 2", "  (0, 1, 0)", "  (0, 0, 1)"]


def test_transform_round_trip(files, capsys, tmp_path):
    form = files("g.json", {"A1": 1, "A2": 1, "A3": 1, "F": "-1/2"})
    matrix = files("t.json", [["1", "1", "1"], ["1", "-1", "1"], ["1", "0", "-2"]])
    code, out, _ = run(capsys, "transform", "--form", form, "--matrix", matrix)
    assert code == 0
    parsed = CubicForm.from_json(json.loads(out))
    assert parsed == CubicForm(B1=3, B2=9)


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
    # classes 5 and 6: the plain output ends with the witness and a note
    five = files("five.json", {"A1": 1, "B1": 1, "B2": -1})
    six = files("six.json", {"A1": 1, "B1": 1, "B2": 1})
    code, out, _ = run(capsys, "compare", "--form", five, "--other", six)
    assert code == 0
    assert out.splitlines() == [
        "NOT_EQUIVALENT",
        "witness: symmetry class 5 vs 6",
        "note: classes 5 and 6 are complex-equivalent: the proportionality constant "
        "is imaginary",
    ]
    # a class-5 form and its pullback by a rational T: one class, so the
    # series are real-proportional and the verdict notes it
    g = CubicForm(A1=1, F=1)
    T = Mat3([[1, "1/2", 0], [0, 2, -1], [1, 0, "1/3"]])
    g_path, h_path = files("g.json", g.to_json()), files("h.json", g.pullback(T).to_json())
    code, out, _ = run(capsys, "compare", "--form", g_path, "--other", h_path)
    assert code == 0
    assert out.splitlines() == [
        "POSSIBLY_EQUIVALENT",
        "note: invariant series proportional with real constant",
    ]
    code, out, _ = run(capsys, "compare", "--form", g_path, "--other", h_path, "--json")
    assert code == 0
    assert json.loads(out) == {"verdict": "POSSIBLY_EQUIVALENT", "witness": None,
                               "notes": ["invariant series proportional with real constant"]}


def test_malformed_form_reports_key(files, capsys):
    bad = files("bad.json", {"Q9": 1})
    code, _, err = run(capsys, "classify", "--form", bad)
    assert code == 1
    assert "Q9" in err


def test_form_that_is_not_an_object_is_an_input_error(files, capsys):
    array = files("array.json", [1, 2])
    code, out, err = run(capsys, "classify", "--form", array)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "form JSON must be an object" in err


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


def test_repeated_key_in_form_file_is_an_input_error(tmp_path, capsys):
    # json alone reads a repeated key as its last value, here class 3(1)
    form = tmp_path / "g.json"
    form.write_text('{"A1": 1, "A1": 2}')
    code, out, err = run(capsys, "classify", "--form", str(form))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "repeated key 'A1'" in err


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


def _child_env():
    """The environment of a child interpreter that imports this cubicsym."""
    src = str(Path(cubicsym.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_closed_output_pipe_exits_1_without_a_traceback():
    # the reader is gone before the child, still importing, writes a line
    proc = subprocess.Popen([sys.executable, "-m", "cubicsym.cli", "catalog-list"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env())
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_output_device_exits_1_with_one_error_line():
    # every write to /dev/full fails with ENOSPC, a write error other than a
    # closed pipe
    env = _child_env()
    for extra in ([], ["--json"]):
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "cubicsym.cli", "catalog-list", *extra],
                stdout=full, stderr=subprocess.PIPE, env=env, timeout=60)
        err = proc.stderr.decode()
        assert proc.returncode == 1, extra
        assert len(err.splitlines()) == 1, err
        assert err.startswith("error:") and "Traceback" not in err, err


@pytest.mark.skipif(not (os.path.exists("/dev/full") and os.path.isdir("/proc/self/fd")),
                    reason="needs /dev/full and /proc")
def test_failed_writes_leave_no_descriptor_open():
    # each call fails on a fresh /dev/full, since a failed call leaves fd 1 on
    # devnull; the last line of stderr counts the open descriptors per call
    script = (
        "import os, sys\n"
        "from cubicsym.cli import main\n"
        "counts = []\n"
        "for _ in range(3):\n"
        "    full = os.open('/dev/full', os.O_WRONLY)\n"
        "    os.dup2(full, 1)\n"
        "    os.close(full)\n"
        "    assert main(['catalog-list']) == 1\n"
        "    counts.append(len(os.listdir('/proc/self/fd')))\n"
        "print(counts, file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", script], stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, env=_child_env(), text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    assert lines[:3] == [lines[0]] * 3 and lines[0].startswith("error: cannot write")
    counts = json.loads(lines[3])
    assert len(counts) == 3 and counts == [counts[0]] * 3


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


@pytest.mark.parametrize("argv", [
    [], ["no-such-command"], ["classify"], ["classify", "--form"],
    ["invariants", "--form", "g.json", "--generator", "x"],
    ["selftest", "--trials", "many"], ["solve", "--form", "g.json", "--bogus"],
])
def test_usage_errors_are_one_line(capsys, argv):
    # argparse would print its usage block first and exit 2, the audit's code
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [["--help"], ["classify", "--help"]])
def test_help_exits_0(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert out.startswith("usage: cubicsym") and err == ""


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
    assert out == (
        "evaluate/pullback compatibility: PASS [5 trials, seed 101]\n"
        "radical covariance: PASS [5 trials, seed 102]\n"
        "kernel and class covariance: PASS [5 trials, seed 103]\n"
        "Lie closure of kernels: PASS [5 trials, seed 104]\n"
        "Cayley-Hamilton and trace recursion: PASS [5 trials, seed 105]\n"
        "conjugation invariance of invariants: PASS [5 trials, seed 106]\n"
        "bracket identities: PASS [5 trials, seed 107]\n"
        "Killing operator linearity and radical fields: PASS [5 trials, seed 108]\n"
        "catalog audit: 77 branches, 14 known discrepancies, 0 unknown, generators 69/74\n"
        "selftest: PASS\n")


# the suites as selftest prints them, with their seeds
SUITE_SEEDS = {
    "evaluate/pullback compatibility": 101, "radical covariance": 102,
    "kernel and class covariance": 103, "Lie closure of kernels": 104,
    "Cayley-Hamilton and trace recursion": 105, "conjugation invariance of invariants": 106,
    "bracket identities": 107, "Killing operator linearity and radical fields": 108,
}
_draw_form, _draw_matrix = properties.random_form, properties.random_matrix


class _Shifted(CubicForm):
    """A form whose evaluate is off by one, so that pullback is not covariant."""
    __slots__ = ()

    def evaluate(self, v):
        return CubicForm.evaluate(self, v) + 1


class _ShiftedInEveryFrame(_Shifted):
    """Off by one in every frame: covariant under pullback, but not cubic."""
    __slots__ = ()

    def pullback(self, T):
        return _ShiftedInEveryFrame.from_json(CubicForm.pullback(self, T).to_json())


class _OffScale(Mat3):
    """A matrix that scales by c + 1 when asked to scale by c."""
    __slots__ = ()

    def scale(self, c):
        return Mat3.scale(self, c + 1)


def _selftest_failures(out, expected):
    """Check a failing selftest --trials 7 against expected, which maps each
    failing suite to (a regex its failures match after "trial i: ", the
    number of drawn forms in each failure, whether every trial fails).
    Returns {suite: [(failure, [command, ...]), ...]}."""
    summaries, suites = {}, {}
    for line in out.splitlines():
        if not line.startswith(" "):
            name, _, summaries[name] = line.partition(": ")
            failures = suites.setdefault(name, [])
        elif line.startswith("      $ "):
            failures[-1][1].append(line[6:])
        else:
            failures.append((line[4:], []))
    for name, seed in SUITE_SEEDS.items():
        failures = suites[name]
        if name not in expected:
            assert summaries[name] == f"PASS [7 trials, seed {seed}]"
            continue
        message, n_forms, every_trial = expected[name]
        # a suite stops at its fifth failure
        assert summaries[name] == f"FAIL ({len(failures)}) [7 trials, seed {seed}]"
        trials = [int(re.match(r"trial (\d+): ", f).group(1)) for f, _ in failures]
        assert trials == (list(range(5)) if every_trial else sorted(set(trials)))
        for failure, commands in failures:
            assert re.match(rf"trial \d+: {message}", failure), failure
            # each drawn form as describe() text with its JSON, then one
            # command per form that classifies it
            texts = re.findall(r"form JSON (\{[^}]*\})", failure)
            assert len(texts) == n_forms, failure
            for text in texts:
                form = CubicForm.from_json(json.loads(text))
                assert f"{form.describe()} (form JSON {text})" in failure
            assert commands == [f"$ echo {shlex.quote(text)} | cubicsym classify --form /dev/stdin"
                                for text in texts]
            # each matrix as JSON that transform --matrix reads
            matrices = re.findall(r"\b[ABCT] = (\[\[.*?\]\])", failure)
            assert matrices or texts, failure
            for text in matrices:
                assert isinstance(Mat3.from_json(json.loads(text)), Mat3)
    return {name: suites[name] for name in expected}


# (patches to names in cubicsym.properties, expected failures), each failing
# one or two suites' form checks
FORM_FAILURES = [
    # same_span also calls span_equal, so the kernel check is kept passing
    ({"span_equal": lambda a, b: False, "same_span": lambda a, b: True},
     {"radical covariance": ("radical covariance failure for ", 1, True)}),
    ({"random_form": lambda rng: _Shifted.from_json(_draw_form(rng).to_json())},
     {"evaluate/pullback compatibility": ("pullback/evaluate mismatch for ", 1, True)}),
    ({"random_form": lambda rng: _ShiftedInEveryFrame.from_json(_draw_form(rng).to_json())},
     {"evaluate/pullback compatibility": ("homogeneity failure for ", 1, True)}),
    ({"classify": lambda g: SimpleNamespace(label=g.describe(), algebra=solve(g))},
     {"kernel and class covariance": ("class label changed under pullback: ", 1, True)}),
    ({"same_span": lambda a, b: False},
     {"kernel and class covariance": ("kernel span not covariant for ", 1, True)}),
    ({"verify_killing": lambda g, A: False},
     {"Lie closure of kernels": ("kernel element fails the Killing check for ", 1, False),
      "Killing operator linearity and radical fields": ("radical rank-one field fails for ",
                                                        1, False)}),
    ({"in_span": lambda v, t: False},
     {"Lie closure of kernels": ("bracket escapes the kernel for ", 1, False)}),
    ({"killing_operator": lambda g, A: killing_operator(g, A) + CubicForm(F=1)},
     {"Killing operator linearity and radical fields": (
         "K not linear in the form for .* and ", 2, True)}),
    ({"build_system": lambda g: SimpleNamespace(
        matrix=[[2 * x for x in row] for row in build_system(g).matrix])},
     {"Killing operator linearity and radical fields": (
         r"assembled system disagrees with d/dt G\(x \+ tAx\) at t = 0 for .*, "
         r"A = \[\[.*\]\], x = \[", 1, True)}),
]


def test_selftest_failure_prints_seed_and_form_json(capsys, monkeypatch, tmp_path):
    # a property that fails for the drawn forms: the summary names the
    # suite's seed, and each failure gives its forms as JSON that classify
    # --form reads back, followed by the commands that classify them, which
    # are run as printed with a cubicsym on PATH that runs this checkout
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    script = bin_dir / "cubicsym"
    script.write_text(f"#!{sys.executable}\nimport sys\n"
                      f"sys.path.insert(0, {str(Path(cubicsym.__file__).parents[1])!r})\n"
                      "from cubicsym.cli import main\nsys.exit(main())\n")
    script.chmod(0o755)
    env = dict(os.environ, PATH=f"{bin_dir}{os.pathsep}{os.environ['PATH']}")
    path = tmp_path / "form.json"
    for patches, expected in FORM_FAILURES:
        with monkeypatch.context() as patch:
            for name, value in patches.items():
                patch.setattr(properties, name, value)
            code, out, _ = run(capsys, "selftest", "--trials", "7")
        assert code == 1
        for failures in _selftest_failures(out, expected).values():
            for failure, _ in failures:
                for text in re.findall(r"form JSON (\{[^}]*\})", failure):
                    path.write_text(text)
                    code, classified, _ = run(capsys, "classify", "--form", str(path))
                    assert code == 0 and "symmetry class:" in classified
            # the commands of the suite's first failure
            for command in failures[0][1]:
                proc = subprocess.run(command[2:], shell=True, env=env, capture_output=True,
                                      text=True)
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


# (patches to names in cubicsym.properties, expected failures), each failing
# the matrix checks of one to three suites
MATRIX_FAILURES = [
    # invariants taken of A + E11 change under conjugation and give the
    # wrong Delta, and a bracket A B is not zero on (A, A)
    ({"invariants": lambda A: liealg.invariants(A + Mat3.diag(1, 0, 0)),
      "bracket": lambda A, B: A @ B},
     {"Cayley-Hamilton and trace recursion": (r"Delta != det\(A\) for A = ", 0, True),
      "conjugation invariance of invariants": (
          r"conjugation changed invariants of A = \[\[.*\]\], T = \[\[", 0, True),
      "bracket identities": (r"bracket\(A,A\) != 0 for A = \[\[", 0, True),
      "Lie closure of kernels": ("bracket escapes the kernel for ", 1, False)}),
    # zero on (A, A), but not antisymmetric
    ({"bracket": lambda A, B: liealg.bracket(A, B) + (A - B) @ (A - B)},
     {"bracket identities": ("antisymmetry fails for A = .*, B = ", 0, True),
      "Lie closure of kernels": ("bracket escapes the kernel for ", 1, False)}),
    # antisymmetric, but cubic
    ({"bracket": lambda A, B: A @ A @ B - B @ B @ A},
     {"bracket identities": ("Jacobi identity fails for A = .*, B = .*, C = ", 0, True),
      "Lie closure of kernels": ("bracket escapes the kernel for ", 1, False)}),
    # drawn matrices that scale by lambda + 1
    ({"random_matrix": lambda rng: _OffScale(_draw_matrix(rng).rows)},
     {"Cayley-Hamilton and trace recursion": ("Cayley-Hamilton fails for A = ", 0, True),
      "bracket identities": ("bilinearity fails for lambda = -?[0-9]+, A = .*, B = .*, C = ",
                             0, True)}),
]


def test_selftest_failure_prints_matrices_as_json(capsys, monkeypatch):
    # each failure of a drawn matrix prints its matrices as JSON that
    # transform --matrix reads
    for patches, expected in MATRIX_FAILURES:
        with monkeypatch.context() as patch:
            for name, value in patches.items():
                patch.setattr(properties, name, value)
            code, out, _ = run(capsys, "selftest", "--trials", "7")
        assert code == 1
        _selftest_failures(out, expected)


@pytest.mark.parametrize("wrong, identity", [
    (lambda s: liealg.InvariantSeries(I=s.I, delta=s.delta + 1), "Delta != det(A)"),
    (lambda s: liealg.InvariantSeries(I=s.I[:2] + (s.I[2] + 1,) + s.I[3:], delta=s.delta),
     "I3 != Tr(A^3)"),
    (lambda s: liealg.InvariantSeries(I=s.I[:5] + (-s.I[5] - 1,), delta=s.delta),
     "I6 != Tr(A^6)"),
    (lambda s: liealg.InvariantSeries(I=(s.I[0] + 1,) + s.I[1:], delta=s.delta),
     "Cayley-Hamilton fails"),
])
def test_cayley_hamilton_failures_name_the_broken_identity(monkeypatch, wrong, identity):
    # Delta is checked before Cayley-Hamilton, which reads only I1, I2 and
    # Delta, so a wrong I3 or I6 is caught after it; each failure names the
    # identity that broke
    monkeypatch.setattr(properties, "invariants", lambda A: wrong(liealg.invariants(A)))
    result = properties.suite_cayley_hamilton(trials=3)
    assert result.name == "Cayley-Hamilton and trace recursion"
    assert [f.split(" for A = ")[0] for f in result.failures] == \
        [f"trial {i}: {identity}" for i in range(3)]
