"""Command-line front end.

Subcommands:

    solve            symmetry algebra of a form
    classify         symmetry class with evidence
    invariants       invariant series of a computed generator
    radical          radical basis of a form
    transform        pull a form back along a transform (emits form JSON)
    compare          necessary-condition equivalence check of two forms
    catalog-list     list the built-in catalog
    catalog-verify   recompute and audit catalog entries
    projective-table correspondence of projective and symmetry classes
    selftest         randomized property suites plus the full audit

Forms are JSON objects with component keys A1..A3, B1..B3, C1..C3, F and
integer, "p/q" or decimal ("0.5") values in ASCII digits, with no exponent;
missing keys are zero, and a repeated key is an input error.  Transforms
are 3x3 arrays of entries of the same kinds.  All output rationals are in
lowest terms.

Exit codes: 0 success; 1 input error, a result with an integer longer than
the interpreter prints (4,300 digits by default), an output pipe closed by
its reader (as by `| head -1`, silently) or any other failure to write the
output (as to a full disk, with a one-line error); 2 catalog-verify found a
discrepancy outside the known list (regression signal).
"""

import argparse
import json
import os
import sys

from . import catalog
from .classify import classify, compare
from .forms import CubicForm, Mat3, SingularTransformError, format_scalar
from .killing import solve
from .liealg import invariants
from .properties import run_all


class InputError(Exception):
    pass


def _unique_keys(pairs):
    """json's object_pairs_hook: the object as a dict, refusing a repeated
    key, which json would otherwise read as its last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def _load(path, what, parse):
    """parse(data) of the JSON in the file at path; every failure is a
    one-line InputError that names the file as a `what` file."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise InputError(f"cannot read {what} file {path!r}: {exc}") from exc
    except ValueError as exc:
        # JSONDecodeError, UnicodeDecodeError, the ValueError json raises for
        # an integer literal longer than the interpreter's digit limit, and a
        # repeated key from _unique_keys
        raise InputError(f"{what} file {path!r} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        # json's decoder recurses once per nested array or object
        raise InputError(f"{what} file {path!r} nests too deeply to parse: {exc}") from exc
    try:
        return parse(data)
    except ValueError as exc:
        raise InputError(f"{what} file {path!r}: {exc}") from exc


def _emit(payload, as_json, plain=None):
    """Format payload() and print it as JSON or through plain.

    str and json.dumps raise ValueError where they meet an int longer than the
    interpreter's limit for int-to-str conversion (4,300 digits by default),
    which a pullback or an exact kernel can reach.  Any other ValueError from
    building the payload propagates.
    """
    try:
        payload = payload()
        text = json.dumps(payload, indent=2, sort_keys=True) if as_json else None
    except ValueError as exc:
        if "integer string conversion" not in str(exc):
            raise
        raise InputError(
            "cannot write the output: it has an integer over the interpreter's "
            f"limit of {sys.get_int_max_str_digits()} digits (PYTHONINTMAXSTRDIGITS "
            "sets the limit)") from exc
    if as_json:
        print(text)
    else:
        plain(payload)


def _matrix_lines(rows):
    return "\n".join("    [" + ", ".join(row) + "]" for row in rows)


def _algebra_lines(a):
    """The lines solve and classify share, from a SymmetryAlgebra's JSON."""
    print(f"finite nontrivial dim:   {a['finite_nontrivial_dim']}")
    print(f"infinite family:         {'yes' if a['has_infinite_family'] else 'no'}")
    print(f"radical dimension:       {len(a['radical'])}")


def cmd_solve(args):
    algebra = solve(_load(args.form, "form", CubicForm.from_json))

    def plain(p):
        print(f"kernel dimension:        {p['kernel_dim']}")
        _algebra_lines(p)
        for i, g in enumerate(p["generators"]):
            print(f"generator {i}:")
            print(_matrix_lines(g))
        for v in p["radical"]:
            print(f"radical vector: ({', '.join(v)})")

    _emit(algebra.to_json, args.json, plain)
    return 0


def cmd_classify(args):
    report = classify(_load(args.form, "form", CubicForm.from_json))

    def plain(p):
        print(f"symmetry class:          {p['class']}")
        if p["complex_equivalent_to"]:
            print(f"complex-equivalent to:   class {p['complex_equivalent_to']}")
        _algebra_lines(p["algebra"])
        if p["invariants"]:
            print(f"invariants I1..I6:       [{', '.join(p['invariants']['I'])}]")
            print(f"determinant:             {p['invariants']['Delta']}")
        if p["structure_constants"] is not None:
            # classify labels a 2-dimensional algebra 1 when abelian, 2 when not
            print("2-dimensional algebra:   "
                  + ("abelian" if p["class"] == "1" else "nonabelian"))
        for note in p["notes"]:
            print(f"note: {note}")

    _emit(report.to_json, args.json, plain)
    return 0


def cmd_invariants(args):
    algebra = solve(_load(args.form, "form", CubicForm.from_json))
    if not algebra.generators:
        raise InputError("the form has no nontrivial linear symmetries")
    if not 0 <= args.generator < len(algebra.generators):
        raise InputError(f"generator index {args.generator} out of range "
                         f"0..{len(algebra.generators) - 1}")
    series = invariants(algebra.generators[args.generator])

    def plain(p):
        print(f"I1..I6: [{', '.join(p['I'])}]")
        print(f"Delta:  {p['Delta']}")
        print(f"char poly coefficients: [{', '.join(p['charpoly'])}]")

    _emit(lambda: {**series.to_json(), "generator_index": args.generator},
          args.json, plain)
    return 0


def cmd_radical(args):
    form = _load(args.form, "form", CubicForm.from_json)
    basis = form.radical()

    def plain(p):
        print(f"radical dimension: {p['dimension']}")
        for v in p["basis"]:
            print(f"  ({', '.join(v)})")

    _emit(lambda: {"dimension": len(basis),
                   "basis": [[format_scalar(c) for c in v] for v in basis]},
          args.json, plain)
    return 0


def cmd_transform(args):
    form = _load(args.form, "form", CubicForm.from_json)
    T = _load(args.matrix, "matrix", Mat3.from_json)
    try:
        out = form.pullback(T)
    except SingularTransformError as exc:
        raise InputError(str(exc)) from exc
    # always emit the form JSON: the output is itself a valid form file
    _emit(out.to_json, True)
    return 0


def cmd_compare(args):
    verdict = compare(_load(args.form, "form", CubicForm.from_json),
                      _load(args.other, "form", CubicForm.from_json))

    def plain(p):
        print(p["verdict"])
        if p["witness"]:
            print(f"witness: {p['witness']}")
        for note in p["notes"]:
            print(f"note: {note}")

    _emit(verdict.to_json, args.json, plain)
    return 0


def cmd_catalog_list(args):
    def payload():
        return [{
            "id": entry.id,
            "affine_type": entry.tau,
            "components": entry.build(entry.defaults()).to_json(),
            "params": {p.name: format_scalar(p.default) for p in entry.params},
            "claimed_dim": entry.claimed_dim,
            "branches": len(entry.branches()),
        } for entry in catalog.ENTRIES]

    def plain(p):
        print(f"{'id':6s} {'tau':3s} {'claimed':8s} {'branches':8s} components (defaults)")
        for row in p:
            comps = ", ".join(f"{k}={v}" for k, v in row["components"].items())
            print(f"{row['id']:6s} {row['affine_type']:<3d} {row['claimed_dim']:8s} "
                  f"{row['branches']:<8d} {comps}")

    _emit(payload, args.json, plain)
    return 0


def cmd_catalog_verify(args):
    if args.id is not None:
        if args.all:
            raise InputError("--all and --id exclude each other: --id audits one entry")
        try:
            catalog.get_entry(args.id)
        except KeyError as exc:
            raise InputError(exc.args[0]) from None
        reports = catalog.verify_entry(args.id)
        audit = catalog.AuditReport(tuple(reports), ())
    else:
        audit = catalog.verify_all()

    def plain(p):
        s = p["summary"]
        print(f"branches audited:      {s['branches']}")
        print(f"clean matches:         {s['match']}")
        print(f"known discrepancies:   {s['known_discrepancies']}")
        print(f"unknown discrepancies: {s['unknown_discrepancies']}")
        print(f"generator checks:      {s['generators_passed']}/{s['generators_total']}")
        for r in p["entries"]:
            if r["status"] == "DISCREPANCY":
                issues = "; ".join(r["known_issues"] + r["unknown_issues"])
                print(f"  {r['id']} [{r['branch']}]: {issues}")
        for r in p["projective"]:
            if r["status"] == "DISCREPANCY":
                issues = "; ".join(r["known_issues"] + r["unknown_issues"])
                print(f"  projective {r['id']}: {issues}")

    _emit(audit.to_json, args.json, plain)
    return 2 if audit.unknown_discrepancies else 0


def cmd_projective_table(args):
    rows, deviations = catalog.projective_table()

    def plain(p):
        print(f"{'symmetry class':16s} {'recorded':22s} computed")
        for row in p["rows"]:
            rec = ",".join(row["recorded"]) or "-"
            comp = ",".join(row["computed"]) or "-"
            print(f"{row['class']:16s} {rec:22s} {comp}")
        for d in p["deviations"]:
            flag = "known" if d["known"] else "UNKNOWN"
            print(f"deviation ({flag}): projective {d['projective']} recorded "
                  f"under {d['recorded']}, computed {d['computed']}")

    _emit(lambda: {"rows": [{"class": label, **data} for label, data in rows.items()],
                   "deviations": deviations}, args.json, plain)
    unknown = [d for d in deviations if not d["known"]]
    return 2 if unknown else 0


def cmd_selftest(args):
    if args.trials < 1:
        raise InputError(f"--trials must be at least 1, got {args.trials}")
    results = run_all(trials=args.trials)
    ok = True
    for result in results:
        print(result.summary())
        for f in result.failures:
            for line in f.splitlines():
                print(f"    {line}")
        ok = ok and result.ok
    audit = catalog.verify_all()
    passed, total = audit.generator_tally()
    print(f"catalog audit: {audit.n_branches} branches, "
          f"{len(audit.known_discrepancies)} known discrepancies, "
          f"{len(audit.unknown_discrepancies)} unknown, "
          f"generators {passed}/{total}")
    # each unknown finding, then the command that reproduces it (--id takes
    # affine entries only, so a projective sample needs the full audit)
    for r in audit.branch_reports:
        if r.unknown_issues:
            print(f"    {r.entry_id} [{r.branch}]: {'; '.join(r.unknown_issues)}")
            print(f"      $ cubicsym catalog-verify --id {r.entry_id}")
    for r in audit.projective_reports:
        if r.unknown_issues:
            print(f"    projective {r.entry_id} [{r.sample}]: {'; '.join(r.unknown_issues)}")
            print("      $ cubicsym catalog-verify --all")
    ok = ok and not audit.unknown_discrepancies
    print("selftest:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


class _Parser(argparse.ArgumentParser):
    """Usage errors are one-line input errors, exit code 1 (2 is an audit regression)."""

    def error(self, message):
        raise InputError(message)


def build_parser():
    parser = _Parser(
        prog="cubicsym",
        description="Exact symmetry algebras of homogeneous cubic metrics on 3-space")
    sub = parser.add_subparsers(dest="command", required=True)
    form, as_json = _Parser(add_help=False), _Parser(add_help=False)
    form.add_argument("--form", required=True, help="form JSON file")
    as_json.add_argument("--json", action="store_true")

    def add(name, fn, summary, *parents):
        p = sub.add_parser(name, help=summary, parents=parents)
        p.set_defaults(fn=fn)
        return p

    add("solve", cmd_solve, "symmetry algebra of a form", form, as_json)
    add("classify", cmd_classify, "symmetry class of a form", form, as_json)
    p = add("invariants", cmd_invariants, "invariant series of a generator", form, as_json)
    p.add_argument("--generator", type=int, default=0,
                   help="index into the computed generator basis (default 0)")
    add("radical", cmd_radical, "radical basis of a form", form, as_json)
    p = add("transform", cmd_transform, "pull a form back along a transform", form)
    p.add_argument("--matrix", required=True, help="3x3 transform JSON file")
    p = add("compare", cmd_compare, "necessary-condition equivalence check", form, as_json)
    p.add_argument("--other", required=True, help="second form JSON file")

    add("catalog-list", cmd_catalog_list, "list the built-in catalog", as_json)
    p = add("catalog-verify", cmd_catalog_verify, "audit catalog entries", as_json)
    p.add_argument("--all", action="store_true", help="audit everything (default)")
    p.add_argument("--id", help="audit a single catalog id, e.g. 3.8")
    add("projective-table", cmd_projective_table,
        "projective vs symmetry class correspondence", as_json)
    p = add("selftest", cmd_selftest, "randomized property suites plus the full catalog audit")
    p.add_argument("--trials", type=int, default=200)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        status = args.fn(args)
        # a closed pipe surfaces here, not at the interpreter's final flush
        sys.stdout.flush()
        return status
    except SystemExit as exc:  # only --help exits (0); usage errors raise InputError
        return exc.code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # a closed pipe (BrokenPipeError) is the reader's choice and stays
        # silent; any other write failure, such as a full disk, is reported
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write the output: {exc}", file=sys.stderr)
        # point fd 1 at devnull so that the final flush of what is still
        # buffered does not report the failure again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
