"""Reference catalog of canonical cubic metrics and their symmetry data.

The catalog holds the 41 canonical affine types of homogeneous cubic metrics
on 3-space that admit nontrivial symmetries (ids "<tau>.<k>", grouped by
affine type tau = 1..6), and the 14 canonical classes of the real projective
classification of cubic forms.  Each affine entry records, as reference
data: the component recipe (possibly parametric, with sign parameters eps
in {+1,-1} and rational parameters), the transcribed generator fields, the
closed-form invariant series of the 1-dimensional cases, a recorded
dimension claim and the symmetry class label every branch should land in.
Nothing that follows from another record is stored: an entry's affine type
tau is the prefix of its id, the expected dimensions of a branch follow from
its class (SymmetryClass.shape), a projective class sampled once is recorded
under its row of CORRESPONDENCE_TABLE, and the invariant matrix the series is
taken from is the first generator field unless the entry records one that
differs from it.  This module is the only statement of the catalog: no data
file restates it, and the tests pin the SHA-256 of its plain-data image, so
changing a recorded fact means re-pinning that digest.

verify_entry / verify_all recompute everything from scratch with the exact
solver and report every disagreement between recorded and computed values.
A small number of recorded values are known to be wrong (they conflict with
the exactly computed algebra); these are listed in KNOWN_DISCREPANCIES and
an audit that finds exactly those is considered clean.  Any discrepancy
outside that list is a regression signal.
"""

from fractions import Fraction
from itertools import product

from ._record import record
from .classify import SymmetryClass, classify
from .forms import Mat3, form_of, parse_scalar, scalar_to_json
# solve is not called here, but perfbench/run.py traces catalog.solve by name
from .killing import solve, verify_killing  # noqa: F401
from .liealg import invariants
from .linalg import in_span


class ParameterRangeError(ValueError):
    """A catalog parameter was given a value outside its declared range."""


@record
class ParamSpec:
    name: str
    kind: str                  # "sign" or "rational"
    default: Fraction
    allow_zero: bool = False


@record
class Branch:
    label: str
    params: dict
    claim: str | None          # recorded dimension claim ("1", "2", "inf", ...)
    expected: SymmetryClass    # what the exact computation must produce
    tau: int
    boundary: bool = False


@record
class CatalogEntry:
    id: str
    params: tuple
    build: object              # params -> CubicForm
    generators: object         # params -> [Mat3] transcribed generator fields
    claimed_dim: str
    expected: object           # class label, or params -> class label
    series: object = None      # params -> ([I1..I6], Delta) closed form
    series_tag: str | None = None
    inv_matrix: object = None  # params -> Mat3; defaults to the first field
    extra_branches: tuple = () # (label, overrides, claim, tau_override)
    notes: tuple = ()

    @property
    def tau(self):
        """Recorded affine type: the prefix of the id "<tau>.<k>"."""
        return int(self.id.split(".")[0])

    def expected_at(self, params):
        return SymmetryClass(self.expected(params) if callable(self.expected)
                             else self.expected)

    def defaults(self):
        return {p.name: p.default for p in self.params}

    def instantiate(self, overrides=None):
        """Concrete CubicForm at the given parameter assignment."""
        params = self.resolve_params(overrides)
        return self.build(params)

    def resolve_params(self, overrides=None):
        params = self.defaults()
        for name, value in (overrides or {}).items():
            spec = next((p for p in self.params if p.name == name), None)
            if spec is None:
                raise ParameterRangeError(f"{self.id}: unknown parameter {name!r}")
            params[name] = parse_scalar(value)
        for spec in self.params:
            v = params[spec.name]
            if spec.kind == "sign" and v not in (1, -1):
                raise ParameterRangeError(
                    f"{self.id}: sign parameter {spec.name} must be +1 or -1")
            if spec.kind == "rational" and v == 0 and not spec.allow_zero:
                raise ParameterRangeError(
                    f"{self.id}: parameter {spec.name} must be nonzero")
        return params

    def branches(self):
        """Every audited instance: all sign branches at default rationals,
        then the entry-specific boundary and alternative-class branches."""
        out = []
        signs = [p for p in self.params if p.kind == "sign"]
        # with no sign parameter, product yields one empty combination: "default"
        for combo in product((1, -1), repeat=len(signs)):
            overrides = {p.name: Fraction(v) for p, v in zip(signs, combo)}
            params = self.resolve_params(overrides)
            label = ",".join(f"{p.name}={'+1' if v == 1 else '-1'}"
                             for p, v in zip(signs, combo))
            out.append(Branch(label or "default", params, self.claimed_dim,
                              self.expected_at(params), self.tau))
        for label, overrides, claim, tau_override in self.extra_branches:
            params = self.resolve_params(overrides)
            out.append(Branch(label, params, claim, self.expected_at(params),
                              tau_override if tau_override is not None else self.tau,
                              boundary=True))
        return out


def sign(name):
    return ParamSpec(name, "sign", Fraction(1))


def rational(name, default, allow_zero=False):
    return ParamSpec(name, "rational", Fraction(default), allow_zero)


def mat(rows):
    return Mat3(rows)


def _pow_series(base):
    """I_n = 1 + base^n for n = 1..6, determinant zero."""
    base = Fraction(base)
    return [1 + base ** n for n in range(1, 7)], Fraction(0)


def _even_series(c):
    """I_n = 2 c^(n/2) for even n, 0 for odd n, determinant zero."""
    c = Fraction(c)
    return [Fraction(0), 2 * c, Fraction(0), 2 * c ** 2, Fraction(0), 2 * c ** 3], Fraction(0)


HALF = Fraction(1, 2)


def _by_sign(quantity_fn, boundary=None):
    """Class 5 when the invariant scale is positive, 6 when negative,
    boundary at zero."""
    def expected(p):
        q = quantity_fn(p)
        return "5" if q > 0 else "6" if q < 0 else boundary
    return expected


ENTRIES = []


def _entry(**kw):
    if kw.get("series") is not None and kw.get("inv_matrix") is None:
        generators = kw["generators"]
        kw["inv_matrix"] = lambda p: generators(p)[0]
    e = CatalogEntry(**kw)
    ENTRIES.append(e)
    return e


# ---------------------------------------------------------------- tau = 1

_entry(
    id="1.1", params=(),
    build=lambda p: form_of(F=1),
    generators=lambda p: [Mat3.diag(1, -1, 0), Mat3.diag(1, 0, -1)],
    claimed_dim="2",
    expected="1",
)

_entry(
    id="1.2", params=(),
    build=lambda p: form_of(B1=1),
    generators=lambda p: [Mat3.diag(-2, 1, 0)],
    series=lambda p: _pow_series(-2), series_tag="1+(-2)^n",
    claimed_dim="inf+1",
    expected="3(3)",
)

_entry(
    id="1.3", params=(),
    build=lambda p: form_of(A1=1),
    generators=lambda p: [],
    claimed_dim="inf^2",
    expected="3(1)",
)

# ---------------------------------------------------------------- tau = 2

_entry(
    id="2.1", params=(),
    build=lambda p: form_of(A1=1, F=1),
    generators=lambda p: [Mat3.diag(0, 1, -1)],
    series=lambda p: _pow_series(-1), series_tag="1+(-1)^n",
    claimed_dim="1",
    expected="5",
)

_entry(
    id="2.2", params=(),
    build=lambda p: form_of(B1=1, F=1),
    generators=lambda p: [mat([[1, 0, 0], [0, 0, 0], [0, -HALF, -1]]),
                          mat([[0, 0, 0], [0, 1, 0], [0, -1, -1]])],
    claimed_dim="2",
    expected="1",
)

_entry(
    id="2.3", params=(),
    build=lambda p: form_of(A1=1, B3=1),
    generators=lambda p: [Mat3.diag(0, 1, -HALF)],
    series=lambda p: _pow_series(Fraction(-1, 2)), series_tag="(1+(-2)^n)/(-2)^n",
    claimed_dim="1",
    expected="4",
)

_entry(
    id="2.4", params=(),
    build=lambda p: form_of(A1=1, C1=1),
    generators=lambda p: [mat([[1, 0, 0], [-1, -2, 0], [0, 0, 0]])],
    series=lambda p: _pow_series(-2), series_tag="1+(-2)^n",
    claimed_dim="1",
    expected="3(3)",
    notes=("the metric does not involve the third coordinate, so arbitrary "
           "functions times its coordinate field are isometries: the computed "
           "algebra is infinite plus the recorded 1-dimensional part",),
)

_entry(
    id="2.5", params=(sign("eps"),),
    build=lambda p: form_of(B1=1, B2=p["eps"]),
    generators=lambda p: [Mat3.diag(1, -HALF, -HALF)],
    claimed_dim="1",
    expected="1",
    notes=("recorded dimension 1 conflicts with the computed 2-dimensional "
           "abelian algebra; the extra generator rotates the degenerate plane",),
)

_entry(
    id="2.6", params=(),
    build=lambda p: form_of(B1=1, B3=1),
    generators=lambda p: [Mat3.diag(-2, 1, -HALF),
                          mat([[0, 0, 1], [0, 0, 0], [0, -HALF, 0]])],
    claimed_dim="1",
    expected="2",
    notes=("recorded dimension 1 conflicts with the two recorded generators "
           "and the computed 2-dimensional nonabelian algebra",),
)

_entry(
    id="2.7", params=(),
    build=lambda p: form_of(B1=1, C3=1),
    generators=lambda p: [mat([[0, 0, 0], [0, 1, 0], [-2, 0, -2]])],
    claimed_dim="inf+1",
    expected="3(3)",
)

_entry(
    id="2.8", params=(),
    build=lambda p: form_of(A1=1, A2=1),
    generators=lambda p: [],
    claimed_dim="inf",
    expected="3(2)",
)

_entry(
    id="2.9", params=(sign("eps"),),
    build=lambda p: form_of(A1=1, B1=p["eps"]),
    generators=lambda p: [],
    claimed_dim="inf",
    expected="3(2)",
)

# ---------------------------------------------------------------- tau = 3

_entry(
    id="3.1", params=(sign("eps"),),
    build=lambda p: form_of(A1=1, B1=p["eps"], F=1),
    generators=lambda p: [mat([[0, 0, 0], [0, 1, 0], [0, -p["eps"], -1]])],
    series=lambda p: _pow_series(-1), series_tag="1+(-1)^n",
    claimed_dim="1",
    expected="5",
)

_entry(
    id="3.2", params=(),
    build=lambda p: form_of(A1=1, C1=1, F=1),
    generators=lambda p: [mat([[0, 0, 0], [0, 1, 0], [-HALF, 0, -1]])],
    series=lambda p: _pow_series(-1), series_tag="1+(-1)^n",
    claimed_dim="1",
    expected="5",
)

_entry(
    id="3.3", params=(sign("eps"),),
    build=lambda p: form_of(B1=1, B2=p["eps"], F=1),
    generators=lambda p: [mat([[1, 0, 0], [0, 0, p["eps"] / 2], [0, -HALF, -1]]),
                          mat([[0, 0, 0], [0, 1, p["eps"]], [0, -1, -1]])],
    claimed_dim="2",
    expected=lambda p: "3(3)" if p["eps"] == 1 else "1",
    notes=("on the eps=+1 branch the quadratic factor is a perfect square, "
           "the radical becomes 1-dimensional and the second recorded "
           "generator collapses into the arbitrary-function family: the "
           "computed algebra is infinite plus one, not 2-dimensional",),
)

_entry(
    id="3.4", params=(),
    build=lambda p: form_of(B1=1, B3=1, F=1),
    generators=lambda p: [mat([[1, 0, 1], [0, 0, 0], [0, -HALF, -1]])],
    series=lambda p: _pow_series(-1), series_tag="1+(-1)^n",
    claimed_dim="1",
    expected="5",
)

_entry(
    id="3.5", params=(),
    build=lambda p: form_of(B1=1, C1=1, F=1),
    generators=lambda p: [mat([[0, 0, 0], [0, 1, 0], [0, -1, -1]]),
                          mat([[1, 0, 0], [0, 0, 0], [-1, -HALF, -1]])],
    claimed_dim="2",
    expected="1",
    notes=("the first recorded generator is missing a -x1/2 contribution in "
           "its third component and fails the isometry check as written",),
)

_entry(
    id="3.6", params=(),
    build=lambda p: form_of(B1=1, C3=1, F=1),
    generators=lambda p: [mat([[-1, -HALF, 0], [0, 0, 0], [0, HALF, 1]])],
    series=lambda p: _pow_series(-1), series_tag="1+(-1)^n",
    claimed_dim="1",
    expected="5",
)

_entry(
    id="3.7", params=(),
    build=lambda p: form_of(A1=1, A2=1, C2=1),
    generators=lambda p: [mat([[1, 0, 0], [0, 0, 0], [-1, 0, -2]])],
    series=lambda p: _pow_series(-2), series_tag="1+(-2)^n",
    claimed_dim="1",
    expected="4",
)

_entry(
    id="3.8", params=(sign("eps1"), sign("eps2")),
    build=lambda p: form_of(A1=1, B1=p["eps1"], B2=p["eps2"]),
    generators=lambda p: [mat([[0, 0, 0], [0, 0, 1], [0, -p["eps1"] * p["eps2"], 0]])],
    series=lambda p: _even_series(-p["eps1"] * p["eps2"]),
    series_tag="c^(n/2)(1+(-1)^n), c=-eps1*eps2",
    claimed_dim="1",
    expected=_by_sign(lambda p: -p["eps1"] * p["eps2"]),
)

_entry(
    id="3.9", params=(sign("eps"),),
    build=lambda p: form_of(A1=1, B1=p["eps"], C2=1),
    generators=lambda p: [Mat3.diag(1, -HALF, -2),
                          mat([[0, 0, 0], [-p["eps"] / 2, 0, 0], [0, 1, 0]])],
    claimed_dim="2",
    expected="2",
    notes=("the first recorded generator misses a -x1 contribution in its "
           "third component and fails the isometry check as written; the "
           "corrected field still brackets to (3/2) times the second",),
)

_entry(
    id="3.10", params=(sign("eps"),),
    build=lambda p: form_of(A1=1, B1=p["eps"], C3=1),
    generators=lambda p: [mat([[0, 0, 0], [0, 1, 0], [-2 * p["eps"], 0, -2]])],
    series=lambda p: _pow_series(-2), series_tag="1+(-2)^n",
    claimed_dim="1",
    expected="4",
)

_entry(
    id="3.11", params=(sign("eps"),),
    build=lambda p: form_of(B1=1, B2=p["eps"], C1=1),
    generators=lambda p: [mat([[0, 0, 0], [0, 0, 1], [-p["eps"], -2 * p["eps"], 0]])],
    inv_matrix=lambda p: mat([[0, 0, 0], [0, 0, 1], [-p["eps"] / 2, -p["eps"], 0]]),
    series=lambda p: _even_series(-p["eps"]),
    series_tag="c^(n/2)(1+(-1)^n), c=-eps",
    claimed_dim="1",
    expected=_by_sign(lambda p: -p["eps"]),
    notes=("the recorded generator field doubles the third row of the "
           "recorded invariant matrix but not the second; only the invariant "
           "matrix satisfies the isometry equation",),
)

_entry(
    id="3.12", params=(),
    build=lambda p: form_of(B1=1, B3=1, C1=1),
    generators=lambda p: [mat([[0, 0, 1], [0, 0, 0], [-1, -HALF, 0]])],
    series=lambda p: _even_series(-1),
    series_tag="(-1)^(n/2)(1+(-1)^n)",
    claimed_dim="1",
    expected="6",
)

_entry(
    id="3.13", params=(sign("eps"),),
    build=lambda p: form_of(B1=1, B3=p["eps"], C3=1),
    generators=lambda p: [mat([[-2, 0, Fraction(-3, 2)], [0, 1, 0], [0, 0, -HALF]]),
                          mat([[0, -1, -2 * p["eps"]], [0, 0, 0], [0, 1, 0]])],
    claimed_dim="2",
    expected="2",
)

# ---------------------------------------------------------------- tau = 4

_entry(
    id="4.1", params=(sign("eps1"), sign("eps2"), rational("F", 2)),
    build=lambda p: form_of(A1=1, B1=p["eps1"], B2=p["eps2"], F=p["F"]),
    generators=lambda p: [mat([[0, 0, 0],
                               [0, p["eps2"] * p["F"], 1],
                               [0, -p["eps1"] * p["eps2"], -p["eps2"] * p["F"]]])],
    series=lambda p: _even_series(p["F"] ** 2 - p["eps1"] * p["eps2"]),
    series_tag="c^(n/2)(1+(-1)^n), c=F^2-eps1*eps2",
    claimed_dim="1",
    expected=_by_sign(lambda p: p["F"] ** 2 - p["eps1"] * p["eps2"],
                      boundary="3(2)"),
    extra_branches=(
        ("F=1/2,eps1=+1,eps2=+1", {"F": HALF, "eps1": 1, "eps2": 1}, "1", None),
        ("F=1/2,eps1=-1,eps2=-1", {"F": HALF, "eps1": -1, "eps2": -1}, "1", None),
        ("F^2=eps1*eps2 (F=1,+,+)", {"F": 1, "eps1": 1, "eps2": 1}, "inf", None),
        ("F^2=eps1*eps2 (F=1,-,-)", {"F": 1, "eps1": -1, "eps2": -1}, "inf", None),
    ),
)

_entry(
    id="4.2", params=(sign("eps"), rational("F", 2)),
    build=lambda p: form_of(A1=1, B1=p["eps"], C2=1, F=p["F"]),
    generators=lambda p: [mat([[0, 0, 0],
                               [-1 / (2 * p["F"]), -1, 0],
                               [0, p["eps"] / p["F"], 1]])],
    series=lambda p: _pow_series(-1), series_tag="1+(-1)^n",
    claimed_dim="1",
    expected="5",
)

_entry(
    id="4.3", params=(sign("eps"), rational("F", 2)),
    build=lambda p: form_of(B1=p["eps"], B2=1, C2=1, F=p["F"]),
    generators=lambda p: [mat([[0, 0, 0],
                               [-p["eps"] / 2, -p["eps"] * p["F"], -p["eps"]],
                               [0, 1, p["eps"] * p["F"]]])],
    series=lambda p: _even_series(p["F"] ** 2 - p["eps"]),
    series_tag="c^(n/2)(1+(-1)^n), c=F^2-eps",
    claimed_dim="1",
    expected=_by_sign(lambda p: p["F"] ** 2 - p["eps"],
                      boundary="2"),
    extra_branches=(
        ("F=1/2,eps=+1", {"F": HALF, "eps": 1}, "1", None),
        ("F^2=1,eps=+1", {"F": 1, "eps": 1}, "2", None),
    ),
)

_entry(
    id="4.4", params=(rational("F", 2),),
    build=lambda p: form_of(B2=1, B3=1, C2=1, F=p["F"]),
    generators=lambda p: [mat([[1, 0, 1 / (2 * p["F"])],
                               [-1 / p["F"], -1, -1 / (2 * p["F"])],
                               [0, 0, 0]])],
    series=lambda p: _pow_series(-1), series_tag="1+(-1)^n",
    claimed_dim="1",
    expected="5",
)

_entry(
    id="4.5", params=(rational("B", 3),),
    build=lambda p: form_of(A1=1, A2=1, B1=p["B"], C2=1),
    generators=lambda p: [mat([[1, 0, 0], [-p["B"], 0, 0], [-1, 2 * p["B"] ** 2, -2]])],
    inv_matrix=lambda p: mat([[1, 0, 0], [-p["B"], 0, 0], [0, 2 * p["B"] ** 2, -2]]),
    series=lambda p: _pow_series(-2), series_tag="1+(-2)^n",
    claimed_dim="1",
    expected="4",
    notes=("the recorded invariant matrix drops the -1 entry in position "
           "(3,1) that the recorded generator field carries; only the field "
           "satisfies the isometry equation (their invariants coincide)",),
)

_entry(
    id="4.6", params=(rational("B", 3),),
    build=lambda p: form_of(A1=1, A2=1, B1=p["B"], C3=1),
    generators=lambda p: [mat([[0, 0, 0], [0, 1, 0], [-2 * p["B"], -1, -2]])],
    inv_matrix=lambda p: mat([[0, 0, 0], [0, 1, 0], [2 * p["B"], 1, -2]]),
    series=lambda p: _pow_series(-2), series_tag="1+(-2)^n",
    claimed_dim="1",
    expected="4",
    notes=("the recorded invariant matrix flips the signs of the first two "
           "entries of the third row relative to the recorded generator "
           "field; only the field satisfies the isometry equation",),
)

_entry(
    id="4.7", params=(sign("eps1"), sign("eps2"), rational("C", 3)),
    build=lambda p: form_of(A1=1, B1=p["eps1"], B2=p["eps2"], C1=p["C"]),
    generators=lambda p: [mat([[0, 0, 0],
                               [0, 0, 1],
                               [-p["eps2"] * p["C"] / 2, -p["eps1"] * p["eps2"], 0]])],
    series=lambda p: _even_series(-p["eps1"] * p["eps2"]),
    series_tag="c^(n/2)(1+(-1)^n), c=-eps1*eps2",
    claimed_dim="1",
    expected=_by_sign(lambda p: -p["eps1"] * p["eps2"]),
)

_entry(
    id="4.8", params=(sign("eps"), rational("C", 3)),
    build=lambda p: form_of(A1=1, B2=p["eps"], B3=1, C2=p["C"]),
    generators=lambda p: [mat([[0, 0, -p["C"]],
                               [2 * (p["C"] ** 2 - p["eps"]), -2, p["eps"] * p["C"]],
                               [0, 0, 1]])],
    series=lambda p: _pow_series(-2), series_tag="1+(-2)^n",
    claimed_dim="1",
    expected="4",
)

_entry(
    id="4.9", params=(rational("B", 3),),
    build=lambda p: form_of(A1=1, B1=p["B"], C1=1, C2=1),
    generators=lambda p: [mat([[1, 0, 0], [0, -HALF, 0], [-1, Fraction(-3, 2), -2]]),
                          mat([[0, 0, 0], [1, 0, 0], [-1, -2 * p["B"], 0]])],
    claimed_dim="2",
    expected="2",
)

_entry(
    id="4.10", params=(rational("B", 3, allow_zero=True),),
    build=lambda p: form_of(B1=p["B"], B2=1, C1=1, C2=1),
    generators=lambda p: [mat([[0, 0, 0], [HALF, 0, 1], [-HALF, -p["B"], 0]])],
    series=lambda p: _even_series(-p["B"]),
    series_tag="c^(n/2)(1+(-1)^n), c=-B",
    claimed_dim="1",
    expected=_by_sign(lambda p: -p["B"],
                      boundary="2"),
    extra_branches=(
        ("B=-3", {"B": -3}, "1", None),
        ("B=0", {"B": 0}, "2", 3),
    ),
)

# ---------------------------------------------------------------- tau = 5

_entry(
    id="5.1", params=(rational("C2", 1), rational("C3", 2)),
    build=lambda p: form_of(A3=1, B2=1, B3=1, C2=p["C2"], C3=p["C3"]),
    generators=lambda p: [mat([[0, 2 * p["C3"], 1], [-2 * p["C2"], 0, -1], [0, 0, 0]])],
    series=lambda p: _even_series(-4 * p["C2"] * p["C3"]),
    series_tag="c^(n/2)(1+(-1)^n), c=-4*C2*C3",
    claimed_dim="1",
    expected=_by_sign(lambda p: -4 * p["C2"] * p["C3"]),
    extra_branches=(("C3=-2", {"C3": -2}, "1", None),),
)

_entry(
    id="5.2", params=(rational("B3", 3), rational("C3", 2)),
    build=lambda p: form_of(A2=1, A3=1, B2=1, B3=p["B3"], C3=p["C3"]),
    generators=lambda p: [mat([[-2, 2 * (p["C3"] ** 2 - p["B3"]), p["B3"] * p["C3"] - 1],
                               [0, 0, -p["C3"]],
                               [0, 0, 1]])],
    series=lambda p: _pow_series(-2), series_tag="1+(-2)^n",
    claimed_dim="1",
    expected="4",
)

_entry(
    id="5.3", params=(rational("C2", 1), rational("C3", 2)),
    build=lambda p: form_of(B2=1, B3=1, C2=p["C2"], C3=p["C3"], F=1),
    generators=lambda p: [mat([[2, 2 * p["C3"], 1], [-2 * p["C2"], -2, -1], [0, 0, 0]])],
    series=lambda p: _even_series(4 * (1 - p["C2"] * p["C3"])),
    series_tag="c^(n/2)(1+(-1)^n), c=4(1-C2*C3)",
    claimed_dim="1",
    expected=lambda p: (
        "3(2)" if p["C2"] == 1 and p["C3"] == 1 else
        "5" if p["C2"] * p["C3"] < 1 else
        "6" if p["C2"] * p["C3"] > 1 else "2"),
    extra_branches=(
        ("C3=1/2", {"C3": HALF}, "1", None),
        ("C2*C3=1", {"C2": 2, "C3": HALF}, "2", None),
        ("C2=C3=1 (fully factorable)", {"C2": 1, "C3": 1}, None, None),
    ),
)

_entry(
    id="5.4", params=(rational("C2", 1), rational("C3", 2)),
    build=lambda p: form_of(A3=1, B3=1, C2=p["C2"], C3=p["C3"], F=1),
    generators=lambda p: [mat([[-1 / p["C2"], -p["C3"] / p["C2"], -1 / (2 * p["C2"])],
                               [1, 1 / p["C2"], 0],
                               [0, 0, 0]])],
    series=lambda p: _even_series((1 - p["C2"] * p["C3"]) / p["C2"] ** 2),
    series_tag="c^(n/2)(1+(-1)^n), c=(1-C2*C3)/C2^2",
    claimed_dim="1",
    expected=_by_sign(lambda p: 1 - p["C2"] * p["C3"],
                      boundary="2"),
    extra_branches=(
        ("C3=1/2", {"C3": HALF}, "1", None),
        ("C2*C3=1", {"C3": 1}, "2", None),
    ),
)

_entry(
    id="5.5", params=(rational("B3", 3), rational("C3", 2)),
    build=lambda p: form_of(A3=1, B2=1, B3=p["B3"], C3=p["C3"], F=1),
    generators=lambda p: [mat([[-2, -2 * p["C3"], -p["B3"]], [0, 2, 1], [0, 0, 0]])],
    series=lambda p: _even_series(4),
    series_tag="4^(n/2)(1+(-1)^n)",
    claimed_dim="1",
    expected="5",
)

# ---------------------------------------------------------------- tau = 6

_entry(
    id="6.1", params=(rational("F", 2), rational("C2", 1), rational("C3", 2)),
    build=lambda p: form_of(A3=1, B2=1, B3=1, C2=p["C2"], C3=p["C3"], F=p["F"]),
    generators=lambda p: [mat([[2 * p["F"], 2 * p["C3"], 1],
                               [-2 * p["C2"], -2 * p["F"], -1],
                               [0, 0, 0]])],
    series=lambda p: _even_series(4 * (p["F"] ** 2 - p["C2"] * p["C3"])),
    series_tag="c^(n/2)(1+(-1)^n), c=4(F^2-C2*C3)",
    claimed_dim="1",
    expected=_by_sign(lambda p: p["F"] ** 2 - p["C2"] * p["C3"],
                      boundary="2"),
    extra_branches=(
        ("F=1/2", {"F": HALF}, "1", None),
        ("F^2=C2*C3", {"C3": 4}, "2", None),
    ),
)


ENTRY_BY_ID = {e.id: e for e in ENTRIES}

assert len(ENTRIES) == 41


def get_entry(entry_id):
    try:
        return ENTRY_BY_ID[entry_id]
    except KeyError:
        raise KeyError(f"unknown catalog id {entry_id!r}") from None


# -------------------------------------------------------------- projective

@record
class ProjectiveSample:
    label: str
    params: dict
    recorded_class: str        # class per the correspondence table
    expected_class: str        # class the exact computation must produce


@record
class ProjectiveEntry:
    id: str
    description: str
    build: object
    samples: tuple
    notes: tuple = ()


def _psample(label, params, recorded, expected=None):
    return ProjectiveSample(label, params, recorded,
                            expected if expected is not None else recorded)


# recorded correspondence rows: symmetry class -> projective classes
CORRESPONDENCE_TABLE = {
    "1": ("III", "XII"),
    "2": ("V",),
    "3(1)": ("VIII",),
    "3(2)": ("VI", "XIII"),
    "3(3)": ("VII",),
    "4": ("IV",),
    "5": ("II", "X", "XI"),
    "6": (),
    "7": (),
    "8": ("general", "I", "IX"),
}

_TABLE_ROW = {pid: label for label, pids in CORRESPONDENCE_TABLE.items() for pid in pids}


def _projective(pid, description, build, expected=None, notes=()):
    """A projective class with one sample, recorded under its table row."""
    return ProjectiveEntry(pid, description, build,
                           (_psample("default", {}, _TABLE_ROW[pid], expected),), notes)


_FILED_UNDER_TWIN = ("the computed 1-dimensional algebra is a rotation "
                     "(I2 < 0), class 6; the correspondence table files "
                     "this class under 5, its complex-equivalent twin",)


GENERAL_SAMPLES = (
    _psample("F=-2 (F below the lower irrational threshold)", {"F": Fraction(-2)}, "8"),
    _psample("F=-1 (between the lower threshold and -1/2)", {"F": Fraction(-1)}, "8"),
    _psample("F=-1/2 (degenerate: the form factors)", {"F": Fraction(-1, 2)}, "1"),
    _psample("F=-1/4 (between -1/2 and 0)", {"F": Fraction(-1, 4)}, "8"),
    _psample("F=0", {"F": Fraction(0)}, "8"),
    _psample("F=1/4 (between 0 and the upper irrational threshold)", {"F": Fraction(1, 4)}, "8"),
    _psample("F=1/2 (between the upper threshold and 1)", {"F": Fraction(1, 2)}, "8"),
    _psample("F=1", {"F": Fraction(1)}, "8"),
    _psample("F=2 (F>1)", {"F": Fraction(2)}, "8"),
)

PROJECTIVE_ENTRIES = (
    ProjectiveEntry(
        "general", "A1=A2=A3=1, F free", lambda p: form_of(A1=1, A2=1, A3=1, F=p["F"]),
        GENERAL_SAMPLES,
        notes=("the two irrational subclass boundary points (where (2F+1)^2 = 3) "
               "cannot be sampled in exact rational arithmetic; all rational "
               "samples with F != -1/2 share the same symmetry data",),
    ),
    _projective("I", "A1=A2=F=1", lambda p: form_of(A1=1, A2=1, F=1)),
    _projective("II", "A1=F=1", lambda p: form_of(A1=1, F=1)),
    _projective("III", "F=1", lambda p: form_of(F=1)),
    _projective("IV", "A1=C3=1", lambda p: form_of(A1=1, C3=1)),
    _projective("V", "C1=C3=1", lambda p: form_of(C1=1, C3=1)),
    _projective("VI", "A1=A2=1", lambda p: form_of(A1=1, A2=1)),
    _projective("VII", "C1=1", lambda p: form_of(C1=1)),
    _projective("VIII", "A1=1", lambda p: form_of(A1=1)),
    _projective("IX", "A3=C1=B3=1", lambda p: form_of(A3=1, C1=1, B3=1)),
    _projective("X", "A2=-1, C1=B3=1", lambda p: form_of(A2=-1, C1=1, B3=1),
                expected="6", notes=_FILED_UNDER_TWIN),
    _projective("XI", "A2=C1=B3=1", lambda p: form_of(A2=1, C1=1, B3=1),
                expected="6", notes=_FILED_UNDER_TWIN),
    _projective("XII", "C1=B3=1", lambda p: form_of(C1=1, B3=1)),
    _projective("XIII", "A2=-1, C1=1", lambda p: form_of(A2=-1, C1=1)),
)

PROJECTIVE_BY_ID = {e.id: e for e in PROJECTIVE_ENTRIES}

# recorded-vs-computed conflicts that are understood and accepted:
# the audit treats exactly these as known; anything else is a regression.
KNOWN_DISCREPANCIES = {
    ("2.4", "dimension"): "recorded as 1-dimensional, but the metric does not "
                          "involve the third coordinate: an arbitrary-function "
                          "family exists and the computed algebra is infinite "
                          "plus one (class 3(3))",
    ("2.5", "dimension"): "recorded as 1-dimensional; computed algebra is "
                          "2-dimensional abelian (class 1)",
    ("3.3", "dimension"): "recorded as 2-dimensional, but on the eps=+1 branch "
                          "the metric degenerates (perfect-square factor): the "
                          "computed algebra is infinite plus one (class 3(3))",
    ("3.9", "generator"): "first recorded generator misses a -x1 term in its "
                          "third component and fails the isometry check; "
                          "solver kernel supplies the corrected field",
    ("2.6", "dimension"): "recorded as 1-dimensional next to two recorded "
                          "generators; computed algebra is 2-dimensional "
                          "nonabelian (class 2)",
    ("3.5", "generator"): "first recorded generator misses a -x1/2 term and "
                          "fails the isometry check; solver kernel supplies "
                          "the corrected field",
    ("3.11", "generator"): "recorded generator doubles only the third row of "
                           "the true field; the recorded invariant matrix is "
                           "the correct generator",
    ("4.5", "invariant-matrix"): "recorded invariant matrix drops the (3,1) "
                                 "entry of the generator field; invariants "
                                 "are unaffected",
    ("4.6", "invariant-matrix"): "recorded invariant matrix flips two signs "
                                 "in the third row of the generator field; "
                                 "invariants are unaffected",
    ("X", "table"): "computed symmetry class 6 (rotation generator, I2 < 0); "
                    "the correspondence table files it under the "
                    "complex-equivalent class 5",
    ("XI", "table"): "computed symmetry class 6 (rotation generator, I2 < 0); "
                     "the correspondence table files it under the "
                     "complex-equivalent class 5",
}


# ------------------------------------------------------------------ audit

class _Findings:
    """Issues and status of a report, derived from its findings: (kind, text)
    pairs in filing order.  This is the one place that reads
    KNOWN_DISCREPANCIES: a finding is known when (entry_id, kind) is listed."""

    __slots__ = ()

    def _known(self, kind):
        return (self.entry_id, kind) in KNOWN_DISCREPANCIES

    @property
    def known_issues(self):
        return tuple(f"{kind}: {text}" for kind, text in self.findings if self._known(kind))

    @property
    def unknown_issues(self):
        return tuple(f"{kind}: {text}" for kind, text in self.findings
                     if not self._known(kind))

    @property
    def status(self):
        return "DISCREPANCY" if self.findings else "MATCH"


@record
class GeneratorCheck:
    source: str                # "field" or "invariant-matrix"
    index: int
    passes: bool
    in_kernel: bool            # passes and lies in the computed kernel span


@record
class BranchReport(_Findings):
    entry_id: str
    branch: str
    params: dict
    computed_finite: int
    computed_infinite: bool
    computed_class: str
    claim: str | None
    expected: SymmetryClass
    tau_ok: bool
    oracle_ok: bool            # computed == expected (hard)
    claim_ok: bool | None      # computed matches the recorded claim
    generator_checks: tuple
    series_ok: bool | None
    findings: tuple            # (kind, text) pairs in filing order

    def to_json(self):
        return {
            "id": self.entry_id,
            "branch": self.branch,
            "params": {k: scalar_to_json(v) for k, v in self.params.items()},
            "computed": {
                "finite_nontrivial_dim": self.computed_finite,
                "has_infinite_family": self.computed_infinite,
                "class": self.computed_class,
            },
            "claim": self.claim,
            "expected_class": self.expected.label,
            "status": self.status,
            "tau_ok": self.tau_ok,
            "oracle_ok": self.oracle_ok,
            "claim_ok": self.claim_ok,
            "series_ok": self.series_ok,
            "generators": [
                {"source": g.source, "index": g.index, "passes": g.passes,
                 "in_kernel": g.in_kernel}
                for g in self.generator_checks],
            "known_issues": list(self.known_issues),
            "unknown_issues": list(self.unknown_issues),
        }


def _claim_matches(claim, algebra):
    if claim is None:
        return None
    finite = algebra.finite_nontrivial_dim
    infinite = algebra.has_infinite_family
    radical = len(algebra.radical_basis)
    if claim == "inf":
        return infinite and finite == 0 and radical == 1
    if claim == "inf+1":
        return infinite and finite == 1
    if claim == "inf^2":
        return infinite and radical == 2
    return (not infinite) and finite == int(claim)


def verify_branch(entry, branch):
    """Recompute one catalog instance and compare with its recorded data."""
    form = entry.build(branch.params)
    report = classify(form)
    algebra = report.algebra
    findings = []

    tau_ok = form.affine_type() == branch.tau
    if not tau_ok:
        findings.append(("tau", f"affine type {form.affine_type()} != {branch.tau}"))

    expected = branch.expected
    computed_shape = (algebra.finite_nontrivial_dim, algebra.has_infinite_family)
    # the catch-all class 7 fixes no shape, so only its label is compared
    shape = expected.shape
    oracle_ok = report.symmetry_class == expected and shape in (None, computed_shape)
    if not oracle_ok:
        fixed = "" if shape is None else f"dim={shape[0]}, inf={shape[1]}, "
        findings.append(("oracle", f"computed (dim={computed_shape[0]}, "
                                   f"inf={computed_shape[1]}, class={report.label}) != "
                                   f"expected ({fixed}class={expected.label})"))

    claim_ok = _claim_matches(branch.claim, algebra)
    if claim_ok is False:
        findings.append(("dimension",
                         f"recorded dimension claim {branch.claim!r} vs computed "
                         f"finite dim {algebra.finite_nontrivial_dim}"
                         + (" plus infinite family" if algebra.has_infinite_family else "")))

    kernel_vectors = [g.flatten() for g in algebra.generators]
    recorded = [("field", i, G)
                for i, G in enumerate(entry.generators(branch.params))]
    if entry.inv_matrix is not None:
        recorded.append(("invariant-matrix", 0, entry.inv_matrix(branch.params)))
    checks, verified, outcomes = [], {}, []
    for source, i, G in recorded:
        # an invariant matrix equal to a field is checked once, for the field;
        # matrices are compared, not hashed: a Mat3 hash is nine Fraction hashes
        if not any(H == G for H, _ in outcomes):
            ok = verify_killing(form, G)
            outcomes.append((G, (ok, ok and in_span(kernel_vectors, G.flatten()))))
        ok, in_kernel = next(o for H, o in outcomes if H == G)
        checks.append(GeneratorCheck(source, i, ok, in_kernel))
        if ok:
            verified.setdefault(source, G)
        elif source == "field":
            findings.append(("generator",
                             f"recorded generator {i} fails the isometry check"))
        else:
            findings.append(("invariant-matrix",
                             "recorded invariant matrix fails the isometry check"))

    series_ok = None
    if entry.series is not None and not branch.boundary:
        # the invariant matrix if it verifies, else the first verified
        # field, else the computed kernel
        candidates = [verified.get("invariant-matrix"), verified.get("field"),
                      *algebra.generators]
        inv_gen = next((G for G in candidates if G is not None), None)
        if inv_gen is not None:
            expected_I, expected_delta = entry.series(branch.params)
            series = invariants(inv_gen)
            series_ok = (list(series.I) == list(map(Fraction, expected_I))
                         and series.delta == expected_delta)
            if not series_ok:
                findings.append(("series", "computed invariant series differs from the "
                                           "recorded closed form"))

    return BranchReport(
        entry_id=entry.id, branch=branch.label, params=branch.params,
        computed_finite=algebra.finite_nontrivial_dim,
        computed_infinite=algebra.has_infinite_family,
        computed_class=report.label,
        claim=branch.claim, expected=expected,
        tau_ok=tau_ok, oracle_ok=oracle_ok, claim_ok=claim_ok,
        generator_checks=tuple(checks), series_ok=series_ok,
        findings=tuple(findings),
    )


def verify_entry(entry_id):
    """Audit every branch of a single entry."""
    entry = get_entry(entry_id)
    return [verify_branch(entry, b) for b in entry.branches()]


@record
class ProjectiveReport(_Findings):
    entry_id: str
    sample: str
    recorded_class: str
    expected_class: str
    computed_class: str
    findings: tuple            # (kind, text) pairs in filing order

    def to_json(self):
        return {
            "id": self.entry_id, "sample": self.sample,
            "recorded_class": self.recorded_class,
            "expected_class": self.expected_class,
            "computed_class": self.computed_class,
            "status": self.status,
            "known_issues": list(self.known_issues),
            "unknown_issues": list(self.unknown_issues),
        }


def verify_projective(entry):
    out = []
    for sample in entry.samples:
        computed = classify(entry.build(sample.params)).label
        findings = []
        if computed != sample.expected_class:
            findings.append(("class", f"computed {computed} != expected "
                                      f"{sample.expected_class}"))
        if computed != sample.recorded_class:
            findings.append(("table", f"computed {computed} differs from the "
                                      f"recorded class {sample.recorded_class}"))
        out.append(ProjectiveReport(entry.id, sample.label,
                                    sample.recorded_class, sample.expected_class,
                                    computed, tuple(findings)))
    return out


@record
class AuditReport:
    branch_reports: tuple
    projective_reports: tuple

    @property
    def n_branches(self):
        return len(self.branch_reports)

    @property
    def n_match(self):
        return sum(1 for r in self.branch_reports if r.status == "MATCH")

    @property
    def known_discrepancies(self):
        return [r for r in self.branch_reports if r.known_issues] + \
               [r for r in self.projective_reports if r.known_issues]

    @property
    def unknown_discrepancies(self):
        return [r for r in self.branch_reports if r.unknown_issues] + \
               [r for r in self.projective_reports if r.unknown_issues]

    def generator_tally(self):
        """(passed, total) over every transcribed generator and invariant
        matrix, counted once per catalog entry (at its first branch)."""
        passed = total = 0
        seen = set()
        for r in self.branch_reports:
            if r.entry_id in seen:
                continue
            seen.add(r.entry_id)
            for g in r.generator_checks:
                total += 1
                passed += 1 if g.passes else 0
        return passed, total

    def to_json(self):
        passed, total = self.generator_tally()
        return {
            "summary": {
                "branches": self.n_branches,
                "match": self.n_match,
                "known_discrepancies": len(self.known_discrepancies),
                "unknown_discrepancies": len(self.unknown_discrepancies),
                "generators_passed": passed,
                "generators_total": total,
            },
            "entries": [r.to_json() for r in self.branch_reports],
            "projective": [r.to_json() for r in self.projective_reports],
        }


def verify_all():
    """Full audit: every affine entry (all branches) and every projective
    sample, recomputed from scratch."""
    branch_reports = []
    for entry in ENTRIES:
        branch_reports.extend(verify_branch(entry, b) for b in entry.branches())
    projective_reports = []
    for entry in PROJECTIVE_ENTRIES:
        projective_reports.extend(verify_projective(entry))
    return AuditReport(tuple(branch_reports), tuple(projective_reports))


def projective_table():
    """Computed correspondence between projective and symmetry classes.

    Read from the projective audit.  Returns (rows, deviations): rows maps
    each symmetry class label to the recorded and computed lists of
    projective classes; deviations are the audit's "table" findings.
    """
    computed, deviations = {}, []
    for entry in PROJECTIVE_ENTRIES:
        for sample, report in zip(entry.samples, verify_projective(entry)):
            # the table rows the general class by its generic sample F=2;
            # F=-1/2 is the noted exception
            if sample.params in ({}, {"F": 2}):
                computed.setdefault(report.computed_class, []).append(entry.id)
            if any(kind == "table" for kind, _ in report.findings):
                deviations.append({"projective": entry.id,
                                   "recorded": report.recorded_class,
                                   "computed": report.computed_class,
                                   "known": report._known("table")})
    rows = {label: {"recorded": list(recorded), "computed": computed.get(label, [])}
            for label, recorded in CORRESPONDENCE_TABLE.items()}
    return rows, deviations

