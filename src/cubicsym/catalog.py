"""Reference catalog of canonical cubic metrics and their symmetry data.

The catalog holds the 41 canonical affine types of homogeneous cubic metrics
on 3-space that admit nontrivial symmetries (ids "<tau>.<k>", grouped by
affine type tau = 1..6), and the 14 canonical classes of the real projective
classification of cubic forms.  Each affine entry records, as reference
data: the component recipe (possibly parametric, with sign parameters eps
in {+1,-1} and rational parameters), the transcribed generator fields, the
transcribed invariant matrix for the 1-dimensional cases, the closed-form
invariant series, a recorded dimension claim and the symmetry class every
branch should land in.

verify_entry / verify_all recompute everything from scratch with the exact
solver and report every disagreement between recorded and computed values.
A small number of recorded values are known to be wrong (they conflict with
the exactly computed algebra); these are listed in KNOWN_DISCREPANCIES and
an audit that finds exactly those is considered clean.  Any discrepancy
outside that list is a regression signal.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .classify import classify
from .forms import Mat3, form_of, scalar_to_json
# solve is not called here, but perfbench/run.py traces catalog.solve by name
from .killing import solve, verify_killing  # noqa: F401
from .liealg import invariants
from .linalg import in_span

Rat = Fraction


class ParameterRangeError(ValueError):
    """A catalog parameter was given a value outside its declared range."""


@dataclass(frozen=True)
class ParamSpec:
    name: str
    kind: str                  # "sign" or "rational"
    default: Fraction
    allow_zero: bool = False


@dataclass(frozen=True)
class Expected:
    finite_dim: int
    infinite: bool
    label: str


@dataclass(frozen=True)
class Branch:
    label: str
    params: dict
    claim: str | None          # recorded dimension claim ("1", "2", "inf", ...)
    expected: Expected         # what the exact computation must produce
    tau: int
    boundary: bool = False


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    tau: int
    params: tuple
    build: object              # params -> CubicForm
    generators: object         # params -> [Mat3] transcribed generator fields
    inv_matrix: object | None  # params -> Mat3 transcribed invariant matrix
    series: object | None      # params -> ([I1..I6], Delta) closed form
    series_tag: str | None
    claimed_dim: str
    expected: object           # params -> Expected
    extra_branches: tuple = () # (label, overrides, claim, tau_override)
    notes: tuple = ()

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
            params[name] = Fraction(value)
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
        if signs:
            for combo in product((1, -1), repeat=len(signs)):
                overrides = {p.name: Fraction(v) for p, v in zip(signs, combo)}
                params = self.resolve_params(overrides)
                label = ",".join(f"{p.name}={'+1' if v == 1 else '-1'}"
                                 for p, v in zip(signs, combo))
                out.append(Branch(label or "default", params, self.claimed_dim,
                                  self.expected(params), self.tau))
        else:
            params = self.resolve_params()
            out.append(Branch("default", params, self.claimed_dim,
                              self.expected(params), self.tau))
        for label, overrides, claim, tau_override in self.extra_branches:
            params = self.resolve_params(overrides)
            out.append(Branch(label, params, claim, self.expected(params),
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


def _exp(finite, infinite, label):
    return Expected(finite, infinite, label)


HALF = Fraction(1, 2)


def _expected_const(finite, infinite, label):
    exp = Expected(finite, infinite, label)
    return lambda p: exp


def _by_sign(quantity_fn, boundary_expected=None):
    """Class 5 when the invariant scale is positive, 6 when negative,
    boundary_expected at zero."""
    def expected(p):
        q = quantity_fn(p)
        if q > 0:
            return Expected(1, False, "5")
        if q < 0:
            return Expected(1, False, "6")
        return boundary_expected(p) if callable(boundary_expected) else boundary_expected
    return expected


ENTRIES = []


def _entry(**kw):
    e = CatalogEntry(**kw)
    ENTRIES.append(e)
    return e


# ---------------------------------------------------------------- tau = 1

_entry(
    id="1.1", tau=1, params=(),
    build=lambda p: form_of(F=1),
    generators=lambda p: [Mat3.diag(1, -1, 0), Mat3.diag(1, 0, -1)],
    inv_matrix=None, series=None, series_tag=None,
    claimed_dim="2",
    expected=_expected_const(2, False, "1"),
)

_entry(
    id="1.2", tau=1, params=(),
    build=lambda p: form_of(B1=1),
    generators=lambda p: [Mat3.diag(-2, 1, 0)],
    inv_matrix=lambda p: Mat3.diag(-2, 1, 0),
    series=lambda p: _pow_series(-2), series_tag="1+(-2)^n",
    claimed_dim="inf+1",
    expected=_expected_const(1, True, "3(3)"),
)

_entry(
    id="1.3", tau=1, params=(),
    build=lambda p: form_of(A1=1),
    generators=lambda p: [],
    inv_matrix=None, series=None, series_tag=None,
    claimed_dim="inf^2",
    expected=_expected_const(0, True, "3(1)"),
)

# ---------------------------------------------------------------- tau = 2

_entry(
    id="2.1", tau=2, params=(),
    build=lambda p: form_of(A1=1, F=1),
    generators=lambda p: [Mat3.diag(0, 1, -1)],
    inv_matrix=lambda p: Mat3.diag(0, 1, -1),
    series=lambda p: _pow_series(-1), series_tag="1+(-1)^n",
    claimed_dim="1",
    expected=_expected_const(1, False, "5"),
)

_entry(
    id="2.2", tau=2, params=(),
    build=lambda p: form_of(B1=1, F=1),
    generators=lambda p: [mat([[1, 0, 0], [0, 0, 0], [0, -HALF, -1]]),
                          mat([[0, 0, 0], [0, 1, 0], [0, -1, -1]])],
    inv_matrix=None, series=None, series_tag=None,
    claimed_dim="2",
    expected=_expected_const(2, False, "1"),
)

_entry(
    id="2.3", tau=2, params=(),
    build=lambda p: form_of(A1=1, B3=1),
    generators=lambda p: [Mat3.diag(0, 1, -HALF)],
    inv_matrix=lambda p: Mat3.diag(0, 1, -HALF),
    series=lambda p: _pow_series(Fraction(-1, 2)), series_tag="(1+(-2)^n)/(-2)^n",
    claimed_dim="1",
    expected=_expected_const(1, False, "4"),
)

_entry(
    id="2.4", tau=2, params=(),
    build=lambda p: form_of(A1=1, C1=1),
    generators=lambda p: [mat([[1, 0, 0], [-1, -2, 0], [0, 0, 0]])],
    inv_matrix=lambda p: mat([[1, 0, 0], [-1, -2, 0], [0, 0, 0]]),
    series=lambda p: _pow_series(-2), series_tag="1+(-2)^n",
    claimed_dim="1",
    expected=_expected_const(1, True, "3(3)"),
    notes=("the metric does not involve the third coordinate, so arbitrary "
           "functions times its coordinate field are isometries: the computed "
           "algebra is infinite plus the recorded 1-dimensional part",),
)

_entry(
    id="2.5", tau=2, params=(sign("eps"),),
    build=lambda p: form_of(B1=1, B2=p["eps"]),
    generators=lambda p: [Mat3.diag(1, -HALF, -HALF)],
    inv_matrix=None, series=None, series_tag=None,
    claimed_dim="1",
    expected=_expected_const(2, False, "1"),
    notes=("recorded dimension 1 conflicts with the computed 2-dimensional "
           "abelian algebra; the extra generator rotates the degenerate plane",),
)

_entry(
    id="2.6", tau=2, params=(),
    build=lambda p: form_of(B1=1, B3=1),
    generators=lambda p: [Mat3.diag(-2, 1, -HALF),
                          mat([[0, 0, 1], [0, 0, 0], [0, -HALF, 0]])],
    inv_matrix=None, series=None, series_tag=None,
    claimed_dim="1",
    expected=_expected_const(2, False, "2"),
    notes=("recorded dimension 1 conflicts with the two recorded generators "
           "and the computed 2-dimensional nonabelian algebra",),
)

_entry(
    id="2.7", tau=2, params=(),
    build=lambda p: form_of(B1=1, C3=1),
    generators=lambda p: [mat([[0, 0, 0], [0, 1, 0], [-2, 0, -2]])],
    inv_matrix=None, series=None, series_tag=None,
    claimed_dim="inf+1",
    expected=_expected_const(1, True, "3(3)"),
)

_entry(
    id="2.8", tau=2, params=(),
    build=lambda p: form_of(A1=1, A2=1),
    generators=lambda p: [],
    inv_matrix=None, series=None, series_tag=None,
    claimed_dim="inf",
    expected=_expected_const(0, True, "3(2)"),
)

_entry(
    id="2.9", tau=2, params=(sign("eps"),),
    build=lambda p: form_of(A1=1, B1=p["eps"]),
    generators=lambda p: [],
    inv_matrix=None, series=None, series_tag=None,
    claimed_dim="inf",
    expected=_expected_const(0, True, "3(2)"),
)

# ---------------------------------------------------------------- tau = 3

_entry(
    id="3.1", tau=3, params=(sign("eps"),),
    build=lambda p: form_of(A1=1, B1=p["eps"], F=1),
    generators=lambda p: [mat([[0, 0, 0], [0, 1, 0], [0, -p["eps"], -1]])],
    inv_matrix=lambda p: mat([[0, 0, 0], [0, 1, 0], [0, -p["eps"], -1]]),
    series=lambda p: _pow_series(-1), series_tag="1+(-1)^n",
    claimed_dim="1",
    expected=_expected_const(1, False, "5"),
)

_entry(
    id="3.2", tau=3, params=(),
    build=lambda p: form_of(A1=1, C1=1, F=1),
    generators=lambda p: [mat([[0, 0, 0], [0, 1, 0], [-HALF, 0, -1]])],
    inv_matrix=lambda p: mat([[0, 0, 0], [0, 1, 0], [-HALF, 0, -1]]),
    series=lambda p: _pow_series(-1), series_tag="1+(-1)^n",
    claimed_dim="1",
    expected=_expected_const(1, False, "5"),
)

_entry(
    id="3.3", tau=3, params=(sign("eps"),),
    build=lambda p: form_of(B1=1, B2=p["eps"], F=1),
    generators=lambda p: [mat([[1, 0, 0], [0, 0, p["eps"] / 2], [0, -HALF, -1]]),
                          mat([[0, 0, 0], [0, 1, p["eps"]], [0, -1, -1]])],
    inv_matrix=None, series=None, series_tag=None,
    claimed_dim="2",
    expected=lambda p: (_exp(1, True, "3(3)") if p["eps"] == 1
                        else _exp(2, False, "1")),
    notes=("on the eps=+1 branch the quadratic factor is a perfect square, "
           "the radical becomes 1-dimensional and the second recorded "
           "generator collapses into the arbitrary-function family: the "
           "computed algebra is infinite plus one, not 2-dimensional",),
)

_entry(
    id="3.4", tau=3, params=(),
    build=lambda p: form_of(B1=1, B3=1, F=1),
    generators=lambda p: [mat([[1, 0, 1], [0, 0, 0], [0, -HALF, -1]])],
    inv_matrix=lambda p: mat([[1, 0, 1], [0, 0, 0], [0, -HALF, -1]]),
    series=lambda p: _pow_series(-1), series_tag="1+(-1)^n",
    claimed_dim="1",
    expected=_expected_const(1, False, "5"),
)

_entry(
    id="3.5", tau=3, params=(),
    build=lambda p: form_of(B1=1, C1=1, F=1),
    generators=lambda p: [mat([[0, 0, 0], [0, 1, 0], [0, -1, -1]]),
                          mat([[1, 0, 0], [0, 0, 0], [-1, -HALF, -1]])],
    inv_matrix=None, series=None, series_tag=None,
    claimed_dim="2",
    expected=_expected_const(2, False, "1"),
    notes=("the first recorded generator is missing a -x1/2 contribution in "
           "its third component and fails the isometry check as written",),
)

_entry(
    id="3.6", tau=3, params=(),
    build=lambda p: form_of(B1=1, C3=1, F=1),
    generators=lambda p: [mat([[-1, -HALF, 0], [0, 0, 0], [0, HALF, 1]])],
    inv_matrix=lambda p: mat([[-1, -HALF, 0], [0, 0, 0], [0, HALF, 1]]),
    series=lambda p: _pow_series(-1), series_tag="1+(-1)^n",
    claimed_dim="1",
    expected=_expected_const(1, False, "5"),
)

_entry(
    id="3.7", tau=3, params=(),
    build=lambda p: form_of(A1=1, A2=1, C2=1),
    generators=lambda p: [mat([[1, 0, 0], [0, 0, 0], [-1, 0, -2]])],
    inv_matrix=lambda p: mat([[1, 0, 0], [0, 0, 0], [-1, 0, -2]]),
    series=lambda p: _pow_series(-2), series_tag="1+(-2)^n",
    claimed_dim="1",
    expected=_expected_const(1, False, "4"),
)

_entry(
    id="3.8", tau=3, params=(sign("eps1"), sign("eps2")),
    build=lambda p: form_of(A1=1, B1=p["eps1"], B2=p["eps2"]),
    generators=lambda p: [mat([[0, 0, 0], [0, 0, 1], [0, -p["eps1"] * p["eps2"], 0]])],
    inv_matrix=lambda p: mat([[0, 0, 0], [0, 0, 1], [0, -p["eps1"] * p["eps2"], 0]]),
    series=lambda p: _even_series(-p["eps1"] * p["eps2"]),
    series_tag="c^(n/2)(1+(-1)^n), c=-eps1*eps2",
    claimed_dim="1",
    expected=_by_sign(lambda p: -p["eps1"] * p["eps2"]),
)

_entry(
    id="3.9", tau=3, params=(sign("eps"),),
    build=lambda p: form_of(A1=1, B1=p["eps"], C2=1),
    generators=lambda p: [Mat3.diag(1, -HALF, -2),
                          mat([[0, 0, 0], [-p["eps"] / 2, 0, 0], [0, 1, 0]])],
    inv_matrix=None, series=None, series_tag=None,
    claimed_dim="2",
    expected=_expected_const(2, False, "2"),
    notes=("the first recorded generator misses a -x1 contribution in its "
           "third component and fails the isometry check as written; the "
           "corrected field still brackets to (3/2) times the second",),
)

_entry(
    id="3.10", tau=3, params=(sign("eps"),),
    build=lambda p: form_of(A1=1, B1=p["eps"], C3=1),
    generators=lambda p: [mat([[0, 0, 0], [0, 1, 0], [-2 * p["eps"], 0, -2]])],
    inv_matrix=lambda p: mat([[0, 0, 0], [0, 1, 0], [-2 * p["eps"], 0, -2]]),
    series=lambda p: _pow_series(-2), series_tag="1+(-2)^n",
    claimed_dim="1",
    expected=_expected_const(1, False, "4"),
)

_entry(
    id="3.11", tau=3, params=(sign("eps"),),
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
    id="3.12", tau=3, params=(),
    build=lambda p: form_of(B1=1, B3=1, C1=1),
    generators=lambda p: [mat([[0, 0, 1], [0, 0, 0], [-1, -HALF, 0]])],
    inv_matrix=lambda p: mat([[0, 0, 1], [0, 0, 0], [-1, -HALF, 0]]),
    series=lambda p: _even_series(-1),
    series_tag="(-1)^(n/2)(1+(-1)^n)",
    claimed_dim="1",
    expected=_expected_const(1, False, "6"),
)

_entry(
    id="3.13", tau=3, params=(sign("eps"),),
    build=lambda p: form_of(B1=1, B3=p["eps"], C3=1),
    generators=lambda p: [mat([[-2, 0, Fraction(-3, 2)], [0, 1, 0], [0, 0, -HALF]]),
                          mat([[0, -1, -2 * p["eps"]], [0, 0, 0], [0, 1, 0]])],
    inv_matrix=None, series=None, series_tag=None,
    claimed_dim="2",
    expected=_expected_const(2, False, "2"),
)

# ---------------------------------------------------------------- tau = 4

_entry(
    id="4.1", tau=4, params=(sign("eps1"), sign("eps2"), rational("F", 2)),
    build=lambda p: form_of(A1=1, B1=p["eps1"], B2=p["eps2"], F=p["F"]),
    generators=lambda p: [mat([[0, 0, 0],
                               [0, p["eps2"] * p["F"], 1],
                               [0, -p["eps1"] * p["eps2"], -p["eps2"] * p["F"]]])],
    inv_matrix=lambda p: mat([[0, 0, 0],
                              [0, p["eps2"] * p["F"], 1],
                              [0, -p["eps1"] * p["eps2"], -p["eps2"] * p["F"]]]),
    series=lambda p: _even_series(p["F"] ** 2 - p["eps1"] * p["eps2"]),
    series_tag="c^(n/2)(1+(-1)^n), c=F^2-eps1*eps2",
    claimed_dim="1",
    expected=_by_sign(lambda p: p["F"] ** 2 - p["eps1"] * p["eps2"],
                      boundary_expected=lambda p: _exp(0, True, "3(2)")),
    extra_branches=(
        ("F=1/2,eps1=+1,eps2=+1", {"F": HALF, "eps1": 1, "eps2": 1}, "1", None),
        ("F=1/2,eps1=-1,eps2=-1", {"F": HALF, "eps1": -1, "eps2": -1}, "1", None),
        ("F^2=eps1*eps2 (F=1,+,+)", {"F": 1, "eps1": 1, "eps2": 1}, "inf", None),
        ("F^2=eps1*eps2 (F=1,-,-)", {"F": 1, "eps1": -1, "eps2": -1}, "inf", None),
    ),
)

_entry(
    id="4.2", tau=4, params=(sign("eps"), rational("F", 2)),
    build=lambda p: form_of(A1=1, B1=p["eps"], C2=1, F=p["F"]),
    generators=lambda p: [mat([[0, 0, 0],
                               [-1 / (2 * p["F"]), -1, 0],
                               [0, p["eps"] / p["F"], 1]])],
    inv_matrix=lambda p: mat([[0, 0, 0],
                              [-1 / (2 * p["F"]), -1, 0],
                              [0, p["eps"] / p["F"], 1]]),
    series=lambda p: _pow_series(-1), series_tag="1+(-1)^n",
    claimed_dim="1",
    expected=_expected_const(1, False, "5"),
)

_entry(
    id="4.3", tau=4, params=(sign("eps"), rational("F", 2)),
    build=lambda p: form_of(B1=p["eps"], B2=1, C2=1, F=p["F"]),
    generators=lambda p: [mat([[0, 0, 0],
                               [-p["eps"] / 2, -p["eps"] * p["F"], -p["eps"]],
                               [0, 1, p["eps"] * p["F"]]])],
    inv_matrix=lambda p: mat([[0, 0, 0],
                              [-p["eps"] / 2, -p["eps"] * p["F"], -p["eps"]],
                              [0, 1, p["eps"] * p["F"]]]),
    series=lambda p: _even_series(p["F"] ** 2 - p["eps"]),
    series_tag="c^(n/2)(1+(-1)^n), c=F^2-eps",
    claimed_dim="1",
    expected=_by_sign(lambda p: p["F"] ** 2 - p["eps"],
                      boundary_expected=lambda p: _exp(2, False, "2")),
    extra_branches=(
        ("F=1/2,eps=+1", {"F": HALF, "eps": 1}, "1", None),
        ("F^2=1,eps=+1", {"F": 1, "eps": 1}, "2", None),
    ),
)

_entry(
    id="4.4", tau=4, params=(rational("F", 2),),
    build=lambda p: form_of(B2=1, B3=1, C2=1, F=p["F"]),
    generators=lambda p: [mat([[1, 0, 1 / (2 * p["F"])],
                               [-1 / p["F"], -1, -1 / (2 * p["F"])],
                               [0, 0, 0]])],
    inv_matrix=lambda p: mat([[1, 0, 1 / (2 * p["F"])],
                              [-1 / p["F"], -1, -1 / (2 * p["F"])],
                              [0, 0, 0]]),
    series=lambda p: _pow_series(-1), series_tag="1+(-1)^n",
    claimed_dim="1",
    expected=_expected_const(1, False, "5"),
)

_entry(
    id="4.5", tau=4, params=(rational("B", 3),),
    build=lambda p: form_of(A1=1, A2=1, B1=p["B"], C2=1),
    generators=lambda p: [mat([[1, 0, 0], [-p["B"], 0, 0], [-1, 2 * p["B"] ** 2, -2]])],
    inv_matrix=lambda p: mat([[1, 0, 0], [-p["B"], 0, 0], [0, 2 * p["B"] ** 2, -2]]),
    series=lambda p: _pow_series(-2), series_tag="1+(-2)^n",
    claimed_dim="1",
    expected=_expected_const(1, False, "4"),
    notes=("the recorded invariant matrix drops the -1 entry in position "
           "(3,1) that the recorded generator field carries; only the field "
           "satisfies the isometry equation (their invariants coincide)",),
)

_entry(
    id="4.6", tau=4, params=(rational("B", 3),),
    build=lambda p: form_of(A1=1, A2=1, B1=p["B"], C3=1),
    generators=lambda p: [mat([[0, 0, 0], [0, 1, 0], [-2 * p["B"], -1, -2]])],
    inv_matrix=lambda p: mat([[0, 0, 0], [0, 1, 0], [2 * p["B"], 1, -2]]),
    series=lambda p: _pow_series(-2), series_tag="1+(-2)^n",
    claimed_dim="1",
    expected=_expected_const(1, False, "4"),
    notes=("the recorded invariant matrix flips the signs of the first two "
           "entries of the third row relative to the recorded generator "
           "field; only the field satisfies the isometry equation",),
)

_entry(
    id="4.7", tau=4, params=(sign("eps1"), sign("eps2"), rational("C", 3)),
    build=lambda p: form_of(A1=1, B1=p["eps1"], B2=p["eps2"], C1=p["C"]),
    generators=lambda p: [mat([[0, 0, 0],
                               [0, 0, 1],
                               [-p["eps2"] * p["C"] / 2, -p["eps1"] * p["eps2"], 0]])],
    inv_matrix=lambda p: mat([[0, 0, 0],
                              [0, 0, 1],
                              [-p["eps2"] * p["C"] / 2, -p["eps1"] * p["eps2"], 0]]),
    series=lambda p: _even_series(-p["eps1"] * p["eps2"]),
    series_tag="c^(n/2)(1+(-1)^n), c=-eps1*eps2",
    claimed_dim="1",
    expected=_by_sign(lambda p: -p["eps1"] * p["eps2"]),
)

_entry(
    id="4.8", tau=4, params=(sign("eps"), rational("C", 3)),
    build=lambda p: form_of(A1=1, B2=p["eps"], B3=1, C2=p["C"]),
    generators=lambda p: [mat([[0, 0, -p["C"]],
                               [2 * (p["C"] ** 2 - p["eps"]), -2, p["eps"] * p["C"]],
                               [0, 0, 1]])],
    inv_matrix=lambda p: mat([[0, 0, -p["C"]],
                              [2 * (p["C"] ** 2 - p["eps"]), -2, p["eps"] * p["C"]],
                              [0, 0, 1]]),
    series=lambda p: _pow_series(-2), series_tag="1+(-2)^n",
    claimed_dim="1",
    expected=_expected_const(1, False, "4"),
)

_entry(
    id="4.9", tau=4, params=(rational("B", 3),),
    build=lambda p: form_of(A1=1, B1=p["B"], C1=1, C2=1),
    generators=lambda p: [mat([[1, 0, 0], [0, -HALF, 0], [-1, Fraction(-3, 2), -2]]),
                          mat([[0, 0, 0], [1, 0, 0], [-1, -2 * p["B"], 0]])],
    inv_matrix=None, series=None, series_tag=None,
    claimed_dim="2",
    expected=_expected_const(2, False, "2"),
)

_entry(
    id="4.10", tau=4, params=(rational("B", 3, allow_zero=True),),
    build=lambda p: form_of(B1=p["B"], B2=1, C1=1, C2=1),
    generators=lambda p: [mat([[0, 0, 0], [HALF, 0, 1], [-HALF, -p["B"], 0]])],
    inv_matrix=lambda p: mat([[0, 0, 0], [HALF, 0, 1], [-HALF, -p["B"], 0]]),
    series=lambda p: _even_series(-p["B"]),
    series_tag="c^(n/2)(1+(-1)^n), c=-B",
    claimed_dim="1",
    expected=_by_sign(lambda p: -p["B"],
                      boundary_expected=lambda p: _exp(2, False, "2")),
    extra_branches=(
        ("B=-3", {"B": -3}, "1", None),
        ("B=0", {"B": 0}, "2", 3),
    ),
)

# ---------------------------------------------------------------- tau = 5

_entry(
    id="5.1", tau=5, params=(rational("C2", 1), rational("C3", 2)),
    build=lambda p: form_of(A3=1, B2=1, B3=1, C2=p["C2"], C3=p["C3"]),
    generators=lambda p: [mat([[0, 2 * p["C3"], 1], [-2 * p["C2"], 0, -1], [0, 0, 0]])],
    inv_matrix=lambda p: mat([[0, 2 * p["C3"], 1], [-2 * p["C2"], 0, -1], [0, 0, 0]]),
    series=lambda p: _even_series(-4 * p["C2"] * p["C3"]),
    series_tag="c^(n/2)(1+(-1)^n), c=-4*C2*C3",
    claimed_dim="1",
    expected=_by_sign(lambda p: -4 * p["C2"] * p["C3"]),
    extra_branches=(("C3=-2", {"C3": -2}, "1", None),),
)

_entry(
    id="5.2", tau=5, params=(rational("B3", 3), rational("C3", 2)),
    build=lambda p: form_of(A2=1, A3=1, B2=1, B3=p["B3"], C3=p["C3"]),
    generators=lambda p: [mat([[-2, 2 * (p["C3"] ** 2 - p["B3"]), p["B3"] * p["C3"] - 1],
                               [0, 0, -p["C3"]],
                               [0, 0, 1]])],
    inv_matrix=lambda p: mat([[-2, 2 * (p["C3"] ** 2 - p["B3"]), p["B3"] * p["C3"] - 1],
                              [0, 0, -p["C3"]],
                              [0, 0, 1]]),
    series=lambda p: _pow_series(-2), series_tag="1+(-2)^n",
    claimed_dim="1",
    expected=_expected_const(1, False, "4"),
)

_entry(
    id="5.3", tau=5, params=(rational("C2", 1), rational("C3", 2)),
    build=lambda p: form_of(B2=1, B3=1, C2=p["C2"], C3=p["C3"], F=1),
    generators=lambda p: [mat([[2, 2 * p["C3"], 1], [-2 * p["C2"], -2, -1], [0, 0, 0]])],
    inv_matrix=lambda p: mat([[2, 2 * p["C3"], 1], [-2 * p["C2"], -2, -1], [0, 0, 0]]),
    series=lambda p: _even_series(4 * (1 - p["C2"] * p["C3"])),
    series_tag="c^(n/2)(1+(-1)^n), c=4(1-C2*C3)",
    claimed_dim="1",
    expected=lambda p: (
        _exp(0, True, "3(2)") if p["C2"] == 1 and p["C3"] == 1 else
        _exp(1, False, "5") if p["C2"] * p["C3"] < 1 else
        _exp(1, False, "6") if p["C2"] * p["C3"] > 1 else
        _exp(2, False, "2")),
    extra_branches=(
        ("C3=1/2", {"C3": HALF}, "1", None),
        ("C2*C3=1", {"C2": 2, "C3": HALF}, "2", None),
        ("C2=C3=1 (fully factorable)", {"C2": 1, "C3": 1}, None, None),
    ),
)

_entry(
    id="5.4", tau=5, params=(rational("C2", 1), rational("C3", 2)),
    build=lambda p: form_of(A3=1, B3=1, C2=p["C2"], C3=p["C3"], F=1),
    generators=lambda p: [mat([[-1 / p["C2"], -p["C3"] / p["C2"], -1 / (2 * p["C2"])],
                               [1, 1 / p["C2"], 0],
                               [0, 0, 0]])],
    inv_matrix=lambda p: mat([[-1 / p["C2"], -p["C3"] / p["C2"], -1 / (2 * p["C2"])],
                              [1, 1 / p["C2"], 0],
                              [0, 0, 0]]),
    series=lambda p: _even_series((1 - p["C2"] * p["C3"]) / p["C2"] ** 2),
    series_tag="c^(n/2)(1+(-1)^n), c=(1-C2*C3)/C2^2",
    claimed_dim="1",
    expected=_by_sign(lambda p: 1 - p["C2"] * p["C3"],
                      boundary_expected=lambda p: _exp(2, False, "2")),
    extra_branches=(
        ("C3=1/2", {"C3": HALF}, "1", None),
        ("C2*C3=1", {"C3": 1}, "2", None),
    ),
)

_entry(
    id="5.5", tau=5, params=(rational("B3", 3), rational("C3", 2)),
    build=lambda p: form_of(A3=1, B2=1, B3=p["B3"], C3=p["C3"], F=1),
    generators=lambda p: [mat([[-2, -2 * p["C3"], -p["B3"]], [0, 2, 1], [0, 0, 0]])],
    inv_matrix=lambda p: mat([[-2, -2 * p["C3"], -p["B3"]], [0, 2, 1], [0, 0, 0]]),
    series=lambda p: _even_series(4),
    series_tag="4^(n/2)(1+(-1)^n)",
    claimed_dim="1",
    expected=_expected_const(1, False, "5"),
)

# ---------------------------------------------------------------- tau = 6

_entry(
    id="6.1", tau=6, params=(rational("F", 2), rational("C2", 1), rational("C3", 2)),
    build=lambda p: form_of(A3=1, B2=1, B3=1, C2=p["C2"], C3=p["C3"], F=p["F"]),
    generators=lambda p: [mat([[2 * p["F"], 2 * p["C3"], 1],
                               [-2 * p["C2"], -2 * p["F"], -1],
                               [0, 0, 0]])],
    inv_matrix=lambda p: mat([[2 * p["F"], 2 * p["C3"], 1],
                              [-2 * p["C2"], -2 * p["F"], -1],
                              [0, 0, 0]]),
    series=lambda p: _even_series(4 * (p["F"] ** 2 - p["C2"] * p["C3"])),
    series_tag="c^(n/2)(1+(-1)^n), c=4(F^2-C2*C3)",
    claimed_dim="1",
    expected=_by_sign(lambda p: p["F"] ** 2 - p["C2"] * p["C3"],
                      boundary_expected=lambda p: _exp(2, False, "2")),
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

@dataclass(frozen=True)
class ProjectiveSample:
    label: str
    params: dict
    recorded_class: str        # class per the correspondence table
    expected_class: str        # class the exact computation must produce


@dataclass(frozen=True)
class ProjectiveEntry:
    id: str
    description: str
    build: object
    samples: tuple
    notes: tuple = ()


def _psample(label, params, recorded, expected=None):
    return ProjectiveSample(label, params, recorded,
                            expected if expected is not None else recorded)


GENERAL_SAMPLES = (
    _psample("F=-2 (F below the lower irrational threshold)", {"F": Rat(-2)}, "8"),
    _psample("F=-1 (between the lower threshold and -1/2)", {"F": Rat(-1)}, "8"),
    _psample("F=-1/2 (degenerate: the form factors)", {"F": Rat(-1, 2)}, "1"),
    _psample("F=-1/4 (between -1/2 and 0)", {"F": Rat(-1, 4)}, "8"),
    _psample("F=0", {"F": Rat(0)}, "8"),
    _psample("F=1/4 (between 0 and the upper irrational threshold)", {"F": Rat(1, 4)}, "8"),
    _psample("F=1/2 (between the upper threshold and 1)", {"F": Rat(1, 2)}, "8"),
    _psample("F=1", {"F": Rat(1)}, "8"),
    _psample("F=2 (F>1)", {"F": Rat(2)}, "8"),
)

PROJECTIVE_ENTRIES = (
    ProjectiveEntry(
        "general", "A1=A2=A3=1, F free", lambda p: form_of(A1=1, A2=1, A3=1, F=p["F"]),
        GENERAL_SAMPLES,
        notes=("the two irrational subclass boundary points (where (2F+1)^2 = 3) "
               "cannot be sampled in exact rational arithmetic; all rational "
               "samples with F != -1/2 share the same symmetry data",),
    ),
    ProjectiveEntry("I", "A1=A2=F=1", lambda p: form_of(A1=1, A2=1, F=1),
                    (_psample("default", {}, "8"),)),
    ProjectiveEntry("II", "A1=F=1", lambda p: form_of(A1=1, F=1),
                    (_psample("default", {}, "5"),)),
    ProjectiveEntry("III", "F=1", lambda p: form_of(F=1),
                    (_psample("default", {}, "1"),)),
    ProjectiveEntry("IV", "A1=C3=1", lambda p: form_of(A1=1, C3=1),
                    (_psample("default", {}, "4"),)),
    ProjectiveEntry("V", "C1=C3=1", lambda p: form_of(C1=1, C3=1),
                    (_psample("default", {}, "2"),)),
    ProjectiveEntry("VI", "A1=A2=1", lambda p: form_of(A1=1, A2=1),
                    (_psample("default", {}, "3(2)"),)),
    ProjectiveEntry("VII", "C1=1", lambda p: form_of(C1=1),
                    (_psample("default", {}, "3(3)"),)),
    ProjectiveEntry("VIII", "A1=1", lambda p: form_of(A1=1),
                    (_psample("default", {}, "3(1)"),)),
    ProjectiveEntry("IX", "A3=C1=B3=1", lambda p: form_of(A3=1, C1=1, B3=1),
                    (_psample("default", {}, "8"),)),
    ProjectiveEntry("X", "A2=-1, C1=B3=1", lambda p: form_of(A2=-1, C1=1, B3=1),
                    (_psample("default", {}, "5", expected="6"),),
                    notes=("the computed 1-dimensional algebra is a rotation "
                           "(I2 < 0), class 6; the correspondence table files "
                           "this class under 5, its complex-equivalent twin",)),
    ProjectiveEntry("XI", "A2=C1=B3=1", lambda p: form_of(A2=1, C1=1, B3=1),
                    (_psample("default", {}, "5", expected="6"),),
                    notes=("the computed 1-dimensional algebra is a rotation "
                           "(I2 < 0), class 6; the correspondence table files "
                           "this class under 5, its complex-equivalent twin",)),
    ProjectiveEntry("XII", "C1=B3=1", lambda p: form_of(C1=1, B3=1),
                    (_psample("default", {}, "1"),)),
    ProjectiveEntry("XIII", "A2=-1, C1=1", lambda p: form_of(A2=-1, C1=1),
                    (_psample("default", {}, "3(2)"),)),
)

PROJECTIVE_BY_ID = {e.id: e for e in PROJECTIVE_ENTRIES}

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


def general_subclass(F):
    """Subclass of the general projective class for an exact rational F.

    The two irrational boundaries are the roots of (2F+1)^2 = 3; exact sign
    predicates on that quantity decide interval membership, so no irrational
    arithmetic is needed.
    """
    F = Fraction(F)
    d = (2 * F + 1) ** 2 - 3
    if F == Fraction(-1, 2):
        return "F=-1/2 (degenerate: factors through a plane and a quadric)"
    if F < Fraction(-1, 2):
        if d > 0:
            return "F < -(sqrt(3)+1)/2"
        if d == 0:
            return "F = -(sqrt(3)+1)/2"
        return "-(sqrt(3)+1)/2 < F < -1/2"
    if F < 0:
        return "-1/2 < F < 0"
    if F == 0:
        return "F = 0"
    if F < 1:
        if d < 0:
            return "0 < F < (sqrt(3)-1)/2"
        if d == 0:
            return "F = (sqrt(3)-1)/2"
        return "(sqrt(3)-1)/2 < F < 1"
    if F == 1:
        return "F = 1"
    return "F > 1"


# ------------------------------------------------------------------ audit

@dataclass(frozen=True)
class GeneratorCheck:
    source: str                # "field" or "invariant-matrix"
    index: int
    passes: bool
    in_kernel: bool            # passes and lies in the computed kernel span


@dataclass(frozen=True)
class BranchReport:
    entry_id: str
    branch: str
    params: dict
    computed_finite: int
    computed_infinite: bool
    computed_class: str
    claim: str | None
    expected: Expected
    tau_ok: bool
    oracle_ok: bool            # computed == expected (hard)
    claim_ok: bool | None      # computed matches the recorded claim
    generator_checks: tuple
    series_ok: bool | None
    known_issues: tuple
    unknown_issues: tuple

    @property
    def status(self):
        return "MATCH" if not self.known_issues and not self.unknown_issues \
            else "DISCREPANCY"

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
    known, unknown = [], []

    def issue(kind, text):
        if (entry.id, kind) in KNOWN_DISCREPANCIES:
            known.append(f"{kind}: {text}")
        else:
            unknown.append(f"{kind}: {text}")

    tau_ok = form.affine_type() == branch.tau
    if not tau_ok:
        issue("tau", f"affine type {form.affine_type()} != {branch.tau}")

    expected = branch.expected
    oracle_ok = (algebra.finite_nontrivial_dim == expected.finite_dim
                 and algebra.has_infinite_family == expected.infinite
                 and report.label == expected.label)
    if not oracle_ok:
        issue("oracle",
              f"computed (dim={algebra.finite_nontrivial_dim}, "
              f"inf={algebra.has_infinite_family}, class={report.label}) != "
              f"expected (dim={expected.finite_dim}, inf={expected.infinite}, "
              f"class={expected.label})")

    claim_ok = _claim_matches(branch.claim, algebra)
    if claim_ok is False:
        issue("dimension",
              f"recorded dimension claim {branch.claim!r} vs computed "
              f"finite dim {algebra.finite_nontrivial_dim}"
              + (" plus infinite family" if algebra.has_infinite_family else ""))

    kernel_vectors = [g.flatten() for g in algebra.generators]
    checks = []
    for i, G in enumerate(entry.generators(branch.params)):
        ok = verify_killing(form, G)
        in_kernel = ok and in_span(kernel_vectors, G.flatten())
        checks.append(GeneratorCheck("field", i, ok, in_kernel))
        if not ok:
            issue("generator", f"recorded generator {i} fails the isometry check")
    inv_gen = None
    if entry.inv_matrix is not None:
        M = entry.inv_matrix(branch.params)
        ok = verify_killing(form, M)
        in_kernel = ok and in_span(kernel_vectors, M.flatten())
        checks.append(GeneratorCheck("invariant-matrix", 0, ok, in_kernel))
        if ok:
            inv_gen = M
        else:
            issue("invariant-matrix",
                  "recorded invariant matrix fails the isometry check")

    series_ok = None
    if entry.series is not None and not branch.boundary:
        if inv_gen is None:
            fields = [G for G in entry.generators(branch.params)
                      if verify_killing(form, G)]
            inv_gen = fields[0] if fields else (
                algebra.generators[0] if algebra.generators else None)
        if inv_gen is not None:
            expected_I, expected_delta = entry.series(branch.params)
            series = invariants(inv_gen)
            series_ok = (list(series.I) == list(map(Fraction, expected_I))
                         and series.delta == expected_delta)
            if not series_ok:
                issue("series", "computed invariant series differs from the "
                                "recorded closed form")

    return BranchReport(
        entry_id=entry.id, branch=branch.label, params=branch.params,
        computed_finite=algebra.finite_nontrivial_dim,
        computed_infinite=algebra.has_infinite_family,
        computed_class=report.label,
        claim=branch.claim, expected=expected,
        tau_ok=tau_ok, oracle_ok=oracle_ok, claim_ok=claim_ok,
        generator_checks=tuple(checks), series_ok=series_ok,
        known_issues=tuple(known), unknown_issues=tuple(unknown),
    )


def verify_entry(entry_id, overrides=None):
    """Audit a single entry; with overrides, audit just that instance."""
    entry = get_entry(entry_id)
    if overrides is not None:
        params = entry.resolve_params(overrides)
        branch = Branch("custom", params, entry.claimed_dim,
                        entry.expected(params), entry.tau, boundary=True)
        return [verify_branch(entry, branch)]
    return [verify_branch(entry, b) for b in entry.branches()]


@dataclass(frozen=True)
class ProjectiveReport:
    entry_id: str
    sample: str
    recorded_class: str
    expected_class: str
    computed_class: str
    known_issues: tuple
    unknown_issues: tuple

    @property
    def status(self):
        return "MATCH" if not self.known_issues and not self.unknown_issues \
            else "DISCREPANCY"

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
        form = entry.build(sample.params)
        computed = classify(form).label
        known, unknown = [], []
        if computed != sample.expected_class:
            unknown.append(f"class: computed {computed} != expected "
                           f"{sample.expected_class}")
        if computed != sample.recorded_class:
            text = (f"table: computed {computed} differs from the recorded "
                    f"class {sample.recorded_class}")
            if (entry.id, "table") in KNOWN_DISCREPANCIES:
                known.append(text)
            else:
                unknown.append(text)
        out.append(ProjectiveReport(entry.id, sample.label,
                                    sample.recorded_class, sample.expected_class,
                                    computed, tuple(known), tuple(unknown)))
    return out


@dataclass(frozen=True)
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

    Returns (rows, deviations): rows maps each symmetry class label to the
    recorded and computed lists of projective classes; deviations lists the
    documented recorded-vs-computed differences.
    """
    computed = {}
    for entry in PROJECTIVE_ENTRIES:
        if entry.id == "general":
            # the table rows the generic subclass; F=-1/2 is the noted exception
            label = classify(entry.build({"F": Fraction(2)})).label
        else:
            label = classify(entry.build({})).label
        computed.setdefault(label, []).append(entry.id)
    labels = ("1", "2", "3(1)", "3(2)", "3(3)", "4", "5", "6", "7", "8")
    rows = {label: {"recorded": list(CORRESPONDENCE_TABLE[label]),
                    "computed": computed.get(label, [])}
            for label in labels}
    deviations = []
    for label in labels:
        rec, comp = set(rows[label]["recorded"]), set(rows[label]["computed"])
        for pid in sorted(rec - comp):
            actual = next(lb for lb in labels if pid in rows[lb]["computed"])
            deviations.append({"projective": pid, "recorded": label,
                               "computed": actual,
                               "known": (pid, "table") in KNOWN_DISCREPANCIES})
    return rows, deviations


def export_catalog():
    """Plain-data image of the catalog (the shipped JSON data file)."""
    affine = []
    for entry in ENTRIES:
        branches = []
        for b in entry.branches():
            form = entry.build(b.params)
            branches.append({
                "label": b.label,
                "params": {k: scalar_to_json(v) for k, v in b.params.items()},
                "form": form.to_json(),
                "affine_type": b.tau,
                "claim": b.claim,
                "expected": {
                    "finite_nontrivial_dim": b.expected.finite_dim,
                    "has_infinite_family": b.expected.infinite,
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
