"""The package's frozen records: ``NamedTuple``s, and ``DiffOp``, a class with slots.

Every record keeps the behaviour of the frozen dataclass it replaced: its
fields in order, positional and keyword construction, defaults, equality and
hash within its class, immutability, pickling, the ``Name(field=value, ...)``
repr, and the errors of the records that check their fields.  A fresh import
of the command line loads no ``dataclasses``.
"""

import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from starwedge.config import RunConfig, SpectrumConfig
from starwedge.diffop import MINKOWSKI, BidiffOp, Chart, DiffOp, momentum_generator, wedge
from starwedge.expr import CR_ONE, ONE, ZERO, sym
from starwedge.quadrature import QuadratureResult
from starwedge.rindler import MetricPullback, RindlerMap
from starwedge.spectrum import DeformedPowerPoint, ModeParams, SpectrumResult, SpectrumRow
from starwedge.starprod import CommutatorTable, RelationEntry, RelationReport
from starwedge.twists import CanonicalTwist, LieTwist, LinearTwist, QuadraticTwist, TwistSpecError
from starwedge.verification import CheckResult

_X = sym("x0")
_P0, _P1 = momentum_generator(MINKOWSKI, 0), momentum_generator(MINKOWSKI, 1)
_CANONICAL = CanonicalTwist({(0, 1): Fraction(1, 2)})
_ROW = SpectrumRow(1.0, 0.5 - 0.25j, 0.3, 0.29, "closed-form")
_ENTRY = RelationEntry(0, 1, _X, _X)
_F = (Fraction(0), Fraction(0), Fraction(1), Fraction(0))

# (record class, its fields in order with values each keeps as given, its defaults)
RECORDS = [
    (Chart, {"name": "minkowski", "coords": ("x0", "x1", "x2", "x3")}, {}),
    (DiffOp, {"chart": MINKOWSKI, "coeffs": (ZERO, ONE, ZERO, _X)}, {}),
    (BidiffOp, {"chart": MINKOWSKI, "terms": ((CR_ONE, _P0, _P1),)}, {}),
    (MetricPullback, {"computed": (_X, ONE, ONE, ONE), "printed_alternative": (ONE, ONE, ONE, ONE)}, {}),
    (RindlerMap, {}, {}),
    (QuadratureResult, {"value": 1 + 2j, "error_estimate": 1e-9, "converged": True}, {}),
    (ModeParams, {"omega_hat": 1.0, "z": 2.0, "a": 3.0, "omega": -0.5}, {}),
    (
        DeformedPowerPoint,
        {"amplitude": 0.5 + 0.5j, "power": 0.5, "planck": 0.5, "deviation": -1e-4,
         "closed_form": 0.49995, "via_amplitude": 0.49996},
        {},
    ),
    (
        SpectrumRow,
        {"omega": 1.0, "f_value": 0.5 - 0.25j, "power": 0.3, "power_deformed": 0.29,
         "method": "quadrature", "converged": False},
        {"converged": True},
    ),
    (
        SpectrumResult,
        {"a": 1.0, "omega_hat": 1.0, "z": 1.0, "theta01": 1e-4, "rows": (_ROW,), "bound_breaches": (2.0,)},
        {"bound_breaches": ()},
    ),
    (CommutatorTable, {"spec": _CANONICAL, "chart": MINKOWSKI, "entries": {(0, 1): _X}}, {}),
    (RelationEntry, {"mu": 0, "nu": 1, "expected": _X, "got": _X}, {}),
    (RelationReport, {"spec": _CANONICAL, "entries": (_ENTRY,)}, {}),
    (CanonicalTwist, {"theta": _CANONICAL.theta}, {}),
    (LieTwist, {"inv_kappa": Fraction(1, 4), "zeta": _F, "alpha": 0, "beta": 1}, {}),
    (QuadraticTwist, {"xi": Fraction(1, 6), "indices": (0, 1, 2, 3)}, {}),
    (LinearTwist, {"spec": _CANONICAL, "operator": wedge(_P0, _P1)}, {}),
    (CheckResult, {"name": "star_unit", "passed": True, "measured": None, "tolerance": None, "detail": "ok"}, {}),
    (
        SpectrumConfig,
        {"a": 1.0, "omega_hat": 1.0, "z": 1.0, "theta01": 0.0, "omegas": (0.5, 1.0),
         "method": "both", "panel_factor": 1, "rtol": 1e-7},
        {},
    ),
    (
        RunConfig,
        {"seed": 7, "out_format": "json", "out_dir": "out", "chart": "rindler", "twist": _CANONICAL,
         "spectrum": None, "tolerances": {"planck_equivalence": 1e-9}},
        {"seed": 1, "out_format": "text", "out_dir": None, "chart": "minkowski", "twist": None,
         "spectrum": None, "tolerances": {}},
    ),
]
# records holding a dict do not hash, as the frozen dataclasses they replaced did not
UNHASHABLE = {CommutatorTable, RunConfig}

_by_class = pytest.mark.parametrize("cls, fields, defaults", RECORDS, ids=[c.__name__ for c, _, _ in RECORDS])


def _fields_of(rec, fields: dict) -> dict:
    return {name: getattr(rec, name) for name in fields}


@_by_class
def test_positional_and_keyword_construction_and_defaults(cls, fields, defaults):
    assert _fields_of(cls(*fields.values()), fields) == fields
    assert _fields_of(cls(**fields), fields) == fields
    required = {k: v for k, v in fields.items() if k not in defaults}
    assert _fields_of(cls(**required), defaults) == defaults
    assert _fields_of(cls(*required.values()), defaults) == defaults


@_by_class
def test_equal_records_are_equal_and_hash_equal(cls, fields, defaults):
    a, b = cls(*fields.values()), cls(**fields)
    assert a == b and not a != b
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1


@_by_class
def test_assignment_and_deletion_raise_attribute_error(cls, fields, defaults):
    rec = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(rec, name, value)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.not_a_field = 1
    assert _fields_of(rec, fields) == fields


@_by_class
def test_pickle_round_trip(cls, fields, defaults):
    rec = cls(**fields)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(rec, protocol))
        assert type(back) is cls
        assert back == rec
        assert _fields_of(back, fields) == fields


@_by_class
def test_repr_names_every_field(cls, fields, defaults):
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(cls(**fields)) == f"{cls.__name__}({shown})"


# --- the records that check their fields -------------------------------------------

@pytest.mark.parametrize("name", ["omega_hat", "z", "a"])
@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
def test_mode_params_rejects_a_nonpositive_parameter(name, bad):
    good = {"omega_hat": 1.0, "z": 1.0, "a": 1.0, "omega": 0.5}
    with pytest.raises(ValueError) as err:
        ModeParams(**{**good, name: bad})
    assert str(err.value) == f"{name} must be positive"
    # _replace builds through the constructor, so it checks too
    with pytest.raises(ValueError) as err:
        ModeParams(**good)._replace(**{name: bad})
    assert str(err.value) == f"{name} must be positive"


def _antisymmetric_but(mu, nu, value):
    rows = [[0] * 4 for _ in range(4)]
    rows[mu][nu] = value
    return rows


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: CanonicalTwist({(0, 0): 1}), "bad component index (0,0)"),
        (lambda: CanonicalTwist({(0, 4): 1}), "bad component index (0,4)"),
        (lambda: CanonicalTwist([[0] * 4] * 3), "matrix must be 4x4"),
        (lambda: CanonicalTwist(_antisymmetric_but(0, 1, 1)), "matrix must be antisymmetric"),
        (lambda: LieTwist(1, (0, 0, 1), 0, 1), "zeta must have four components"),
        (lambda: LieTwist(1, (0, 0, 1, 0), 1, 1), "generator indices must be distinct chart indices"),
        (lambda: LieTwist(1, (0, 0, 1, 0), 0, 4), "generator indices must be distinct chart indices"),
        (lambda: LieTwist(1, (1, 0, 0, 0), 0, 1), "zeta must vanish on the generator pair, got zeta[0] != 0"),
        (lambda: QuadraticTwist(1, (0, 1, 2, 2)), "indices must be four pairwise-distinct chart indices"),
        (lambda: QuadraticTwist(1, (0, 1, 2)), "indices must be four pairwise-distinct chart indices"),
        (lambda: QuadraticTwist(1, (0, 1, 2, 4)), "indices must be four pairwise-distinct chart indices"),
        (
            lambda: LieTwist(1, (0, 0, 1, 0), 0, 1)._replace(alpha=2),
            "zeta must vanish on the generator pair, got zeta[2] != 0",
        ),
        (
            lambda: QuadraticTwist(1, (0, 1, 2, 3))._replace(indices=(0, 0, 1, 2)),
            "indices must be four pairwise-distinct chart indices",
        ),
    ],
)
def test_twist_specs_raise_twist_spec_error(build, message):
    with pytest.raises(TwistSpecError) as err:
        build()
    assert str(err.value) == message


def test_twist_specs_normalize_their_fields():
    lie = LieTwist(1, (0, 0, "2/3", 0), 0, 1)
    assert lie.inv_kappa == 1 and type(lie.inv_kappa) is Fraction
    assert lie.zeta == (0, 0, Fraction(2, 3), 0) and all(type(v) is Fraction for v in lie.zeta)
    scaled = lie._replace(inv_kappa=3)
    assert type(scaled.inv_kappa) is Fraction and scaled.zeta == lie.zeta
    quad = QuadraticTwist("1/6", ["0", "1", "2", "3"])
    assert quad == QuadraticTwist(Fraction(1, 6), (0, 1, 2, 3))
    assert CanonicalTwist({(0, 1): 1}).theta[1][0] == -1


# --- import cost -------------------------------------------------------------------

def test_cli_import_loads_no_dataclasses_numpy_or_click():
    # a fresh interpreter, since other test modules have imported these here
    script = (
        "import sys\n"
        "import starwedge.cli\n"
        "print(sorted(m for m in ('dataclasses', 'numpy', 'click') if m in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"
