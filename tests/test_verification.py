"""The contract of the invariant suite's runner: row names, order and tolerances."""

import json
import math
import random
from types import SimpleNamespace

import pytest

from starwedge import rindler, spectrum, verification
from starwedge.config import dump_json
from starwedge.verification import DEFAULT_TOLERANCES, report_dict, run_all_checks

FLAT_RELATIONS = ["flat_relations_canonical", "flat_relations_lie", "flat_relations_quadratic"]


@pytest.fixture(scope="module")
def default_rows():
    return run_all_checks(seed=1)


def test_rows_are_the_suite_names_with_the_flat_relations_after_classical_limits(default_rows):
    names = [name for name, _ in verification._CHECKS]
    cut = names.index("classical_limits") + 1
    assert [r.name for r in default_rows] == names[:cut] + FLAT_RELATIONS + names[cut:]


def test_each_row_carries_its_default_tolerance(default_rows):
    assert set(DEFAULT_TOLERANCES) <= {r.name for r in default_rows}
    for r in default_rows:
        assert r.tolerance == DEFAULT_TOLERANCES.get(r.name), r.name


def test_an_override_moves_only_its_own_row(default_rows):
    # a tolerance below the measured residual: the row must fail by it, not only report it
    rows = run_all_checks(seed=1, tolerances={"gamma_modulus_identity": 1e-16})
    moved = [(old, new) for old, new in zip(default_rows, rows) if old != new]
    assert [new.name for _, new in moved] == ["gamma_modulus_identity"]
    [(old, new)] = moved
    assert old.passed and not new.passed
    assert new.tolerance == 1e-16
    assert new.measured == old.measured > 1e-16


@pytest.mark.parametrize("name", ["star_unit", "flat_relations_lie", "no_such_check"])
def test_only_tolerance_names_can_be_overridden(name):
    with pytest.raises(ValueError, match="unknown tolerance names"):
        run_all_checks(tolerances={name: 1.0})


_inverse_map = rindler.inverse_map_numeric

# for each numeric check, a patch that makes one route return NaN
_NAN_ROUTES = {
    "quadrature_agreement": (verification, "f_quadrature", lambda m: SimpleNamespace(value=math.nan)),
    "deformed_deviation_closed": (
        verification,
        "deformed_power",
        lambda m, th: SimpleNamespace(closed_form=math.nan, via_amplitude=1.0),
    ),
    "deformed_deviation_finite_difference": (
        verification, "deformed_f_theta", lambda m, th: complex(math.nan)
    ),
    # only the last coordinate: a NaN among finite residuals must not drop out
    "geometry_roundtrip": (
        rindler, "inverse_map_numeric", lambda x, a: (*_inverse_map(x, a)[:3], math.nan)
    ),
}


@pytest.mark.parametrize("name", sorted(_NAN_ROUTES))
def test_a_nan_residual_fails_its_check_and_is_measured(monkeypatch, name):
    owner, attr, nan_route = _NAN_ROUTES[name]
    monkeypatch.setattr(owner, attr, nan_route)
    check = dict(verification._CHECKS)[name]
    passed, measured, _ = check(random.Random(1), DEFAULT_TOLERANCES[name])
    assert passed is False
    assert math.isnan(measured)


def _flipped_deviation(m, theta01):
    # spectrum.relative_deviation_closed with its sign flipped, T = a / (2 pi)
    return 2.0 * theta01 * m.omega / (math.pi * (m.a / (2.0 * math.pi)) * m.z**2)


def test_a_flipped_closed_form_deviation_fails_its_check(monkeypatch):
    # the paper's -2 theta01 omega/(pi T z^2) with its sign flipped, as an edit
    # of the source would flip it: every binding of the function sees the flip
    monkeypatch.setattr(spectrum.relative_deviation_closed, "__code__", _flipped_deviation.__code__)
    assert [r.name for r in run_all_checks(seed=1) if not r.passed] == ["deformed_deviation_closed"]
    monkeypatch.undo()
    assert all(r.passed for r in run_all_checks(seed=1))


def _reject_constant(token):
    raise ValueError(f"non-JSON constant {token}")


def test_a_non_finite_measured_value_is_null_in_strict_json(monkeypatch):
    owner, attr, nan_route = _NAN_ROUTES["quadrature_agreement"]
    monkeypatch.setattr(owner, attr, nan_route)
    rows = run_all_checks(seed=1)
    report = json.loads(dump_json(report_dict(1, rows)), parse_constant=_reject_constant)
    [row] = [c for c in report["checks"] if c["name"] == "quadrature_agreement"]
    assert row["passed"] is False and row["measured"] is None
    assert row["detail"].endswith("; measured = nan")
    assert report["all_passed"] is False
