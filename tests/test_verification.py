"""The contract of the invariant suite's runner: row names, order and tolerances."""

import json
import math
import random
from types import MappingProxyType, SimpleNamespace

import pytest

from starwedge import diffop, gammafn, quadrature, rindler, spectrum, starprod, twists, verification
from starwedge.config import dump_json
from starwedge.verification import DEFAULT_TOLERANCES, report_dict, run_all_checks
from test_cli_property import _reject_constant

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


def _scaled_planck_power(a, omega):
    # spectrum.planck_power scaled by 1 + 1e-9
    x = 2.0 * math.pi * omega / a
    return (1.0 + 1e-9) * (2.0 * math.pi / a) * math.exp(-x) / -math.expm1(-x)


def _correction_terms_theta_unraised(m, theta01):
    # spectrum.correction_terms with theta^{01} = theta01: the whole bracket's sign flipped
    theta_upper = theta01
    return (
        (1, 1j * (2 * theta_upper * m.omega / (m.a * m.z**2))),
        (1, -2 * theta_upper / m.z**2),
    )


def _theta01_unflipped(theta01):
    # spectrum.theta01_from_engine without its sign flip
    return theta01 / 4


def _correction_terms_argument_plus(m, theta01):
    # spectrum.correction_terms with the argument term's sign flipped
    theta_upper = -theta01
    return (
        (1, 1j * (2 * theta_upper * m.omega / (m.a * m.z**2))),
        (1, 2 * theta_upper / m.z**2),
    )


def _correction_terms_wave_minus(m, theta01):
    # spectrum.correction_terms with the wave term's sign flipped
    theta_upper = -theta01
    return (
        (1, -1j * (2 * theta_upper * m.omega / (m.a * m.z**2))),
        (1, -2 * theta_upper / m.z**2),
    )


def _first_order_power_minus(omega, amplitude, correction):
    # spectrum._first_order_power with 1 - 2 Re c: the deviation sign of every row
    power = omega * abs(amplitude) ** 2
    return power, power * (1.0 - 2.0 * (correction / amplitude).real)


# entries of the mutant catalogue: a one-line defect of the source, as the
# attribute it sets, and the checks it must fail at seed 1, in report order.  A
# function's defect swaps its code, as an edit of the source would change it,
# so every binding of the function sees it.
_MUTANTS = {
    "deviation_sign": (
        spectrum.relative_deviation_closed, "__code__", _flipped_deviation.__code__, ["deformed_deviation_closed"]
    ),
    "planck_scaled": (
        spectrum.planck_power, "__code__", _scaled_planck_power.__code__, ["planck_equivalence"]
    ),
    "bracket_sign": (
        spectrum.correction_terms,
        "__code__",
        _correction_terms_theta_unraised.__code__,
        [
            "twist_spectrum_integrand_consistency",
            "deformed_deviation_closed",
            "deformed_deviation_finite_difference",
        ],
    ),
    "theta01_from_engine_sign": (
        spectrum.theta01_from_engine, "__code__", _theta01_unflipped.__code__,
        ["twist_spectrum_integrand_consistency"],
    ),
    "argument_term_sign": (
        spectrum.correction_terms,
        "__code__",
        _correction_terms_argument_plus.__code__,
        [
            "twist_spectrum_integrand_consistency",
            "deformed_deviation_closed",
            "deformed_deviation_finite_difference",
        ],
    ),
    # the power reads only Re c, so only the tie to the engine sees the wave term
    "wave_term_sign": (
        spectrum.correction_terms, "__code__", _correction_terms_wave_minus.__code__,
        ["twist_spectrum_integrand_consistency"],
    ),
    # both row kinds square their corrected amplitude in the one _first_order_power
    "quadrature_row_deviation_sign": (
        spectrum._first_order_power, "__code__", _first_order_power_minus.__code__,
        ["deformed_deviation_closed"],
    ),
    "lanczos_g_shifted": (
        gammafn, "_LANCZOS_G", gammafn._LANCZOS_G + 1e-9, ["gamma_modulus_identity", "planck_equivalence"]
    ),
    "wedge_normalization_sign": (
        twists,
        "WEDGE_NORMALIZATION",
        -twists.WEDGE_NORMALIZATION,
        [
            "flat_relations_canonical",
            "flat_relations_lie",
            "flat_relations_quadratic",
            "rindler_canonical_structural",
            "twist_spectrum_integrand_consistency",
        ],
    ),
    "standard_map_sign": (
        rindler,
        "STANDARD_MAP",
        MappingProxyType({**rindler.STANDARD_MAP, "x0": -rindler.STANDARD_MAP["x0"]}),
        ["rindler_canonical_structural", "twist_spectrum_integrand_consistency", "geometry_roundtrip"],
    ),
}


def _clear_caches():
    """Drop what the generators and the chart transport built from the constants."""
    for cached in (diffop.momentum_generator, diffop.lorentz_generator, rindler._jacobian, rindler.partial_transport):
        cached.cache_clear()


@pytest.mark.parametrize("mutant", list(_MUTANTS))
def test_a_catalogued_defect_fails_exactly_its_checks(monkeypatch, mutant):
    owner, attr, defect, failing = _MUTANTS[mutant]
    monkeypatch.setattr(owner, attr, defect)
    _clear_caches()
    try:
        assert [r.name for r in run_all_checks(seed=1) if not r.passed] == failing
    finally:
        monkeypatch.undo()
        _clear_caches()
    assert all(r.passed for r in run_all_checks(seed=1))


def test_a_non_finite_measured_value_is_null_in_strict_json(monkeypatch):
    owner, attr, nan_route = _NAN_ROUTES["quadrature_agreement"]
    monkeypatch.setattr(owner, attr, nan_route)
    rows = run_all_checks(seed=1)
    report = json.loads(dump_json(report_dict(1, rows)), parse_constant=_reject_constant)
    [row] = [c for c in report["checks"] if c["name"] == "quadrature_agreement"]
    assert row["passed"] is False and row["measured"] is None
    assert row["detail"].endswith("; measured = nan")
    assert report["all_passed"] is False


def _count_de_sums(monkeypatch):
    """A counter of the DE sums evaluated: each evaluation, and no shared one, reads its rule."""
    calls = [0]
    rule = quadrature._de_rule

    def counting(m):
        calls[0] += 1
        return rule(m)

    monkeypatch.setattr(quadrature, "_de_rule", counting)
    return calls


def test_a_verify_run_takes_each_distinct_de_sum_once(monkeypatch):
    # the oracle checks ask for 42 sums, 14 of them distinct
    calls = _count_de_sums(monkeypatch)
    run_all_checks(seed=1)
    assert calls[0] == 14
    run_all_checks(seed=1)
    assert calls[0] == 28
    assert quadrature._memo is None


@pytest.mark.parametrize("method", ["quadrature", "both"])
def test_a_spectrum_keeps_no_de_sum_across_calls(monkeypatch, method):
    # the README grid and parameters; each quadrature point takes its sums at M and 2M
    # for J_0 by parts, and the correction's J_1 reuses them
    calls = _count_de_sums(monkeypatch)
    grid = [0.5, 1.0, 2.0]
    for n in (1, 2):
        spectrum.compute_spectrum(
            grid, a=2.0 * math.pi, omega_hat=1.0, z=1.0, theta01=1e-4, method=method
        )
        assert calls[0] == n * 2 * len(grid)


def test_a_nested_shared_block_reuses_the_outer_sums_and_leaves_them(monkeypatch):
    calls = _count_de_sums(monkeypatch)
    with quadrature._shared_de_sums():
        quadrature.mode_integral(1.0)
        outer = quadrature._memo
        with quadrature._shared_de_sums():
            assert quadrature._memo is outer
            quadrature.mode_integral(1.0, power_shift=1)  # the same c = 1 - i
        assert quadrature._memo is outer and len(outer) == 2
        with pytest.raises(RuntimeError, match="inner"), quadrature._shared_de_sums():
            raise RuntimeError("inner")
        assert quadrature._memo is outer
        quadrature.mode_integral(1.0)
    assert calls[0] == 2
    assert quadrature._memo is None


def test_the_shared_de_sums_are_dropped_when_a_check_raises(monkeypatch):
    def failing(rng, tol):
        assert quadrature._memo
        raise RuntimeError("check failed")

    names = [name for name, _ in verification._CHECKS]
    upto = names.index("quadrature_agreement") + 1
    monkeypatch.setattr(verification, "_CHECKS", [*verification._CHECKS[:upto], ("failing", failing)])
    with pytest.raises(RuntimeError, match="check failed"):
        run_all_checks(seed=1)
    assert quadrature._memo is None


# --- the sample twists and their kept matrices live for one run ------------------------

def test_a_verify_run_builds_each_operator_matrix_at_most_once(monkeypatch):
    # the checks share the six sample twists, and each operator keeps its
    # C and C - C^t: a run builds 26 of the one and 16 of the other
    built = {"_matrix": [], "_commutator": []}

    def counted(build, slot):
        def first_use_counted(op):
            if not hasattr(op, slot):
                built[slot].append(op)
            return build(op)

        return first_use_counted

    coefficient_matrix = counted(diffop._coefficient_matrix, "_matrix")
    for module in (diffop, starprod):
        monkeypatch.setattr(module, "_coefficient_matrix", coefficient_matrix)
    monkeypatch.setattr(starprod, "_commutator_matrix", counted(starprod._commutator_matrix, "_commutator"))
    assert all(r.passed for r in run_all_checks(seed=1))
    for slot, n in (("_matrix", 26), ("_commutator", 16)):
        assert len(built[slot]) == n
        assert len({id(op) for op in built[slot]}) == n


def test_each_verify_run_builds_its_own_sample_twists(monkeypatch):
    # 17 twists of the checks' own and the six sample twists per run, so
    # nothing built in one run outlives it
    built = []
    original = verification.build_linear_twist

    def counted(spec, chart):
        built.append(spec)
        return original(spec, chart)

    monkeypatch.setattr(verification, "build_linear_twist", counted)
    run_all_checks(seed=1)
    assert len(built) == 23
    run_all_checks(seed=1)
    assert len(built) == 46
    assert verification._kept_twists is None
    # outside a run each call builds afresh
    assert verification._sample_twists(diffop.RINDLER)[0] is not verification._sample_twists(diffop.RINDLER)[0]
    assert len(built) == 52


def test_the_sample_twists_are_dropped_when_a_check_raises(monkeypatch):
    def failing(rng, tol):
        assert verification._kept_twists
        raise RuntimeError("check failed")

    names = [name for name, _ in verification._CHECKS]
    upto = names.index("star_unit") + 1
    monkeypatch.setattr(verification, "_CHECKS", [*verification._CHECKS[:upto], ("failing", failing)])
    with pytest.raises(RuntimeError, match="check failed"):
        run_all_checks(seed=1)
    assert verification._kept_twists is None
