import json
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from starwedge import spectrum
from starwedge.config import dump_json
from starwedge.diffop import RINDLER
from starwedge.expr import I, equality_probe, exp, mul, sym
from starwedge.gammafn import GammaPoleError, complex_gamma
from starwedge.spectrum import (
    METHODS,
    ModeParams,
    compute_spectrum,
    correction_integral_closed,
    correction_integral_quadrature,
    deformed_correction_quadrature,
    deformed_f_theta,
    deformed_power,
    f_closed,
    f_quadrature,
    hawking_temperature,
    planck_power,
    relative_deviation_closed,
)
from starwedge.twists import CanonicalTwist, build_linear_twist


def _mode(omega: float, a: float = 1.0, wz: float = 1.0) -> ModeParams:
    return ModeParams(omega_hat=wz, z=1.0, a=a, omega=omega)


# --- temperature -----------------------------------------------------------------

def test_temperature_examples():
    assert hawking_temperature(2.0 * math.pi) == pytest.approx(1.0, rel=1e-15)
    assert hawking_temperature(1.0) == pytest.approx(0.1591549431, rel=1e-9)
    assert hawking_temperature(2.0) == pytest.approx(2.0 * hawking_temperature(1.0))
    with pytest.raises(ValueError):
        hawking_temperature(0.0)


# --- closed-form amplitude ----------------------------------------------------------

def test_amplitude_modulus_is_phase_independent():
    mods = [abs(f_closed(_mode(1.0, wz=wz))) for wz in (0.5, 1.0, 3.0)]
    assert mods[0] == pytest.approx(mods[1], rel=1e-14)
    assert mods[1] == pytest.approx(mods[2], rel=1e-14)


def test_amplitude_modulus_squared_closed_value():
    # combine the gamma modulus identity with the exponential factor
    got = abs(f_closed(_mode(1.0))) ** 2
    want = (math.pi / math.sinh(math.pi)) * math.exp(math.pi)
    assert got == pytest.approx(want, rel=1e-13)
    # the prefactor scales as 1/a^2
    got2 = abs(f_closed(ModeParams(1.0, 1.0, 2.0, 2.0))) ** 2
    assert got2 == pytest.approx(want / 4.0, rel=1e-13)


def test_amplitude_pole_at_zero_frequency():
    with pytest.raises(GammaPoleError):
        f_closed(_mode(0.0))


def test_mode_params_validation():
    for bad in (
        dict(omega_hat=0.0, z=1.0, a=1.0, omega=1.0),
        dict(omega_hat=1.0, z=-1.0, a=1.0, omega=1.0),
        dict(omega_hat=1.0, z=1.0, a=0.0, omega=1.0),
    ):
        with pytest.raises(ValueError):
            ModeParams(**bad)


# --- detected power -------------------------------------------------------------------

def test_power_equals_planck_factor_at_unit_temperature():
    m = _mode(1.0, a=2.0 * math.pi)
    p = deformed_power(m, 0.0)
    assert p.planck == pytest.approx(1.0 / (math.e - 1.0), rel=1e-14)
    assert p.planck == pytest.approx(0.5819767069, rel=1e-9)
    assert p.power == pytest.approx(p.planck, rel=1e-12)


def test_planck_power_underflows_instead_of_overflowing():
    # e^(2 pi omega / a) overflows a double past omega / a of about 113
    for ratio in (0.01, 1.0, 50.0, 110.0):
        x = 2.0 * math.pi * ratio
        assert planck_power(1.0, ratio) == pytest.approx(2.0 * math.pi / math.expm1(x), rel=1e-14)
    assert planck_power(1.0, 120.0) == 0.0
    assert planck_power(2.0, 1e6) == 0.0


def test_power_equivalence_on_grid_and_phase_independence():
    for y in np.geomspace(0.1, 5.0, 20):
        for wz in (0.5, 1.0, 3.0):
            p = deformed_power(_mode(float(y), wz=wz), 0.0)
            assert abs(p.power - p.planck) <= 1e-10 * p.planck


def test_power_boltzmann_tail():
    assert deformed_power(_mode(80.0), 0.0).planck < 1e-200


def test_power_requires_positive_frequency():
    with pytest.raises(ValueError):
        deformed_power(_mode(-1.0), 0.0)


# --- quadrature oracle agreement ---------------------------------------------------------

@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_quadrature_matches_closed_amplitude(s):
    m = _mode(s)
    q = f_quadrature(m)
    c = f_closed(m)
    assert q.converged
    assert abs(q.value - c) <= 1e-6 * abs(c)


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_correction_integral_quadrature_oracle(s):
    m = _mode(s)
    q = correction_integral_quadrature(m)
    c = correction_integral_closed(m)
    assert abs(q.value - c) <= 1e-6 * abs(c)


def test_correction_integral_gamma_recursion():
    # the extra-damping integral equals (-i s / (wz)) ... f_closed via
    # Gamma(1 + y) = y Gamma(y); verify the exact ratio numerically
    m = _mode(1.3, wz=1.7)
    s = m.omega / m.a
    ratio = correction_integral_closed(m) / f_closed(m)
    want = (s / (m.omega_hat * m.z)) * 1.0  # |(-is) * i / (wz)| structure
    assert ratio == pytest.approx(want, rel=1e-12)


# --- deformation --------------------------------------------------------------------------

def test_zero_deformation_is_exact():
    m = _mode(1.0)
    assert deformed_f_theta(m, 0.0) == f_closed(m)


def test_deformed_deviation_closed_form():
    a = 2.0 * math.pi
    for th in (1e-4, -1e-4):
        for w in (0.5, 1.0, 2.0):
            m = _mode(w, a=a)
            dp = deformed_power(m, th)
            dev = dp.closed_form / planck_power(a, w) - 1.0
            want = relative_deviation_closed(m, th)
            assert dev == pytest.approx(want, rel=1e-10)
            assert not dp.linear_bound_exceeded


def test_deformed_deviation_via_amplitude():
    a = 2.0 * math.pi
    for th in (1e-4, -1e-4):
        for w in (0.5, 1.0, 2.0):
            m = _mode(w, a=a)
            dp = deformed_power(m, th)
            base = deformed_power(m, 0.0).power
            dev = dp.via_amplitude / base - 1.0
            assert dev == pytest.approx(relative_deviation_closed(m, th), rel=1e-8)


def test_quadrature_assembled_correction_matches_bracket():
    # both correction terms carry the extra-damping-factor integral; their
    # weighted sum must reproduce the closed-form first-order bracket
    for s_val in (0.5, 1.0, 2.0):
        m = ModeParams(omega_hat=1.3, z=0.9, a=1.1, omega=1.1 * s_val)
        got = deformed_correction_quadrature(m, 1e-4)
        want = deformed_f_theta(m, 1e-4) - f_closed(m)
        assert abs(got - want) <= 1e-6 * abs(want)


def test_positive_theta_suppresses_positive_frequencies():
    m = _mode(1.0, a=2.0 * math.pi)
    dp = deformed_power(m, 1e-3)
    assert dp.closed_form < planck_power(m.a, m.omega)
    assert dp.via_amplitude < deformed_power(m, 0.0).power


def test_finite_difference_extraction_matches_slope():
    a = 2.0 * math.pi
    h = 1e-4
    for w in (0.5, 1.0, 2.0):
        m = _mode(w, a=a)
        neg = replace(m, omega=-w)
        base = w * abs(f_closed(neg)) ** 2

        def dev(th):
            return w * abs(deformed_f_theta(neg, th)) ** 2 / base - 1.0

        slope = (dev(h) - dev(-h)) / (2.0 * h)
        want = -2.0 * w / (math.pi * hawking_temperature(a))
        assert slope == pytest.approx(want, rel=1e-8)


def test_linear_regime_warning():
    # the bound is data only: filterwarnings = error fails the test on any warning
    m = _mode(10.0, a=1.0)
    dp = deformed_power(m, 0.5)
    assert dp.linear_bound_exceeded


# --- consistency with the twist engine -------------------------------------------------

def test_twist_action_reproduces_correction_integrands():
    """The operator route and the amplitude-correction coefficients agree.

    The engine twist is normalized so flat coordinate commutators equal
    i*theta; the correction coefficients in this module are expressed in the
    convention with a four-times-larger exponent, so the engine action equals
    the coefficient forms divided by four.
    """
    r = Fraction(3, 7)
    tw = build_linear_twist(CanonicalTwist({(0, 1): r}), RINDLER)
    z0, z1, a = sym("z0"), sym("z1"), sym("a")
    w_hat, w = sym("omega_hat"), sym("omega")
    phi = exp(I * w_hat * z1 * exp(-a * z0))
    psi = exp(I * w * z0)

    got_wave = tw.operator.apply(phi, psi)
    want_wave = mul(Fraction(1, 4), 2 * I * r * w * w_hat / (a * z1), exp(-a * z0), phi, psi)
    assert equality_probe(got_wave, want_wave, trials=24, tol=1e-9)

    got_arg = tw.operator.apply(I * w_hat * z1, exp(-a * z0))
    want_arg = mul(Fraction(1, 4), -2 * r * w_hat / z1, exp(-a * z0))
    assert equality_probe(got_arg, want_arg, trials=24, tol=1e-9)


# --- grid evaluation and export ----------------------------------------------------------

def test_compute_spectrum_closed_rows():
    res = compute_spectrum([0.5, 1.0], a=2.0 * math.pi, omega_hat=1.0, z=1.0)
    assert [r.omega for r in res.rows] == [0.5, 1.0]
    assert all(r.method == "closed-form" and r.eps is None for r in res.rows)
    assert res.rows[1].power == pytest.approx(1.0 / (math.e - 1.0), rel=1e-12)
    assert res.all_converged


def test_compute_spectrum_both_methods_tagged():
    res = compute_spectrum([1.0], a=1.0, omega_hat=1.0, z=1.0, method="both")
    methods = [r.method for r in res.rows]
    assert methods == ["closed-form", "quadrature"]
    assert res.rows[1].eps is not None
    assert res.all_converged
    assert abs(res.rows[0].power - res.rows[1].power) <= 1e-6 * res.rows[0].power


def test_compute_spectrum_readme_grid_converges_at_low_frequency():
    # the README config: a = 2 pi, omega_hat = z = 1, geom 0.25 5 20, method both
    omegas = list(np.geomspace(0.25, 5.0, 20))
    res = compute_spectrum(omegas, a=2.0 * math.pi, omega_hat=1.0, z=1.0, method="both")
    assert res.all_converged
    closed, quad = res.rows[0::2], res.rows[1::2]
    for c, q in zip(closed, quad):
        assert (c.method, q.method) == ("closed-form", "quadrature")
        assert abs(q.f_value - c.f_value) <= 1e-7 * abs(c.f_value)


def test_compute_spectrum_deformed_column():
    th = 1e-4
    res = compute_spectrum([0.5, 1.0, 2.0], a=2.0 * math.pi, omega_hat=1.0, z=1.0, theta01=th)
    for row in res.rows:
        dev = row.power_deformed / row.power - 1.0
        want = -2.0 * th * row.omega / (math.pi * 1.0 * 1.0)
        assert dev == pytest.approx(want, rel=1e-6)


def test_compute_spectrum_lists_bound_breaches_in_grid_order():
    # at T = 1 the deviation is -0.2 omega / pi for theta01 = 0.1: past 0.1 from omega = pi/2
    kw = dict(a=2.0 * math.pi, omega_hat=1.0, z=1.0, theta01=0.1)
    assert compute_spectrum([4.0, 0.5, 2.0, 1.0], **kw).bound_breaches == (4.0, 2.0)
    assert compute_spectrum([2.0, 1.0, 2.0], **kw).bound_breaches == (2.0, 2.0)
    assert compute_spectrum([0.5, 1.0], **kw).bound_breaches == ()
    assert compute_spectrum([2.0, 4.0], **{**kw, "theta01": 0.0}).bound_breaches == ()


@pytest.mark.parametrize("method", ["quadrature", "both"])
def test_compute_spectrum_lists_each_breaching_grid_point_once_whatever_the_method(method):
    res = compute_spectrum(
        [0.5, 2.0, 4.0], a=2.0 * math.pi, omega_hat=1.0, z=1.0, theta01=0.1, method=method
    )
    assert len(res.rows) == (3 if method == "quadrature" else 6)
    assert res.bound_breaches == (2.0, 4.0)


# the README [spectrum] config
_README = dict(a=6.283185307179586, omega_hat=1.0, z=1.0, theta01=1e-4)
_README_GRID = [0.5, 1.0, 2.0]


@pytest.mark.parametrize("method", METHODS)
def test_compute_spectrum_evaluates_the_gamma_function_once_per_grid_point(monkeypatch, method):
    # the closed-form row reads the one deformed_power point; the quadrature needs no gamma
    calls = []

    def counted(z):
        calls.append(z)
        return complex_gamma(z)

    monkeypatch.setattr(spectrum, "complex_gamma", counted)
    compute_spectrum(_README_GRID, **_README, method=method)
    assert len(calls) == len(_README_GRID)


def test_both_rows_are_the_closed_form_and_quadrature_rows_interleaved():
    rows = {method: compute_spectrum(_README_GRID, **_README, method=method).rows for method in METHODS}
    interleaved = tuple(r for pair in zip(rows["closed-form"], rows["quadrature"]) for r in pair)
    assert rows["both"] == interleaved


@pytest.mark.parametrize("theta01", [1e-4, 0.1])
def test_compute_spectrum_rows_read_the_deformed_power_point(theta01):
    res = compute_spectrum(_README_GRID, **{**_README, "theta01": theta01}, method="both")
    for closed, quad in zip(res.rows[0::2], res.rows[1::2]):
        m = ModeParams(omega_hat=1.0, z=1.0, a=_README["a"], omega=closed.omega)
        point = deformed_power(m, theta01)
        assert (closed.f_value, closed.power, closed.power_deformed) == (
            point.amplitude, point.power, point.via_amplitude
        )
        assert quad.power_deformed == quad.power * (1.0 + point.deviation)


def test_compute_spectrum_validation():
    with pytest.raises(ValueError):
        compute_spectrum([1.0], a=1.0, omega_hat=1.0, z=1.0, method="nonsense")
    with pytest.raises(ValueError):
        compute_spectrum([-1.0], a=1.0, omega_hat=1.0, z=1.0)


def test_csv_schema():
    res = compute_spectrum([1.0], a=1.0, omega_hat=1.0, z=1.0)
    lines = res.to_csv().strip().splitlines()
    assert lines[0] == "omega,re_f,im_f,power,power_deformed,method,eps"
    fields = lines[1].split(",")
    assert len(fields) == 7
    assert fields[5] == "closed-form" and fields[6] == ""
    assert float(fields[0]) == 1.0


def test_json_metadata():
    res = compute_spectrum([1.0], a=1.0, omega_hat=1.0, z=1.0, theta01=1e-5)
    payload = json.loads(dump_json(res.to_json_dict(seed=7, tolerances={"x": 1e-9})))
    assert payload["parameters"]["temperature"] == pytest.approx(1.0 / (2 * math.pi))
    assert payload["seed"] == 7
    assert payload["rows"][0]["method"] == "closed-form"
