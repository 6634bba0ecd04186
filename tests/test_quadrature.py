import math
import random

import mpmath
import numpy as np
import pytest

from starwedge import quadrature, spectrum
from starwedge.config import _parse_grid
from starwedge.quadrature import damped_mode_integral, mode_integral

_LONGDOUBLE_IS_DOUBLE = np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps


def _reference_gamma(s: complex) -> complex:
    """Gamma at 30 digits, rounded to a double; the global precision is left alone."""
    with mpmath.workdps(30):
        return complex(mpmath.gamma(s))


def test_damped_integral_rejects_bad_inputs():
    # the integrals read no w = omega_hat * z; the one bad input left is the pole I_0(0)
    with pytest.raises(ValueError):
        damped_mode_integral(0.0)
    with pytest.raises(ValueError):
        mode_integral(0.0)


def test_extrapolated_value_against_limit_form():
    # Gamma(-is) e^{pi s/2} for p = 0
    for s in (0.5, 1.0, 2.0):
        res = mode_integral(s, power_shift=0)
        want = _reference_gamma(-1j * s) * math.exp(math.pi * s / 2.0)
        assert abs(res.value - want) <= 1e-8 * abs(want)
        assert res.converged
        assert res.error_estimate <= 1e-5 * abs(want)


def test_error_estimate_shrinks_with_panel_doubling():
    # the refinement residual |J(M) - J(2M)| is the rule's error; it must not
    # grow under doubling of M (it bottoms out at the floor)
    ests = [damped_mode_integral(1.0, panel_factor=pf)[1] for pf in (1, 2, 4)]
    assert ests[1] <= ests[0]
    assert ests[2] <= ests[1]
    full = [mode_integral(1.0, panel_factor=pf).error_estimate for pf in (1, 2)]
    assert full[1] <= full[0] * (1.0 + 1e-9)


def test_nonconvergence_is_reported_not_raised():
    res = mode_integral(1.0, rtol=1e-15)
    assert not res.converged
    assert res.error_estimate > 0


@pytest.mark.parametrize("p", [0, 1])
@pytest.mark.parametrize("s", [-4.0, -0.04, 0.5, 2.0, 20.0])
@pytest.mark.parametrize("w", [1.0, 10.0, 100.0])
def test_mode_integral_matches_gamma_form(p, s, w):
    # J_p(s, w) = w^(is - p) I_p(s) is Gamma(p - is) (-iw)^{-(p - is)}, at low
    # frequency, at large w = omega_hat * z and at large positive s alike
    res = mode_integral(s, power_shift=p)
    c = p - 1j * s
    want = _reference_gamma(c) * (-1j * w) ** (-c)
    assert res.converged
    assert abs(w ** (1j * s - p) * res.value - want) <= 1e-7 * abs(want)


@pytest.mark.skipif(_LONGDOUBLE_IS_DOUBLE, reason="np.longdouble is plain double on this platform")
@pytest.mark.parametrize(
    "s",
    # the far-field grid's top row moves over [-4.08, -3.92]; then a dense
    # grid over [-4.1, -3.9]
    [-4.08, -4.0, -3.92, -4.1, -4.075, -4.05, -4.025, -3.975, -3.95, -3.925, -3.9],
)
def test_negative_frequency_error_is_not_roundoff(s):
    # I_0(s) is about e^(-pi |s|) smaller than its integrand here, so
    # rounding in the rule's terms is amplified by about 3e5; in extended
    # precision the error stays at a few 1e-12
    res = mode_integral(s)
    want = _reference_gamma(-1j * s) * math.exp(math.pi * s / 2.0)
    assert res.converged
    assert abs(res.value - want) <= 2e-11 * abs(want)


def test_plain_mode_integral_diverges_at_zero_frequency():
    with pytest.raises(ValueError, match="diverges at s = 0"):
        mode_integral(0.0)
    # with one extra power of u the integral is finite there: i
    res = mode_integral(0.0, power_shift=1)
    assert res.converged
    assert abs(res.value - 1j) <= 1e-7


def test_negative_frequency_integral():
    # the mode at negative frequency is what the detected spectrum uses
    s = -1.0
    res = mode_integral(s)
    want = _reference_gamma(-1j * s) * math.exp(math.pi * s / 2.0)
    assert abs(res.value - want) <= 1e-8 * abs(want)


# --- the walk up the meshes ---------------------------------------------------------

def _fixed_mesh(s: float, panel_factor: int) -> int:
    """M of the fixed pair: 64 doubled while under 8 s, up to 4096, times ``panel_factor``."""
    m = 64
    while m < min(8 * s, 4096):
        m *= 2
    return m * panel_factor


def _fixed_pair(s: float, power_shift: int = 0, panel_factor: int = 1) -> tuple[complex, float]:
    """The rule without the walk: the sums at M and 2M, the value I(2M) and the estimate
    max(|I(M) - I(2M)|, _TAIL_TOL)."""
    c = power_shift - 1j * s
    scale = 1.0
    if power_shift == 0:
        scale = -1j / c
        c += 1
    m = _fixed_mesh(s, panel_factor)
    coarse, fine = (complex(scale * quadrature._de_sum(c, k)) for k in (m, 2 * m))
    return fine, max(abs(fine - coarse), quadrature._TAIL_TOL)


def _limit_form(s: float, power_shift: int) -> complex:
    """I_p(s) = Gamma(c) e^(i pi c / 2), c = p - i s, at 30 digits."""
    with mpmath.workdps(30):
        c = mpmath.mpc(power_shift, -s)
        return complex(mpmath.gamma(c) * mpmath.exp(1j * mpmath.pi * c / 2))


_RNG = random.Random(7)
# a seeded grid over [-6, 40], with its low end, where the fixed pair has not met the
# floor, the far-field row s = -4 and the resolution limits s = 4 and 8
_WALK_S = sorted([_RNG.uniform(-6.0, 40.0) for _ in range(14)] + [-6.0, -5.0, -4.0, 4.0, 8.0])


@pytest.fixture
def meshes(monkeypatch):
    """The meshes of the DE sums evaluated, in order, recorded from ``_de_rule``."""
    seen = []
    rule = quadrature._de_rule

    def recording(m):
        seen.append(m)
        return rule(m)

    monkeypatch.setattr(quadrature, "_de_rule", recording)
    return seen


@pytest.mark.parametrize("panel_factor", [1, 2, 4])
@pytest.mark.parametrize("p", [0, 1])
def test_the_walk_doubles_the_mesh_and_stops_at_the_fixed_pair(meshes, p, panel_factor):
    for s in _WALK_S:
        meshes.clear()
        damped_mode_integral(s, p, panel_factor)
        m = _fixed_mesh(s, panel_factor)
        assert len(meshes) in (2, 3)
        assert all(b == 2 * a for a, b in zip(meshes, meshes[1:]))
        assert meshes[0] >= m // 2 and meshes[-1] <= 2 * m
        if m < 16 * s:
            # M / 2 would not resolve u^(-i s): the walk is the fixed pair
            assert meshes == [m, 2 * m]


@pytest.mark.parametrize("panel_factor", [1, 2, 4])
@pytest.mark.parametrize("p", [0, 1])
def test_the_walk_keeps_the_fixed_pairs_flags(monkeypatch, p, panel_factor):
    for s in _WALK_S:
        value, estimate = damped_mode_integral(s, p, panel_factor)
        ref_value, ref_estimate = _fixed_pair(s, p, panel_factor)
        assert estimate <= ref_estimate
        if estimate < ref_estimate or value != ref_value:
            # an early stop agrees to the floor
            assert estimate == quadrature._TAIL_TOL
        for rtol in (1e-7, 1e-10, 1e-13):
            walk = mode_integral(s, power_shift=p, panel_factor=panel_factor, rtol=rtol)
            with monkeypatch.context() as mp:
                mp.setattr(quadrature, "damped_mode_integral", _fixed_pair)
                ref = mode_integral(s, power_shift=p, panel_factor=panel_factor, rtol=rtol)
            assert walk.converged == ref.converged


@pytest.mark.skipif(_LONGDOUBLE_IS_DOUBLE, reason="np.longdouble is plain double on this platform")
@pytest.mark.parametrize("panel_factor", [1, 2, 4])
@pytest.mark.parametrize("p", [0, 1])
def test_the_walk_is_no_farther_from_the_limit_form(p, panel_factor):
    for s in _WALK_S:
        want = _limit_form(s, p)
        value, _ = damped_mode_integral(s, p, panel_factor)
        ref_value, _ = _fixed_pair(s, p, panel_factor)
        assert abs(value - want) <= max(2.0 * abs(ref_value - want), 1e-14)


def test_the_readme_grid_stops_at_the_lower_pair(meshes):
    grid = _parse_grid("geom 0.25 5 20")
    result = spectrum.compute_spectrum(
        grid, a=2.0 * math.pi, omega_hat=1.0, z=1.0, theta01=1e-4, method="quadrature"
    )
    assert len(result.rows) == len(grid)
    assert sorted(set(meshes)) == [32, 64]
    # the far-field grid's top row, s = -4, walks to the fixed pair and keeps its value
    for p in (0, 1):
        assert damped_mode_integral(-4.0, p) == _fixed_pair(-4.0, p)
