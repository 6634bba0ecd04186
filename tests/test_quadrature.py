import math

import numpy as np
import pytest
from scipy.special import gamma as scipy_gamma

from starwedge.quadrature import damped_mode_integral, mode_integral

_LONGDOUBLE_IS_DOUBLE = np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps


def test_damped_integral_rejects_bad_inputs():
    with pytest.raises(ValueError):
        damped_mode_integral(1.0, -1.0)
    with pytest.raises(ValueError):
        mode_integral(1.0, 0.0)


def test_extrapolated_value_against_limit_form():
    # Gamma(-is) (w)^{is} e^{pi s/2} for p = 0
    for s in (0.5, 1.0, 2.0):
        w = 1.0
        res = mode_integral(s, w, power_shift=0)
        want = complex(scipy_gamma(-1j * s)) * math.exp(math.pi * s / 2.0)
        assert abs(res.value - want) <= 1e-8 * abs(want)
        assert res.converged
        assert res.error_estimate <= 1e-5 * abs(want)


def test_error_estimate_shrinks_with_panel_doubling():
    # the refinement residual |J(M) - J(2M)| is the rule's error; it must not
    # grow under doubling of M (it bottoms out at the floor)
    ests = [damped_mode_integral(1.0, 1.0, panel_factor=pf)[1] for pf in (1, 2, 4)]
    assert ests[1] <= ests[0]
    assert ests[2] <= ests[1]
    full = [mode_integral(1.0, 1.0, panel_factor=pf).error_estimate for pf in (1, 2)]
    assert full[1] <= full[0] * (1.0 + 1e-9)


def test_nonconvergence_is_reported_not_raised():
    res = mode_integral(1.0, 1.0, rtol=1e-15)
    assert not res.converged
    assert res.error_estimate > 0


@pytest.mark.parametrize("p", [0, 1])
@pytest.mark.parametrize("s", [-4.0, -0.04, 0.5, 2.0, 20.0])
@pytest.mark.parametrize("w", [1.0, 10.0, 100.0])
def test_mode_integral_matches_gamma_form(p, s, w):
    # Gamma(p - is) (-iw)^{-(p - is)}, at low frequency,
    # at large w = omega_hat * z and at large positive s alike
    res = mode_integral(s, w, power_shift=p)
    c = p - 1j * s
    want = complex(scipy_gamma(c)) * (-1j * w) ** (-c)
    assert res.converged
    assert abs(res.value - want) <= 1e-7 * abs(want)


@pytest.mark.skipif(_LONGDOUBLE_IS_DOUBLE, reason="np.longdouble is plain double on this platform")
@pytest.mark.parametrize(
    "s",
    # the far-field grid's top row moves over [-4.08, -3.92]; then a dense
    # grid over [-4.1, -3.9]
    [-4.08, -4.0, -3.92, -4.1, -4.075, -4.05, -4.025, -3.975, -3.95, -3.925, -3.9],
)
def test_negative_frequency_error_is_not_roundoff(s):
    # J_0(s, 1) is about e^(-pi |s|) smaller than its integrand here, so
    # rounding in the rule's terms is amplified by about 3e5; in extended
    # precision the error stays at a few 1e-12
    res = mode_integral(s, 1.0)
    want = complex(scipy_gamma(-1j * s)) * math.exp(math.pi * s / 2.0)
    assert res.converged
    assert abs(res.value - want) <= 2e-11 * abs(want)


def test_plain_mode_integral_diverges_at_zero_frequency():
    with pytest.raises(ValueError, match="diverges at s = 0"):
        mode_integral(0.0, 1.0)
    # with one extra power of u the integral is finite there: i / w
    res = mode_integral(0.0, 2.0, power_shift=1)
    assert res.converged
    assert abs(res.value - 0.5j) <= 1e-7 * 0.5


def test_negative_frequency_integral():
    # the mode at negative frequency is what the detected spectrum uses
    s = -1.0
    res = mode_integral(s, 1.0)
    want = complex(scipy_gamma(-1j * s)) * math.exp(math.pi * s / 2.0)
    assert abs(res.value - want) <= 1e-8 * abs(want)
