import math

import mpmath
import numpy as np
import pytest

from starwedge.gammafn import GammaPoleError, complex_gamma, gamma_modulus_sq_imag_axis


def _reference_gamma(s: complex) -> complex:
    """Gamma at 30 digits, rounded to a double; the global precision is left alone."""
    with mpmath.workdps(30):
        return complex(mpmath.gamma(s))


def test_gamma_one():
    assert complex_gamma(1.0) == pytest.approx(1.0, rel=1e-14)


def test_gamma_half_is_sqrt_pi():
    assert complex_gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    assert complex_gamma(0.5) == pytest.approx(1.7724538509, rel=1e-10)


def test_gamma_factorials():
    for n in range(1, 12):
        assert complex_gamma(float(n)) == pytest.approx(math.factorial(n - 1), rel=1e-13)


def test_gamma_recursion():
    for s in (0.3 + 2.0j, -1.4 + 0.7j, 3.2 - 5.0j):
        assert complex_gamma(s + 1) == pytest.approx(s * complex_gamma(s), rel=1e-12)


def test_modulus_identity_single_point():
    # |Gamma(i)|^2 = pi / sinh(pi)
    got = abs(complex_gamma(1j)) ** 2
    assert got == pytest.approx(math.pi / math.sinh(math.pi), rel=1e-13)
    assert got == pytest.approx(0.2720290550, rel=1e-9)


def test_modulus_identity_on_log_grid():
    for y in np.geomspace(0.1, 5.0, 20):
        lhs = abs(complex_gamma(1j * float(y))) ** 2
        rhs = gamma_modulus_sq_imag_axis(float(y))
        assert abs(lhs - rhs) <= 1e-12 * rhs


def test_against_mpmath_on_strip():
    for re in (-6.3, -2.1, -0.4, 0.2, 1.0, 3.7, 9.5):
        for im in (-49.0, -7.3, -0.5, 0.0, 0.5, 7.3, 49.0):
            s = complex(re, im)
            if im == 0.0 and re <= 0 and re == int(re):
                continue
            got = complex_gamma(s)
            want = _reference_gamma(s)
            assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("pole", [0.0, -1.0, -2.0, -17.0])
def test_poles_raise(pole):
    with pytest.raises(GammaPoleError):
        complex_gamma(pole)
    assert complex_gamma(pole + 1e-9j) != 0  # nearby points evaluate


def test_modulus_identity_pole_guard():
    with pytest.raises(GammaPoleError):
        gamma_modulus_sq_imag_axis(0.0)
