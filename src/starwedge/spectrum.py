"""Thermal spectrum of a massless plane wave seen by an accelerated observer.

A right-moving positive-frequency mode, written in the proper time tau and
radial coordinate z of an observer with acceleration a, has the Fourier
amplitude

    f(omega) = int dtau exp(i omega_hat z e^{-a tau}) e^{i omega tau}
             = (1/a) (omega_hat z)^{i omega/a} Gamma(-i omega/a) e^{pi omega / 2a},

where the phase power and (-i)^... branch follow the principal logarithm
with -i = e^{-i pi/2}.  The detected power at negative frequency is Planckian:

    omega |f(-omega)|^2 = (2 pi / a) / (e^{2 pi omega / a} - 1),

a thermal spectrum at temperature T = a / 2 pi.

Both amplitudes are f = (1/a) J_0 in the family of mode integrals J_p(s, w)
of ``quadrature``, s = omega/a, w = omega_hat z: ``mode_closed`` takes J_p by one
gamma evaluation and the recursion J_{k+1} = ((s + i k) / w) J_k, and
``mode_quadrature`` by the real-axis oracle.

The constant-deformation correction enters through the single parameter
``theta01`` (the time-radial component with both indices lowered by the
(-,+,+,+) metric; the raised component is -theta01).  At first order the
amplitude gains sum coefficient (1/a) J_p over the table ``correction_terms``,
and the detected spectrum deviates from the Planck form by the relative
amount -2 theta01 omega / (pi T z^2).  That first-order result holds while
the deviation stays within |deviation| <= 0.1; ``compute_spectrum`` returns
the grid frequencies past that bound as data, in
``SpectrumResult.bound_breaches``.
"""

from __future__ import annotations

import cmath
import math
from numbers import Real
from typing import Callable, NamedTuple

from .gammafn import GammaPoleError, complex_gamma
from .quadrature import QuadratureResult, _shared_de_sums, mode_integral

__all__ = [
    "ModeParams",
    "theta01_from_engine",
    "hawking_temperature",
    "planck_power",
    "f_closed",
    "f_quadrature",
    "mode_closed",
    "mode_quadrature",
    "correction_terms",
    "deformed_f_theta",
    "DeformedPowerPoint",
    "deformed_power",
    "SpectrumRow",
    "SpectrumResult",
    "GridFrequencyError",
]


class _ModeFields(NamedTuple):
    omega_hat: float
    z: float
    a: float
    omega: float


class ModeParams(_ModeFields):
    """Mode and observer parameters: flat frequency, radial position, acceleration."""

    __slots__ = ()

    def __new__(cls, omega_hat: float, z: float, a: float, omega: float) -> "ModeParams":
        if not omega_hat > 0:
            raise ValueError("omega_hat must be positive")
        if not z > 0:
            raise ValueError("z must be positive")
        if not a > 0:
            raise ValueError("a must be positive")
        return super().__new__(cls, omega_hat, z, a, omega)

    # _replace builds its result through _make: make it through the constructor, which checks the fields
    _make = classmethod(lambda cls, fields: cls(*fields))


def theta01_from_engine(theta01: Real) -> Real:
    """The spectrum's lowered ``theta01`` for an engine twist with parameter ``theta01``.

    The engine's twist operators are normalized by -i/2, so that flat
    coordinate commutators equal i*theta (``twists.WEDGE_NORMALIZATION``).
    The correction exponent of this module is four times the engine's, and
    ``theta01`` here lowers both indices, which flips the sign.  Exact for
    ``Fraction`` input.
    """
    return -theta01 / 4


def hawking_temperature(a: float) -> float:
    """Temperature of the detected thermal spectrum, a / (2 pi), natural units."""
    if not a > 0:
        raise ValueError("acceleration must be positive")
    return a / (2.0 * math.pi)


def planck_power(a: float, omega: float) -> float:
    """(2 pi / a) / (e^{2 pi omega / a} - 1), the thermal closed form.

    Written as (2 pi / a) e^{-x} / (-expm1(-x)), x = 2 pi omega / a, so that
    it underflows to 0.0 at large omega / a instead of overflowing.
    """
    x = 2.0 * math.pi * omega / a
    return (2.0 * math.pi / a) * math.exp(-x) / -math.expm1(-x)


def f_closed(m: ModeParams) -> complex:
    """Closed-form Fourier amplitude of the mode in observer proper time.

    The overall sign is fixed by the defining integral itself (the quadrature
    route converges to this value); the phase factor has unit modulus, so
    every power formula is independent of omega_hat * z.  An omega / a or an
    omega_hat * z that underflows to 0 raises OverflowError.
    """
    s = m.omega / m.a
    if s == 0.0:
        if m.omega != 0.0:
            raise OverflowError(f"omega / a underflows to 0 at a = {m.a!r}")
        raise GammaPoleError("amplitude has a gamma pole at omega = 0")
    wz = m.omega_hat * m.z
    if wz == 0.0:
        raise OverflowError(f"omega_hat * z underflows to 0 at omega_hat = {m.omega_hat!r}, z = {m.z!r}")
    phase = cmath.exp(1j * s * math.log(wz))
    return (1.0 / m.a) * phase * complex_gamma(-1j * s) * math.exp(math.pi * s / 2.0)


def _gamma_ratio(m: ModeParams, p: int) -> complex:
    """J_p / J_0 by Gamma(y + 1) = y Gamma(y): the product of (s + i k) / w over k < p."""
    s, w = m.omega / m.a, m.omega_hat * m.z
    return math.prod((s + 1j * k) / w for k in range(p))


def mode_closed(m: ModeParams, p: int) -> complex:
    """(1/a) J_p(omega/a, omega_hat z) in closed form: one gamma evaluation, f_closed(m) = J_0 / a."""
    return f_closed(m) * _gamma_ratio(m, p)


def mode_quadrature(m: ModeParams, p: int, *, panel_factor: int = 1, rtol: float = 1e-7) -> QuadratureResult:
    """(1/a) J_p(omega/a, omega_hat z) by real-axis quadrature, independent of the gamma function."""
    res = mode_integral(m.omega / m.a, m.omega_hat * m.z, power_shift=p, panel_factor=panel_factor, rtol=rtol)
    return res._replace(value=res.value / m.a)


def f_quadrature(m: ModeParams, *, panel_factor: int = 1, rtol: float = 1e-7) -> QuadratureResult:
    """Fourier amplitude by real-axis quadrature: the numerical oracle for :func:`f_closed`."""
    return mode_quadrature(m, 0, panel_factor=panel_factor, rtol=rtol)


def correction_terms(m: ModeParams, theta01: Real) -> tuple[tuple[int, complex], ...]:
    """The first-order amplitude correction f + sum coefficient (1/a) J_p as ``((p, coefficient), ...)``.

    The wave term 2 i theta^{01} omega omega_hat / (a z) and the argument term
    -2 theta^{01} omega_hat / z, both on J_1, with theta^{01} = -theta01: the
    one statement of the coefficients.  The factor i comes last, so for
    ``Fraction`` input each coefficient is its exact value rounded once.
    """
    theta_upper = -theta01
    return (
        (1, 1j * (2 * theta_upper * m.omega * m.omega_hat / (m.a * m.z))),
        (1, -2 * theta_upper * m.omega_hat / m.z),
    )


def _correction(m: ModeParams, theta01: float, mode: Callable[[int], complex]) -> complex:
    """Sum of coefficient * mode(p) over the correction terms, each distinct mode(p) taken once."""
    terms = correction_terms(m, theta01)
    js = {p: mode(p) for p in {p for p, _ in terms}}
    return sum(coefficient * js[p] for p, coefficient in terms)


def _first_order_power(omega: float, amplitude: complex, correction: complex) -> tuple[float, float]:
    """omega |f|^2 and omega |f + correction|^2 to first order, omega |f|^2 (1 + 2 Re c), c = correction / f."""
    power = omega * abs(amplitude) ** 2
    return power, power * (1.0 + 2.0 * (correction / amplitude).real)


def deformed_f_theta(m: ModeParams, theta01: float) -> complex:
    """Corrected Fourier amplitude at first order in theta01, in closed form."""
    f = f_closed(m)
    return f + _correction(m, theta01, lambda p: f * _gamma_ratio(m, p))


def relative_deviation_closed(m: ModeParams, theta01: float) -> float:
    """-2 theta01 omega / (pi T z^2): the closed-form spectral deviation.

    Raises OverflowError when pi T z^2 underflows to zero (a tiny ``a`` or ``z``).
    """
    scale = math.pi * hawking_temperature(m.a) * m.z**2
    if scale == 0.0:
        raise OverflowError(f"pi T z^2 underflows to 0 at a = {m.a!r}, z = {m.z!r}")
    return -2.0 * theta01 * m.omega / scale


LINEAR_REGIME_BOUND = 0.1


class DeformedPowerPoint(NamedTuple):
    """One frequency's detected spectrum omega * P(-omega), from ``amplitude`` f(-omega).

    ``power`` is omega |f(-omega)|^2 and must equal ``planck``.  The first-order
    corrected power comes two ways: ``closed_form`` is planck (1 + deviation),
    ``via_amplitude`` squares the corrected amplitude and drops the quadratic term.
    """

    amplitude: complex
    power: float
    planck: float
    deviation: float
    closed_form: float
    via_amplitude: float

    @property
    def linear_bound_exceeded(self) -> bool:
        """Whether the point is past the first-order regime bound, |deviation| > 0.1."""
        return abs(self.deviation) > LINEAR_REGIME_BOUND


def deformed_power(m: ModeParams, theta01: float) -> DeformedPowerPoint:
    """The detected spectrum at ``m.omega`` > 0 and its first-order correction.

    The one closed-form evaluation of a frequency: f(-omega) is computed once.
    A positive ``theta01`` suppresses the power.  Raises OverflowError where
    pi T z^2, omega / a or omega_hat * z underflows to zero.
    """
    if not m.omega > 0:
        raise ValueError("omega must be positive for the detected spectrum")
    dev = relative_deviation_closed(m, theta01)
    neg = m._replace(omega=-m.omega)
    amplitude = f_closed(neg)
    power, via_amplitude = _first_order_power(
        m.omega, amplitude, _correction(neg, theta01, lambda p: amplitude * _gamma_ratio(neg, p))
    )
    planck = planck_power(m.a, m.omega)
    return DeformedPowerPoint(
        amplitude=amplitude, power=power, planck=planck, deviation=dev,
        closed_form=planck * (1.0 + dev), via_amplitude=via_amplitude,
    )


# --- grid evaluation and export ------------------------------------------------

METHODS = ("closed-form", "quadrature", "both")


class SpectrumRow(NamedTuple):
    omega: float
    f_value: complex
    power: float
    power_deformed: float
    method: str
    converged: bool = True

    @property
    def eps(self) -> float | None:
        """The exports' ``eps`` column: 0.0 on quadrature rows, None on closed-form rows.

        No amplitude is damped; the column is kept so the file formats stay as they are.
        """
        return 0.0 if self.method == "quadrature" else None


class SpectrumResult(NamedTuple):
    """Grid of detected-spectrum values with their provenance.

    Per row: the amplitude f(-omega), the detected power omega * |f(-omega)|^2,
    its first-order deformed counterpart, and whether the amplitude came from
    the closed form or from the quadrature oracle.  ``eps`` is a column kept
    in the exports, 0.0 on quadrature rows and None on closed-form rows; no
    amplitude is damped.  ``bound_breaches`` lists each grid frequency whose
    deviation is past the first-order bound, once per grid point in grid
    order; the exports do not carry it.
    """

    a: float
    omega_hat: float
    z: float
    theta01: float
    rows: tuple[SpectrumRow, ...]
    bound_breaches: tuple[float, ...] = ()

    @property
    def all_converged(self) -> bool:
        return all(r.converged for r in self.rows)

    def to_csv(self) -> str:
        lines = ["omega,re_f,im_f,power,power_deformed,method,eps"]
        for r in self.rows:
            eps = "" if r.eps is None else repr(r.eps)
            lines.append(
                f"{r.omega!r},{r.f_value.real!r},{r.f_value.imag!r},"
                f"{r.power!r},{r.power_deformed!r},{r.method},{eps}"
            )
        return "\n".join(lines) + "\n"

    def to_json_dict(self, *, seed: int | None = None, tolerances: dict | None = None) -> dict:
        return {
            "parameters": {
                "a": self.a,
                "omega_hat": self.omega_hat,
                "z": self.z,
                "theta01": self.theta01,
                "temperature": hawking_temperature(self.a),
            },
            "seed": seed,
            "tolerances": tolerances or {},
            "rows": [
                {
                    "omega": r.omega,
                    "re_f": r.f_value.real,
                    "im_f": r.f_value.imag,
                    "power": r.power,
                    "power_deformed": r.power_deformed,
                    "method": r.method,
                    "eps": r.eps,
                    "converged": r.converged,
                }
                for r in self.rows
            ],
        }


class GridFrequencyError(OverflowError):
    """A grid frequency whose spectrum point is out of range; the message names omega."""


@_shared_de_sums()
def compute_spectrum(
    omegas: "list[float]",
    *,
    a: float,
    omega_hat: float,
    z: float,
    theta01: float = 0.0,
    method: str = "closed-form",
    panel_factor: int = 1,
    rtol: float = 1e-7,
) -> SpectrumResult:
    """Evaluate the detected spectrum over a grid of positive frequencies.

    Each grid frequency is one :func:`deformed_power` point, which the
    closed-form row reads; the quadrature row squares its own J_0 and
    correction the same way, its J_1 from the DE sums J_0 took, shared per call.
    ``method`` is one of ``METHODS``; quadrature rows report the convergence of
    their amplitude (and ``eps`` 0.0).  Every grid frequency past the
    first-order bound is listed in ``bound_breaches``, whatever the method.
    A point whose closed form or quadrature raises ArithmeticError or ValueError
    (an overflow, a math domain error), or whose closed form is not finite,
    raises GridFrequencyError naming its omega.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    rows: list[SpectrumRow] = []
    breaches: list[float] = []
    for omega in omegas:
        if not omega > 0:
            raise ValueError("grid frequencies must be positive")
        m = ModeParams(omega_hat=omega_hat, z=z, a=a, omega=omega)
        neg = m._replace(omega=-omega)
        try:
            dp = deformed_power(m, theta01)
            if not (math.isfinite(dp.closed_form) and math.isfinite(dp.via_amplitude)):
                # a subnormal omega / a: Gamma(i omega / a) is inf, the power inf or nan
                raise OverflowError("the closed form is not finite")
            if method in ("quadrature", "both"):
                res = f_quadrature(neg, panel_factor=panel_factor, rtol=rtol)
                correction = _correction(
                    neg, theta01,
                    lambda p: mode_quadrature(neg, p, panel_factor=panel_factor, rtol=rtol).value,
                )
        except (ArithmeticError, ValueError) as err:
            raise GridFrequencyError(
                f"grid frequency omega = {omega!r} (omega / a = {omega / a:.6g}) is out of range: {err}"
            ) from err
        if dp.linear_bound_exceeded:
            breaches.append(omega)
        if method in ("closed-form", "both"):
            rows.append(SpectrumRow(omega, dp.amplitude, dp.power, dp.via_amplitude, "closed-form"))
        if method in ("quadrature", "both"):
            power, power_deformed = _first_order_power(omega, res.value, correction)
            rows.append(SpectrumRow(omega, res.value, power, power_deformed, "quadrature", res.converged))
    return SpectrumResult(
        a=a, omega_hat=omega_hat, z=z, theta01=theta01, rows=tuple(rows), bound_breaches=tuple(breaches)
    )
