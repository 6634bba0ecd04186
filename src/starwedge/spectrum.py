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

The constant-deformation correction enters through the single parameter
``theta01`` (the time-radial component with both indices lowered by the
(-,+,+,+) metric; the raised component is -theta01).  At first order the
amplitude picks up the factor

    1 - (2 theta01 omega / (a z^2)) (i omega/a - 1),

and the detected spectrum deviates from the Planck form by the relative
amount -2 theta01 omega / (pi T z^2).  That first-order result holds while
the deviation stays within |deviation| <= 0.1; ``compute_spectrum`` returns
the grid frequencies past that bound as data, in
``SpectrumResult.bound_breaches``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from numbers import Real

from .gammafn import GammaPoleError, complex_gamma
from .quadrature import QuadratureResult, mode_integral

__all__ = [
    "ModeParams",
    "theta01_from_engine",
    "hawking_temperature",
    "planck_power",
    "f_closed",
    "f_quadrature",
    "correction_integral_closed",
    "correction_integral_quadrature",
    "deformed_f_theta",
    "deformed_correction_quadrature",
    "DeformedPowerPoint",
    "deformed_power",
    "SpectrumRow",
    "SpectrumResult",
]


@dataclass(frozen=True)
class ModeParams:
    """Mode and observer parameters: flat frequency, radial position, acceleration."""

    omega_hat: float
    z: float
    a: float
    omega: float

    def __post_init__(self) -> None:
        if not self.omega_hat > 0:
            raise ValueError("omega_hat must be positive")
        if not self.z > 0:
            raise ValueError("z must be positive")
        if not self.a > 0:
            raise ValueError("a must be positive")


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
    every power formula is independent of omega_hat * z; an omega_hat * z
    that underflows to 0 raises OverflowError.
    """
    s = m.omega / m.a
    if s == 0.0:
        raise GammaPoleError("amplitude has a gamma pole at omega = 0")
    wz = m.omega_hat * m.z
    if wz == 0.0:
        raise OverflowError(f"omega_hat * z underflows to 0 at omega_hat = {m.omega_hat!r}, z = {m.z!r}")
    phase = cmath.exp(1j * s * math.log(wz))
    return (1.0 / m.a) * phase * complex_gamma(-1j * s) * math.exp(math.pi * s / 2.0)


def _mode_quadrature(
    m: ModeParams, power_shift: int, panel_factor: int = 1, rtol: float = 1e-7
) -> QuadratureResult:
    """(1/a) J_p(omega/a, omega_hat z) by real-axis quadrature, p = ``power_shift``."""
    res = mode_integral(
        m.omega / m.a, m.omega_hat * m.z,
        power_shift=power_shift, panel_factor=panel_factor, rtol=rtol,
    )
    return replace(res, value=res.value / m.a)


def f_quadrature(
    m: ModeParams,
    *,
    panel_factor: int = 1,
    rtol: float = 1e-7,
) -> QuadratureResult:
    """Fourier amplitude by real-axis quadrature of the mode integral.

    Independent of :func:`f_closed` and of the gamma function; this is the
    numerical oracle for the closed form.
    """
    return _mode_quadrature(m, 0, panel_factor, rtol)


def correction_integral_closed(m: ModeParams) -> complex:
    """Closed form of the mode integral carrying one extra e^{-a tau} factor.

    Equals (1/a) Gamma(1 - i omega/a) (-i omega_hat z)^{-(1 - i omega/a)} by
    the one-step recursion Gamma(y + 1) = y Gamma(y) applied to the amplitude.
    """
    s = m.omega / m.a
    wz = m.omega_hat * m.z
    # principal branch: (-i wz)^(-(1 - i s)) = e^{-(1 - i s)(ln wz - i pi/2)}
    expo = -(1.0 - 1j * s) * (math.log(wz) - 1j * math.pi / 2.0)
    return (1.0 / m.a) * complex_gamma(1.0 - 1j * s) * cmath.exp(expo)


def correction_integral_quadrature(m: ModeParams) -> QuadratureResult:
    """Quadrature oracle for :func:`correction_integral_closed`."""
    return _mode_quadrature(m, 1)


def _bracket(m: ModeParams, theta01: float) -> complex:
    """First-order amplitude factor 1 - (2 theta01 omega/(a z^2))(i omega/a - 1)."""
    s = m.omega / m.a
    return 1.0 - (2.0 * theta01 * m.omega / (m.a * m.z**2)) * (1j * s - 1.0)


def deformed_f_theta(m: ModeParams, theta01: float) -> complex:
    """Corrected Fourier amplitude at first order in theta01."""
    return f_closed(m) * _bracket(m, theta01)


def deformed_correction_quadrature(m: ModeParams, theta01: float) -> complex:
    """First-order amplitude correction assembled from its two mode integrals.

    Both correction terms carry the integral with one extra e^{-a tau} factor,
    here evaluated by quadrature rather than by the gamma recursion:

        (2 i theta^{01} omega omega_hat / (a z)) J  -  (2 theta^{01} omega_hat / z) J,

    with the raised component theta^{01} = -theta01.  Cross-checks
    deformed_f_theta(m, theta01) - f_closed(m).
    """
    theta_upper = -theta01
    j = correction_integral_quadrature(m).value
    wave_term = (2.0j * theta_upper * m.omega * m.omega_hat / (m.a * m.z)) * j
    argument_term = -(2.0 * theta_upper * m.omega_hat / m.z) * j
    return wave_term + argument_term


def relative_deviation_closed(m: ModeParams, theta01: float) -> float:
    """-2 theta01 omega / (pi T z^2): the closed-form spectral deviation.

    Raises OverflowError when pi T z^2 underflows to zero (a tiny ``a`` or ``z``).
    """
    scale = math.pi * hawking_temperature(m.a) * m.z**2
    if scale == 0.0:
        raise OverflowError(f"pi T z^2 underflows to 0 at a = {m.a!r}, z = {m.z!r}")
    return -2.0 * theta01 * m.omega / scale


LINEAR_REGIME_BOUND = 0.1


@dataclass(frozen=True)
class DeformedPowerPoint:
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
    pi T z^2 or omega_hat * z underflows to zero.
    """
    if not m.omega > 0:
        raise ValueError("omega must be positive for the detected spectrum")
    dev = relative_deviation_closed(m, theta01)
    neg = replace(m, omega=-m.omega)
    amplitude = f_closed(neg)
    power = m.omega * abs(amplitude) ** 2
    planck = planck_power(m.a, m.omega)
    # |f (1 + c)|^2 truncated at first order: |f|^2 (1 + 2 Re c)
    c = _bracket(neg, theta01) - 1.0
    return DeformedPowerPoint(
        amplitude=amplitude, power=power, planck=planck, deviation=dev,
        closed_form=planck * (1.0 + dev), via_amplitude=power * (1.0 + 2.0 * c.real),
    )


# --- grid evaluation and export ------------------------------------------------

METHODS = ("closed-form", "quadrature", "both")


@dataclass(frozen=True)
class SpectrumRow:
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


@dataclass(frozen=True)
class SpectrumResult:
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

    Each grid frequency is one :func:`deformed_power` point: the closed-form
    row reads it, and the quadrature row scales the oracle's power by
    (1 + its deviation).  ``method`` is one of ``METHODS``; quadrature rows
    report convergence per point (and ``eps`` 0.0).  Every grid frequency past
    the first-order bound is listed in ``bound_breaches``, whatever the method.
    A closed form or a quadrature that overflows, or a closed form that is not
    finite, raises OverflowError naming its omega.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    rows: list[SpectrumRow] = []
    breaches: list[float] = []
    for omega in omegas:
        if not omega > 0:
            raise ValueError("grid frequencies must be positive")
        m = ModeParams(omega_hat=omega_hat, z=z, a=a, omega=omega)
        try:
            dp = deformed_power(m, theta01)
            if not (math.isfinite(dp.closed_form) and math.isfinite(dp.via_amplitude)):
                # a subnormal omega / a: Gamma(i omega / a) is inf, the power inf or nan
                raise OverflowError("the closed form is not finite")
            if method in ("quadrature", "both"):
                res = f_quadrature(replace(m, omega=-omega), panel_factor=panel_factor, rtol=rtol)
        except OverflowError as err:
            raise OverflowError(
                f"omega = {omega!r} (omega / a = {omega / a:.6g}) is out of range: {err}"
            ) from err
        if dp.linear_bound_exceeded:
            breaches.append(omega)
        if method in ("closed-form", "both"):
            rows.append(
                SpectrumRow(
                    omega=omega,
                    f_value=dp.amplitude,
                    power=dp.power,
                    power_deformed=dp.via_amplitude,
                    method="closed-form",
                )
            )
        if method in ("quadrature", "both"):
            power = omega * abs(res.value) ** 2
            rows.append(
                SpectrumRow(
                    omega=omega,
                    f_value=res.value,
                    power=power,
                    power_deformed=power * (1.0 + dp.deviation),
                    method="quadrature",
                    converged=res.converged,
                )
            )
    return SpectrumResult(
        a=a, omega_hat=omega_hat, z=z, theta01=theta01, rows=tuple(rows), bound_breaches=tuple(breaches)
    )
