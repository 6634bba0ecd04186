"""Damped numerical evaluation of the conditionally convergent mode integrals.

The object of interest is

    J_p(s, w) = int_0^inf u^(p - i s - 1) exp(i w u) du,      s = omega/a, w = omega_hat * z,

reached from the proper-time integral by the substitution u = exp(-a tau).
Two exact identities on this real-axis integral reduce every call to one
integral at w = 1 with p >= 1, without the gamma function:

    rescaling                u -> u / w:   J_p(s, w) = w^(-(p - i s)) J_p(s, 1)
    integration by parts     (p = 0):      J_0(s, w) = (w / s) J_1(s, w)

Rescaling makes the cost independent of w.  Integration by parts removes the
conditional convergence at u = 0; the damped J_0 below has a pole at h = i s,
only |s| away from the extrapolation point h = 0 at low frequency, while the
damped J_1 has no singularity closer than distance 1.  J_0 diverges at s = 0,
where mode_integral raises ValueError.  What is extrapolated is the doubly damped

    J_p(s, 1; h) = int_0^inf u^(p + h - i s - 1) exp((i - h) u) du,

which converges absolutely for h > 0 and is analytic in h around 0; the
damping is removed by polynomial (Richardson/Neville) extrapolation over a
geometric ladder h_k = h0 / 2^k.

Each damped integral is evaluated on the real axis by the double-exponential
(DE) rule of Ooura and Mori for Fourier integrals (J. Comput. Appl. Math. 38
(1991) 353-360; the robust map of 112 (1999) 229-241).  With x = w u,

    x = M phi(t),   phi(t) = t / (1 - e^(-v)),   v = 2 t + alpha (1 - e^(-t)) + beta (e^t - 1),

beta = 1/4 and alpha = beta / sqrt(1 + M ln(1 + M) / (4 pi)), the cos part of
e^(ix) is sampled at t = (n - 1/2) pi / M and the sin part at t = n pi / M,
with weights pi phi'(t).  The nodes approach the zeros of cos and sin, and
phi' vanishes, double exponentially, so one node set covers (0, inf) with no
panels and no cut of the range; it depends on M alone and is cached.
M = 64 panel_factor with the 64 doubled while under 8 s, up to 4096, since
u^(-i s) turns at the rate |s| / u (for s < 0 rounding limits |s| to about 5).
The per-level estimate max(|J(M) - J(2M)|, _TAIL_TOL) is exactly that floor
once the rule has converged to roundoff, so it does not grow under doubling.

Rounding.  For s < 0 the value J_1(s, 1) is of order e^(-pi |s|), while the
terms of the rule are of order one, so every rounding error in them is
amplified by about e^(pi |s|) relative to the result; at |s| = 4 that is 3e5.
So everything runs in extended precision (np.longdouble), s >= 0 included
(in double the refinement residual at s = 1 grew under doubling of M), and:

- the node t = 0, where phi(0) = 1 / (2 + alpha + beta), is kept (dropping it
  gives O(1) errors) and evaluated from the limits of phi and phi';
- the trig factor is (-1)^n sin(x e^(-v)): x - M t = x e^(-v), and M t is a
  multiple of pi (sin part) or an odd multiple of pi / 2 (cos part), with pi
  in extended precision; sin or cos of the rounded x would lose ulp(x);
- phi' = e^(-v) N / (1 - e^(-v))^2 has an O(t^2) numerator, written without
  cancellation as N = (expm1(v) - v) + alpha e^(-t) (expm1(t) - t) + beta (expm1(t) - t e^t);
- for p = 0 the rule would meet u^(c - 1) singular at u = 0, so the damped
  integral is taken by parts, J(c) = ((h - i w) / c) J(c + 1).

At |s| = 4 this leaves at most about 2.5e-12 of J per damping level, under the
extrapolation error of about 2e-10 (smooth in s); in plain double, up to 7e-9.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["QuadratureResult", "damped_mode_integral", "mode_integral"]

# floor of the per-level error estimate
_TAIL_TOL = 1e-14
_PI = np.longdouble("3.14159265358979323846264338327950288")
_BETA = np.longdouble(0.25)


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    error_estimate: float
    converged: bool
    eps0: float
    levels: int
    panel_factor: int


@lru_cache(maxsize=8)
def _de_rule(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes x, their logarithms and the complex weights of the DE rule with mesh pi / m.

    sum_k f(x_k) weights_k approximates int_0^inf f(x) e^(ix) dx (real weights
    at the cos nodes, imaginary at the sin nodes).  Beyond the kept range of t,
    [-ln(64 / alpha), ln 256], the weights are below 1e-28.
    """
    alpha = _BETA / np.sqrt(1 + m * np.log1p(np.longdouble(m)) / (4 * _PI))
    lo, hi = -math.log(64 / float(alpha)), math.log(256)
    n = np.arange(math.floor(lo * m / math.pi), math.ceil(hi * m / math.pi) + 1)
    nodes, weights = [], []
    # the cos part at t = (n - 1/2) pi / m, the sin part at t = n pi / m
    for shift, unit in ((0.5, 1), (0.0, 1j)):
        t = (n - shift) * _PI / m
        et, emt = np.exp(t), np.exp(-t)
        v = 2 * t + alpha * (1 - emt) + _BETA * (et - 1)
        with np.errstate(invalid="ignore"):
            x = m * t / -np.expm1(-v)
            num = np.expm1(v) - v + alpha * emt * (np.expm1(t) - t)
            num += _BETA * (np.expm1(t) - t * et)
            dphi = np.exp(-v) * num / np.expm1(-v) ** 2
        # the limits of phi and phi' at t = 0
        zero = t == 0
        x[zero] = m / (2 + alpha + _BETA)
        dphi[zero] = 0.5 + (alpha - _BETA) / (2 * (2 + alpha + _BETA) ** 2)
        nodes.append(x)
        weights.append(unit * _PI * dphi * (-1.0) ** n * np.sin(x * np.exp(-v)))
    x = np.concatenate(nodes)
    return x, np.log(x), np.concatenate(weights)


def _de_sum(c: complex, rate: float, m: int):
    """The DE rule with mesh pi / m for int_0^inf x^(c - 1) e^(-rate x) e^(ix) dx."""
    x, log_x, weights = _de_rule(m)
    cm1 = np.clongdouble(c - 1)
    return np.sum(np.exp(cm1 * log_x - np.longdouble(rate) * x) * weights)


def damped_mode_integral(
    s: float, w: float, h: float, power_shift: int = 0, panel_factor: int = 1
) -> tuple[complex, float]:
    """One damped integral J_p(s, w; h) and a refinement-based error estimate.

    ``power_shift`` is the extra power p of u in the integrand (0 for the
    plain mode amplitude, 1 when an extra exp(-a tau) factor is present).
    With c = p + h - i s and x = w u the integral is w^(-c) times the DE rule
    for int_0^inf x^(c - 1) e^(-(h / w) x) e^(ix) dx; for p = 0 it is first
    taken by parts, J(c) = ((h - i w) / c) J(c + 1).  The value is J(2M) and
    the estimate max(|J(M) - J(2M)|, _TAIL_TOL), with M set by s and
    ``panel_factor`` as the module docstring says.
    """
    if h <= 0:
        raise ValueError("damping must be positive")
    if w <= 0:
        raise ValueError("w = omega_hat * z must be positive")
    c = power_shift + h - 1j * s
    scale = 1.0
    if power_shift == 0:
        scale = (h - 1j * w) / c
        c += 1
    scale *= cmath.exp(-c * math.log(w))
    # M >= 8 s resolves u^(-i s); see the module docstring
    m = 64
    while m < min(8 * s, 4096):
        m *= 2
    m *= panel_factor
    coarse, fine = (complex(scale * _de_sum(c, h / w, k)) for k in (m, 2 * m))
    return fine, max(abs(fine - coarse), _TAIL_TOL)


def _neville_to_zero(hs: list[float], vals: list[complex]) -> tuple[complex, float]:
    """Polynomial extrapolation of vals(h) to h = 0 with a tableau residual.

    After the sweep, t[k] holds the degree-k extrapolant through the first
    k+1 nodes; the residual is the gap between the last two diagonal entries.
    """
    t = list(vals)
    n = len(t)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            t[i] = t[i] + (t[i] - t[i - 1]) * hs[i] / (hs[i - j] - hs[i])
    return t[-1], abs(t[-1] - t[-2])


def default_eps0(s: float) -> float:
    """Starting damping min(0.25, 0.8/|s|) of the extrapolated J_q(s, 1; h).

    The damped integral, Gamma(q + h - i s) (h - i)^(-(q + h - i s)) for
    q >= 1, varies in h at a rate of about |s| (the second factor contains
    e^(-s h)), so the extrapolation error and the tableau residual grow with
    |s| h0.  Roundoff in the damped integral at the smallest damping grows as
    h0 falls and, relative to the value, like e^(pi |s|).  At |s| h0 = 0.8
    the residual stays below 8e-8, under rtol = 1e-7, out to |s| of about 5,
    and at |s| near 4 the error (about 2e-10) comes from the extrapolation,
    which changes smoothly with s, not from roundoff, which does not: at
    |s| h0 = 0.5 roundoff set it and it ranged over more than a decade
    between neighbouring s.  At small |s| the cap 0.25 keeps h0 well inside the
    radius 1 of the expansion in h, set by the branch point h = i.
    """
    return 0.25 if s == 0 else min(0.25, 0.8 / abs(s))


def mode_integral(
    s: float,
    w: float,
    *,
    power_shift: int = 0,
    eps0: float | None = None,
    levels: int = 7,
    panel_factor: int = 1,
    rtol: float = 1e-7,
) -> QuadratureResult:
    """Extrapolated J_p(s, w) with an error estimate.

    The integral extrapolated in the damping is J_q(s, 1), with q = p, or
    q = 1 after integration by parts when p = 0; its value and estimate are
    then multiplied by the same exact factor w^(-(p - i s)), divided by s
    when p = 0.  The estimate is the extrapolation-tableau residual plus the
    worst per-level estimate of ``damped_mode_integral`` (the larger of the
    rule's refinement residual and the floor _TAIL_TOL); ``converged``
    reports whether it met ``rtol`` relative to the value.  Non-convergence
    is reported, never raised, so callers can flag partial results.  J_0
    diverges at s = 0, which raises ValueError.
    """
    if levels < 2:
        raise ValueError("need at least two damping levels to extrapolate")
    if w <= 0:
        raise ValueError("w = omega_hat * z must be positive")
    p = power_shift
    if p == 0 and s == 0:
        raise ValueError("J_0(s, w) diverges at s = 0 (gamma pole of the amplitude)")
    h0 = default_eps0(s) if eps0 is None else float(eps0)
    if h0 <= 0:
        raise ValueError("damping must be positive")
    # rescaling J_p(s, w) = w^(-(p - i s)) J_p(s, 1), and for p = 0 integration
    # by parts J_0(s, w) = (w/s) J_1(s, w)
    scale = cmath.exp(-(p - 1j * s) * math.log(w))
    if p == 0:
        scale /= s
    hs = [h0 * 2.0 ** (-k) for k in range(levels)]
    vals: list[complex] = []
    worst_level = 0.0
    for h in hs:
        v, est = damped_mode_integral(s, 1.0, h, p or 1, panel_factor)
        vals.append(v)
        worst_level = max(worst_level, est)
    value, tableau_resid = _neville_to_zero(hs, vals)
    value *= scale
    estimate = (tableau_resid + worst_level) * abs(scale)
    floor = 1e-15 * (1.0 + abs(value))
    estimate = max(estimate, floor)
    converged = estimate <= rtol * max(abs(value), 1e-300)
    return QuadratureResult(
        value=value,
        error_estimate=estimate,
        converged=converged,
        eps0=h0,
        levels=levels,
        panel_factor=panel_factor,
    )
