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
geometric ladder h_k = h0 / 2^k.  Each damped integral is split at u = 1:
the inner piece is integrated in v = ln u, where the endpoint singularity
flattens into a smooth exponential, and the outer piece directly in u; both
use composite 16-point Gauss-Legendre panels sized to the local oscillation.
The inner piece is cut at u = delta, and the dropped part,
delta^c / c (1 + O(delta)) with c = p + h - i s, is added back.
The per-level error estimate is the larger of the panel refinement residual
(coarse against doubled panels) and the tail-truncation floor _TAIL_TOL; once
the panels have converged to roundoff it is exactly that floor, so it does not
grow under panel doubling.

Rounding.  For s < 0 the value J_1(s, 1) is of order e^(-pi |s|), while the
damped integrand is of order one over a range of length 1/h, so every rounding
error in it is amplified by about e^(pi |s|) relative to the result; at |s| = 4
that is 3e5.  (For s >= 0 |J_1(s, 1)| grows like |s|^(1/2) and nothing is
amplified.)  The exponent phi(u) of the integrand reaches |s| ln u + h u of
about 50 at the far end, and rounding it in double precision left an error of
up to 3e-8 at |s| = 4 that jumped from one s to the next.  So each panel is
factored at its left edge x0 into exp(phi(x0)) exp(phi(x0 + t) - phi(x0)).
The second factor is evaluated in double from small arguments.  For s < 0 the
first factor and the sums are carried in extended precision (np.longdouble),
which brings that error to about 5e-11.  Where np.longdouble is plain double
it is about 3e-9 at |s| = 4, and again changes from one s to the next.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["QuadratureResult", "damped_mode_integral", "mode_integral"]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_TAIL_TOL = 1e-14


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    error_estimate: float
    converged: bool
    eps0: float
    levels: int
    panel_factor: int


def _panels(edge, step, lo: float, hi: float, n: int, real: type) -> complex:
    """Composite Gauss-Legendre integral of f over n equal panels of [lo, hi].

    Each panel is factored at its left edge x0 as f(x0 + t) = edge(x0) *
    exp(step(x0, t)): ``edge`` gets the edges as the floating type ``real``,
    ``step`` gets the edges and the node offsets t in double, and the sums
    are accumulated in ``real``.
    """
    edges = np.linspace(lo, hi, n + 1)
    left = edges[:-1]
    halves = 0.5 * (edges[1:] - left)
    t = halves[:, None] * (1.0 + _GL_NODES[None, :])
    steps = np.exp(step(left[:, None], t)).astype(np.result_type(real, 1j), copy=False)
    sums = np.einsum("ij,j->i", steps, _GL_WEIGHTS.astype(real, copy=False)) * halves
    return complex(np.sum(edge(left.astype(real, copy=False)) * sums))


def damped_mode_integral(
    s: float, w: float, h: float, power_shift: int = 0, panel_factor: int = 1
) -> tuple[complex, float]:
    """One damped integral J_p(s, w; h) and a refinement-based error estimate.

    ``power_shift`` is the extra power p of u in the integrand (0 for the
    plain mode amplitude, 1 when an extra exp(-a tau) factor is present).
    The estimate is max(|fine - coarse|, _TAIL_TOL): the residual between
    ``panel_factor`` and twice as many panels, floored at the bound on the
    dropped tails.  The floor depends on neither the panel count nor the
    value, so once the panel error reaches roundoff the estimate is exactly
    the floor and roundoff noise cannot make it grow under panel doubling.
    """
    if h <= 0:
        raise ValueError("damping must be positive")
    if w <= 0:
        raise ValueError("w = omega_hat * z must be positive")
    p = power_shift
    c = p + h - 1j * s
    iw_h = 1j * w - h
    # the edge factors and the sums in extended precision where the value is
    # exponentially smaller than the integrand (see the module docstring)
    real = np.longdouble if s < 0 else np.float64
    c_edge = real(p + h) - 1j * real(s)
    w_edge, h_edge = real(w), real(h)

    # inner: u in (0, 1] parametrized as u = e^v, integrand exp(c v + (iw - h) e^v)
    def inner(v0):
        return np.exp(c_edge * v0 + (1j * w_edge - h_edge) * np.exp(v0))

    def inner_step(v0, t):
        return c * t + iw_h * np.exp(v0) * np.expm1(t)

    # outer: integrand u^(c - 1) e^(-h u) e^(i w u); the phase w u reaches
    # w u_max, above 1e4, and gets its own exponential so no sum rounds it
    def outer(u0):
        return np.exp((c_edge - 1) * np.log(u0) - h_edge * u0) * np.exp(1j * w_edge * u0)

    def outer_step(u0, t):
        return (c - 1.0) * np.log1p(t / u0) + iw_h * t

    # truncation points chosen so the dropped tails are below _TAIL_TOL; the
    # leading term of the tail at u = e^v_min is added back, since J can be
    # far smaller than _TAIL_TOL
    v_min = math.log(_TAIL_TOL * (p + h)) / (p + h)
    u_max = (40.0 + 12.0 * p) / h
    head = cmath.exp(c * v_min) / c
    abs_s = abs(s)

    def total(factor: int) -> complex:
        n_in = max(16, int(abs(v_min) * (1.0 + abs_s + w) / 2.0)) * factor
        n_out = max(32, int(u_max * (w + abs_s + h) / 4.0)) * factor
        return (
            head
            + _panels(inner, inner_step, v_min, 0.0, n_in, real)
            + _panels(outer, outer_step, 1.0, u_max, n_out, real)
        )

    coarse = total(panel_factor)
    fine = total(2 * panel_factor)
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
    panel refinement residual and the tail floor _TAIL_TOL); ``converged``
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
    worst_panel = 0.0
    for h in hs:
        v, est = damped_mode_integral(s, 1.0, h, p or 1, panel_factor)
        vals.append(v)
        worst_panel = max(worst_panel, est)
    value, tableau_resid = _neville_to_zero(hs, vals)
    value *= scale
    estimate = (tableau_resid + worst_panel) * abs(scale)
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
