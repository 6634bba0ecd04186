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
use composite 16-point Gauss-Legendre panels.  The inner panels are equal.
The outer panels are graded to the local rate bound |iw - h| + |c - 1| / u of
|d/du log f|: octave by octave, each panel is as wide as keeps its width times
the bound at its left edge under 4.  The phase of u^(-i s) slows as |s| / u, so
the panels widen from about 4 / (w + |s|) at u = 1 to 4 / w, and there are
about (1 + |s| / w) times fewer of them than at one width for the whole range.
The inner piece is cut at u = delta, and the dropped part,
delta^c / c (1 + O(delta)) with c = p + h - i s, is added back.
The per-level error estimate is the larger of the panel refinement residual
(the panels against the same panels halved) and the tail-truncation floor
_TAIL_TOL; once the panels have converged to roundoff it is exactly that
floor, so it does not grow under panel doubling.  The coarse and fine sums
share their edges: the coarse edges are every other fine edge.

Rounding.  For s < 0 the value J_1(s, 1) is of order e^(-pi |s|), while the
damped integrand is of order one over a range of length 1/h, so every rounding
error in it is amplified by about e^(pi |s|) relative to the result; at |s| = 4
that is 3e5.  (For s >= 0 |J_1(s, 1)| grows like |s|^(1/2) and nothing is
amplified.)  The exponent phi(u) of the integrand reaches |s| ln u + h u of
about 50 at the far end, so each panel is factored at its left edge x0 into
exp(phi(x0)) exp(phi(x0 + t) - phi(x0)).  The first factor is computed once
per coarse panel for both sums.  In the inner piece the second is computed in
double from small arguments.  In the outer piece it is e^((iw - h) t) (1 + g)
with g = (1 + t / x0)^(c - 1) - 1: every outer edge is an exact double, so all
panels of an octave have the same node offsets t and e^((iw - h) t) is
computed once per octave; only g is computed per node, in double where that
rounds it by less than 1/32 ulp of the panel.  For s < 0 everything else (the
edge factors, the per-octave factors, the Gauss-Legendre weights and the sums)
is carried in extended precision (np.longdouble).  At |s| = 4 this leaves a
rounding error of about 1e-12 of J per damping level, well below the
extrapolation error of about 2e-10, which changes smoothly with s.  Where
np.longdouble is plain double the error at |s| = 4 is up to about 1.4e-9, and
it changes from one s to the next.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["QuadratureResult", "damped_mode_integral", "mode_integral"]

_TAIL_TOL = 1e-14
# bound on |d/du log f| times the width of a coarse outer panel
_PANEL_PHASE = 4.0
# significant bits of an outer panel width; with few of them every edge
# a + k * width is an exact double
_WIDTH_BITS = 8


def _legendre_rule(n: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes shifted to [0, 2] and weights, in np.longdouble.

    numpy's double nodes are refined by Newton's method on P_n.
    """
    x = np.polynomial.legendre.leggauss(n)[0].astype(np.longdouble)
    for _ in range(3):
        p0, p1 = np.ones_like(x), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (x * p1 - p0) / (x * x - 1)
        x = x - p1 / dp
    return 1 + x, 2 / ((1 - x * x) * dp * dp)


_GL_RULE = _legendre_rule()


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    error_estimate: float
    converged: bool
    eps0: float
    levels: int
    panel_factor: int


def _widen(z: complex, real: type):
    """The complex double z in the floating type ``real``."""
    return real(z.real) + 1j * real(z.imag)


def _inner_sums(c: complex, iw_h: complex, v_min: float, n: int, real: type):
    """Coarse and fine sums of the inner piece int_{v_min}^0 exp(c v + (iw - h) e^v) dv.

    The fine sum has ``n`` (even) equal panels, the coarse sum their pairs.
    Each coarse panel is factored at its left edge v0,

        f(v0 + t) = f(v0) exp(c t + (iw - h) e^v0 expm1(t)),

    with f(v0) computed once for both sums, in ``real``, and the second factor
    in double from small arguments; the sums are accumulated in ``real``.
    """
    edges = np.linspace(v_min, 0.0, n + 1)
    v0 = edges[:-2:2]
    v0_r = v0.astype(real)
    factors = np.exp(_widen(c, real) * v0_r + _widen(iw_h, real) * np.exp(v0_r))
    rise = iw_h * np.exp(v0)[:, None, None]
    shifted, weights = _GL_RULE[0].astype(np.float64), _GL_RULE[1].astype(real)
    wide = np.result_type(real, 1j)

    def total(lo, hi):
        # lo, hi: the panels within each coarse panel, one row per v0
        half = 0.5 * (hi - lo)
        t = (lo - v0[:, None])[..., None] + half[..., None] * shifted
        steps = np.exp(c * t + rise * np.expm1(t))
        sums = np.einsum("ikj,j,ik->i", steps, weights, half, dtype=wide, casting="safe")
        return np.sum(factors * sums)

    coarse = total(v0[:, None], edges[2::2, None])
    fine = total(edges[:-1].reshape(-1, 2), edges[1:].reshape(-1, 2))
    return coarse, fine


def _outer_octaves(rate: float, rate_1: float, u_max: float, panel_factor: int):
    """Coarse outer panels on [1, U], U >= u_max, for the rate bound rate + rate_1 / u.

    Octave by octave, from a = 1 or where the octave before ended, up to the
    first edge at or past min(2^(j + 1), u_max), with 2^j <= a < 2^(j + 1):
    equal panels of width d, the largest with _WIDTH_BITS significant bits
    such that panel_factor * d * (rate + rate_1 / a) <= _PANEL_PHASE.  The
    bound falls with u, so this holds at the left edge of every panel.
    Returns the starts a, the widths d and the panel counts.
    """
    starts, widths, counts = [], [], []
    a = 1.0
    while a < u_max:
        top = min(2.0 ** (math.floor(math.log2(a)) + 1), u_max)
        m, e = math.frexp(_PANEL_PHASE / (panel_factor * (rate + rate_1 / a)))
        d = math.ldexp(math.floor(math.ldexp(m, _WIDTH_BITS)), e - _WIDTH_BITS)
        n = math.ceil((top - a) / d)
        starts.append(a)
        widths.append(d)
        counts.append(n)
        a += n * d
    return np.array(starts), np.array(widths), np.array(counts)


def _outer_edges(octaves, split: int) -> np.ndarray:
    """Edges of the outer panels, each coarse panel cut into ``split`` equal parts."""
    starts, widths, counts = octaves
    n = split * counts
    octave = np.repeat(np.arange(len(n)), n)
    k = np.arange(n.sum()) - (np.cumsum(n) - n)[octave]
    end = starts[-1] + widths[-1] * counts[-1]
    return np.append(starts[octave] + widths[octave] / split * k, end)


def _outer_sums(c: complex, iw_h: complex, octaves, real: type):
    """Coarse and fine sums of the outer piece int_1^U u^(c - 1) e^((iw - h) u) du.

    Each coarse panel [x0, x0 + d] is factored at its left edge,

        f(x0 + t) = f(x0) e^((iw - h) t) (1 + g),   g = (1 + t / x0)^(c - 1) - 1,

    and the fine sum splits it in two.  f(x0) is computed once for both sums
    and the weights times e^((iw - h) t) once per octave, all in ``real``.
    g = e^z - 1, z = (c - 1) log1p(t / x0), is computed per node.  In double
    (with expm1) its error is about ulp(1) |z| of the panel, so where |z| may
    exceed 1/32 it is computed in ``real`` instead, where exp(z) - 1 is exact
    enough and cheaper.
    """
    starts, widths, counts = octaves
    octave = np.repeat(np.arange(len(counts)), counts)
    x0 = _outer_edges(octaves, 1)[:-1]
    x0_r = x0.astype(real)
    cm1 = c - 1.0
    cm1_r, iw_h_r = _widen(cm1, real), _widen(iw_h, real)
    # the phase w u reaches w u_max, above 1e4, and gets its own exponential
    factors = np.exp(cm1_r * np.log(x0_r) + iw_h_r.real * x0_r)
    factors *= np.exp(1j * iw_h_r.imag * x0_r)
    d = widths.astype(real)[:, None]
    y, wt = (v.astype(real) for v in _GL_RULE)
    # node offsets from x0 and weights: coarse on [0, d], fine on [0, d/2] and [d/2, d]
    rules = (
        (d / 2 * y, d / 2 * wt),
        (np.hstack([d / 4 * y, d / 2 + d / 4 * y]), np.hstack([d / 4 * wt, d / 4 * wt])),
    )
    near = (abs(cm1) * widths / starts > 1 / 32)[octave]
    sums = []
    for t, weights in rules:
        wp = weights * np.exp(iw_h_r * t)
        total = np.sum(factors * wp.sum(axis=1)[octave])
        for rows, kind, cm1_k in ((near, real, cm1_r), (~near, np.float64, cm1)):
            z = cm1_k * np.log1p(t.astype(kind)[octave[rows]] / x0.astype(kind)[rows, None])
            g = np.expm1(z) if kind is np.float64 else np.exp(z) - 1
            corr = np.einsum("ij,ij->i", g, wp.astype(g.dtype)[octave[rows]])
            total += np.sum(factors[rows] * corr)
        sums.append(total)
    return sums[0], sums[1]


def damped_mode_integral(
    s: float, w: float, h: float, power_shift: int = 0, panel_factor: int = 1
) -> tuple[complex, float]:
    """One damped integral J_p(s, w; h) and a refinement-based error estimate.

    ``power_shift`` is the extra power p of u in the integrand (0 for the
    plain mode amplitude, 1 when an extra exp(-a tau) factor is present).
    The inner piece (u < 1, in v = ln u) has equal panels.  The outer panels
    are graded octave by octave, each as wide as keeps its width times the
    bound |iw - h| + |c - 1| / u on |d/du log f| at its left edge under
    _PANEL_PHASE / ``panel_factor``.  The fine sum cuts every coarse panel in
    two, so the coarse edges are every other fine edge and the extended-
    precision edge factors are evaluated once for both sums.
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
    # the edge factors, the weights and the sums in extended precision where
    # the value is exponentially smaller than the integrand (see the module
    # docstring)
    real = np.longdouble if s < 0 else np.float64

    # truncation points chosen so the dropped tails are below _TAIL_TOL (u_max
    # at least 2, so the outer range is never empty); the leading term of the
    # tail at u = e^v_min is added back, since J can be far smaller than _TAIL_TOL
    v_min = math.log(_TAIL_TOL * (p + h)) / (p + h)
    u_max = max(2.0, (40.0 + 12.0 * p) / h)
    head = cmath.exp(c * v_min) / c

    # inner: u in (0, 1] parametrized as u = e^v
    n_in = 2 * panel_factor * max(16, int(abs(v_min) * (1.0 + abs(s) + w) / 2.0))
    in_coarse, in_fine = _inner_sums(c, iw_h, v_min, n_in, real)
    # |d/du log f| <= |iw - h| + |c - 1| / u for the outer integrand f
    octaves = _outer_octaves(abs(iw_h), abs(c - 1.0), u_max, panel_factor)
    out_coarse, out_fine = _outer_sums(c, iw_h, octaves, real)
    # the pieces are far larger than J for s < 0: add them in ``real``
    coarse = complex(head + in_coarse + out_coarse)
    fine = complex(head + in_fine + out_fine)
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
