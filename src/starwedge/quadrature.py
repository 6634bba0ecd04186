"""Real-axis numerical evaluation of the conditionally convergent mode integrals.

The object of interest is

    I_p(s) = int_0^inf x^(p - i s - 1) e^(ix) dx,      s = omega/a,

reached from the proper-time integral by the substitution u = exp(-a tau)
and x = omega_hat z u; it converges only conditionally.  The mode integral at
w = omega_hat z, J_p(s, w) = int_0^inf u^(p - i s - 1) exp(i w u) du, is
w^(i s) w^(-p) I_p(s), so the integrals read no w: ``spectrum`` applies the
unit-modulus phase w^(i s) once and puts w^(-p) into its coefficients.  For
p = 0 the integrand x^(c - 1), c = p - i s, is singular at x = 0, and one
exact integration by parts reduces it to an integral with Re c >= 1:

    I(c) = (-i / c) I(c + 1),

so I_0 = I_1 / s, and I_0 diverges at s = 0, which raises ValueError.

Each integral is evaluated on the real axis by the double-exponential
(DE) rule of Ooura and Mori for Fourier integrals (J. Comput. Appl. Math. 38
(1991) 353-360; the robust map of 112 (1999) 229-241):

    x = M phi(t),   phi(t) = t / (1 - e^(-v)),   v = 2 t + alpha (1 - e^(-t)) + beta (e^t - 1),

beta = 1/4 and alpha = beta / sqrt(1 + M ln(1 + M) / (4 pi)), the cos part of
e^(ix) is sampled at t = (n - 1/2) pi / M and the sin part at t = n pi / M,
with weights pi phi'(t).  The nodes approach the zeros of cos and sin, and
phi' vanishes, double exponentially, so one node set covers (0, inf) with no
panels and no cut of the range; it depends on M alone and is cached.  The
extended-precision constants pi and beta are built inside that cached rule,
and numpy is imported on first use, so the symbolic layer never loads it.  The
oscillating tail needs no damping factor: the rule sums the conditionally
convergent integral by itself.

The mesh.  M = 64 panel_factor with the 64 doubled while under 8 s, up to
4096, since u^(-i s) turns at the rate |s| / u; the rule reads signed s, so
for s < 0 M stays 64 panel_factor.  The sums walk up the meshes and stop at
the first pair that differs by at most the floor _TAIL_TOL, never past the
pair (M, 2M): the walk starts at (M / 2, M) where M / 2 >= 8 s still holds
(every s <= 4 at panel_factor 1), else at (M, 2M).  The value is the finer sum
of the last pair and the estimate max(|coarse - fine|, _TAIL_TOL), so a walk
that reaches (M, 2M) returns I(2M) with the estimate |I(M) - I(2M)|, floored.
The estimate is exactly the floor once the rule has converged to roundoff, so
it does not grow under doubling.

Rounding.  For s < 0 the value I_1(s) is of order e^(-pi |s|), while the
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
- for p = 0 the rule would meet x^(c - 1) singular at x = 0, so the
  integral is taken by parts, I(c) = (-i / c) I(c + 1).

At |s| near 4 this leaves at most about 4e-12 of I (in plain double, about
1.2e-8); the estimate exceeds rtol = 1e-7 from s = -4.8 on.

Shared sums.  A DE sum depends on c and M alone.  Inside the block
of ``_shared_de_sums`` each distinct (c, M) is summed once and the sum is
reused: ``verification.run_all_checks`` repeats the same c across checks, and
``spectrum.compute_spectrum`` takes a point's I_1 from the sums of its I_0.
A block opened inside an open one shares its sums; the outermost block drops
them at its end, by return or by exception, so no sum outlives one call.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import numpy as np

__all__ = ["QuadratureResult", "damped_mode_integral", "mode_integral"]

# floor of the refinement estimate
_TAIL_TOL = 1e-14


class QuadratureResult(NamedTuple):
    value: complex
    error_estimate: float
    converged: bool


@lru_cache(maxsize=8)
def _de_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Logarithms of the nodes and the complex weights of the DE rule with mesh pi / m.

    sum_k f(x_k) weights_k approximates int_0^inf f(x) e^(ix) dx (real weights
    at the cos nodes, imaginary at the sin nodes).  Beyond the kept range of t,
    [-ln(64 / alpha), ln 256], the weights are below 1e-28.
    """
    import numpy as np

    pi = np.longdouble("3.14159265358979323846264338327950288")
    beta = np.longdouble(0.25)
    alpha = beta / np.sqrt(1 + m * np.log1p(np.longdouble(m)) / (4 * pi))
    lo, hi = -math.log(64 / float(alpha)), math.log(256)
    n = np.arange(math.floor(lo * m / math.pi), math.ceil(hi * m / math.pi) + 1)
    nodes, weights = [], []
    # the cos part at t = (n - 1/2) pi / m, the sin part at t = n pi / m
    for shift, unit in ((0.5, 1), (0.0, 1j)):
        t = (n - shift) * pi / m
        et, emt = np.exp(t), np.exp(-t)
        v = 2 * t + alpha * (1 - emt) + beta * (et - 1)
        with np.errstate(invalid="ignore"):
            x = m * t / -np.expm1(-v)
            num = np.expm1(v) - v + alpha * emt * (np.expm1(t) - t)
            num += beta * (np.expm1(t) - t * et)
            dphi = np.exp(-v) * num / np.expm1(-v) ** 2
        # the limits of phi and phi' at t = 0
        zero = t == 0
        x[zero] = m / (2 + alpha + beta)
        dphi[zero] = 0.5 + (alpha - beta) / (2 * (2 + alpha + beta) ** 2)
        nodes.append(x)
        weights.append(unit * pi * dphi * (-1.0) ** n * np.sin(x * np.exp(-v)))
    return np.log(np.concatenate(nodes)), np.concatenate(weights)


# the DE sums taken inside ``_shared_de_sums``, by (c, m); None outside it
_memo: dict | None = None


@contextmanager
def _shared_de_sums():
    """Within the block, each distinct DE sum is taken once; the outermost block drops the sums at its end."""
    global _memo
    outer = _memo
    _memo = {} if outer is None else outer
    try:
        yield
    finally:
        _memo = outer


def _de_sum(c: complex, m: int):
    """The DE rule with mesh pi / m for int_0^inf x^(c - 1) e^(ix) dx."""
    import numpy as np

    if _memo is not None and (c, m) in _memo:
        return _memo[c, m]
    log_x, weights = _de_rule(m)
    total = np.sum(np.exp(np.clongdouble(c - 1) * log_x) * weights)
    if _memo is not None:
        _memo[c, m] = total
    return total


# nothing is damped since the DE rule; the name stays while the benchmark's
# tracer resolves it (ROADMAP item 6 renames it)
def damped_mode_integral(s: float, power_shift: int = 0, panel_factor: int = 1) -> tuple[complex, float]:
    """One integral I_p(s) and a refinement-based error estimate.

    ``power_shift`` is the extra power p of u in the integrand (0 for the
    plain mode amplitude, 1 when an extra exp(-a tau) factor is present).
    With c = p - i s the integral is the DE rule for int_0^inf x^(c - 1) e^(ix) dx;
    for p = 0 it is first taken by parts, I(c) = (-i / c) I(c + 1), which
    raises ValueError at c = 0 (p = s = 0).
    The rule walks up the meshes M / 2, M, 2M (M / 2 only where it still
    resolves u^(-i s)), with M set by s and ``panel_factor`` as the module
    docstring says, and stops at the first pair whose sums differ by at most
    _TAIL_TOL.  The value is the finer sum of the last pair taken and the
    estimate max(|coarse - fine|, _TAIL_TOL); a walk that reaches (M, 2M)
    returns I(2M).
    """
    c = power_shift - 1j * s
    scale = 1.0
    if power_shift == 0:
        if c == 0:
            raise ValueError("I_0(s) diverges at s = 0 (gamma pole of the amplitude)")
        scale = -1j / c
        c += 1
    # M >= 8 s resolves u^(-i s); see the module docstring
    m = 64
    while m < min(8 * s, 4096):
        m *= 2
    m *= panel_factor
    meshes = (m // 2, m, 2 * m) if m >= 16 * s else (m, 2 * m)
    coarse = complex(scale * _de_sum(c, meshes[0]))
    for k in meshes[1:]:
        fine = complex(scale * _de_sum(c, k))
        estimate = abs(fine - coarse)
        if estimate <= _TAIL_TOL:
            break
        coarse = fine
    return fine, max(estimate, _TAIL_TOL)


def mode_integral(
    s: float,
    *,
    power_shift: int = 0,
    panel_factor: int = 1,
    rtol: float = 1e-7,
) -> QuadratureResult:
    """I_p(s) with an error estimate.

    The value and estimate are those of ``damped_mode_integral`` (the finer
    sum of the first mesh pair that agrees to _TAIL_TOL, at most (M, 2M)), the
    estimate floored at 1e-15 (1 + |I|); ``converged`` reports whether it
    met ``rtol`` relative to the value.  Non-convergence is reported, never
    raised, so callers can flag partial results.  I_0 diverges at s = 0,
    which raises ValueError.
    """
    value, estimate = damped_mode_integral(s, power_shift, panel_factor)
    estimate = max(estimate, 1e-15 * (1.0 + abs(value)))
    converged = estimate <= rtol * max(abs(value), 1e-300)
    return QuadratureResult(value=value, error_estimate=estimate, converged=converged)
