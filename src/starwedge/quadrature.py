"""Real-axis numerical evaluation of the conditionally convergent mode integrals.

The object of interest is

    J_p(s, w) = int_0^inf u^(p - i s - 1) exp(i w u) du,      s = omega/a, w = omega_hat * z,

reached from the proper-time integral by the substitution u = exp(-a tau);
it converges only conditionally.  Two exact identities reduce every call,
without the gamma function, to one integral of the form
int_0^inf x^(c - 1) e^(ix) dx with Re c >= 1, where c = p - i s:

    rescaling                x = w u:   J_p(s, w) = w^(-c) int_0^inf x^(c - 1) e^(ix) dx
    integration by parts     (p = 0):   J(c) = (-i w / c) J(c + 1)

Rescaling makes the cost independent of w.  Integration by parts removes the
singularity of u^(c - 1) at u = 0; at c = -i s its factor is w / s, so
J_0 = (w / s) J_1, and J_0 diverges at s = 0, which raises ValueError.

Each integral is evaluated on the real axis by the double-exponential
(DE) rule of Ooura and Mori for Fourier integrals (J. Comput. Appl. Math. 38
(1991) 353-360; the robust map of 112 (1999) 229-241).  With x = w u,

    x = M phi(t),   phi(t) = t / (1 - e^(-v)),   v = 2 t + alpha (1 - e^(-t)) + beta (e^t - 1),

beta = 1/4 and alpha = beta / sqrt(1 + M ln(1 + M) / (4 pi)), the cos part of
e^(ix) is sampled at t = (n - 1/2) pi / M and the sin part at t = n pi / M,
with weights pi phi'(t).  The nodes approach the zeros of cos and sin, and
phi' vanishes, double exponentially, so one node set covers (0, inf) with no
panels and no cut of the range; it depends on M alone and is cached.  The
extended-precision constants pi and beta are built inside that cached rule,
and numpy is imported on first use, so the symbolic layer never loads it.  The
oscillating tail needs no damping factor: the rule sums the conditionally
convergent integral by itself.  M = 64 panel_factor with the 64 doubled while
under 8 s, up to 4096, since u^(-i s) turns at the rate |s| / u.  The estimate
max(|J(M) - J(2M)|, _TAIL_TOL) is exactly that floor once the rule has
converged to roundoff, so it does not grow under doubling.

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
- for p = 0 the rule would meet u^(c - 1) singular at u = 0, so the
  integral is taken by parts, J(c) = (-i w / c) J(c + 1).

At |s| near 4 this leaves at most about 4e-12 of J (in plain double, about
1.2e-8); the estimate exceeds rtol = 1e-7 from s = -4.8 on.

Shared sums.  A DE sum depends on c and M alone, not on w.  Inside the block
of ``_shared_de_sums`` each distinct (c, M) is summed once and the sum is
reused: ``verification.run_all_checks`` repeats the same c across checks, and
``spectrum.compute_spectrum`` takes a point's J_1 from the sums of its J_0.
A block opened inside an open one shares its sums; the outermost block drops
them at its end, by return or by exception, so no sum outlives one call.
"""

from __future__ import annotations

import cmath
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


def damped_mode_integral(
    s: float, w: float, power_shift: int = 0, panel_factor: int = 1
) -> tuple[complex, float]:
    """One integral J_p(s, w) and a refinement-based error estimate.

    ``power_shift`` is the extra power p of u in the integrand (0 for the
    plain mode amplitude, 1 when an extra exp(-a tau) factor is present).
    With c = p - i s and x = w u the integral is w^(-c) times the DE rule
    for int_0^inf x^(c - 1) e^(ix) dx; for p = 0 it is first taken by parts,
    J(c) = (-i w / c) J(c + 1), which raises ValueError at c = 0 (p = s = 0).
    A scale factor w^(-c), times -i w / c for p = 0, that is not finite
    raises OverflowError.
    The value is J(2M) and the estimate max(|J(M) - J(2M)|, _TAIL_TOL), with
    M set by s and ``panel_factor`` as the module docstring says.
    """
    if w <= 0:
        raise ValueError("w = omega_hat * z must be positive")
    c = power_shift - 1j * s
    scale = 1.0
    if power_shift == 0:
        if c == 0:
            raise ValueError("J_0(s, w) diverges at s = 0 (gamma pole of the amplitude)")
        scale = -1j * w / c
        c += 1
    scale *= cmath.exp(-c * math.log(w))
    if not cmath.isfinite(scale):
        # a w near the largest double: -i w / c overflows, and inf * w^(-c) is nan
        raise OverflowError(f"the scale factor of J_{power_shift}(s, w) is not finite at w = {w!r}")
    # M >= 8 s resolves u^(-i s); see the module docstring
    m = 64
    while m < min(8 * s, 4096):
        m *= 2
    m *= panel_factor
    coarse, fine = (complex(scale * _de_sum(c, k)) for k in (m, 2 * m))
    return fine, max(abs(fine - coarse), _TAIL_TOL)


def mode_integral(
    s: float,
    w: float,
    *,
    power_shift: int = 0,
    panel_factor: int = 1,
    rtol: float = 1e-7,
) -> QuadratureResult:
    """J_p(s, w) with an error estimate.

    The value and estimate are those of ``damped_mode_integral``, the
    estimate floored at 1e-15 (1 + |J|); ``converged`` reports whether it
    met ``rtol`` relative to the value.  Non-convergence is reported, never
    raised, so callers can flag partial results.  J_0 diverges at s = 0,
    which raises ValueError.
    """
    value, estimate = damped_mode_integral(s, w, power_shift, panel_factor)
    estimate = max(estimate, 1e-15 * (1.0 + abs(value)))
    converged = estimate <= rtol * max(abs(value), 1e-300)
    return QuadratureResult(value=value, error_estimate=estimate, converged=converged)
