"""Commutative geometry of the uniformly accelerated (Rindler) chart.

The flat chart carries coordinates ``x0..x3`` with signature (-,+,+,+); the
accelerated chart carries ``z0..z3`` and an acceleration parameter ``a``.
The right-wedge map is

    x0 = N(z1) sinh(a z0),  x1 = N(z1) cosh(a z0),  x2 = z2,  x3 = z3,

with a positive lapse profile N; the standard profile is N(z1) = z1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

from .expr import Expr, ONE, cosh, differentiate, mul, simplify, sinh, substitute, sym

__all__ = [
    "MINKOWSKI_COORDS",
    "RINDLER_COORDS",
    "ACCELERATION",
    "METRIC_SIGNATURE",
    "standard_map",
    "partial_transport",
    "RindlerMap",
    "MetricPullback",
    "inverse_map_numeric",
]

MINKOWSKI_COORDS = ("x0", "x1", "x2", "x3")
RINDLER_COORDS = ("z0", "z1", "z2", "z3")
ACCELERATION = "a"
METRIC_SIGNATURE = (-1, 1, 1, 1)

_A = sym(ACCELERATION)
_Z = tuple(sym(n) for n in RINDLER_COORDS)


def standard_map() -> dict[str, Expr]:
    """Coordinate map of the standard profile N(z1) = z1, as a substitution table."""
    return RindlerMap().as_substitution()


@cache
def partial_transport(mu: int) -> tuple[tuple[Expr, int], ...]:
    """Chain-rule image of d/dx_mu on the accelerated chart (standard profile).

    Returns (coefficient, z-index) pairs.  The time and radial directions mix:

        d/dx0 = -sinh(a z0) d/dz1 + (cosh(a z0)/(a z1)) d/dz0
        d/dx1 =  cosh(a z0) d/dz1 - (sinh(a z0)/(a z1)) d/dz0

    while the transverse directions pass through unchanged.  Correctness
    against the coordinate map is enforced by the chain-rule property tests.
    The four images are built once and shared.
    """
    u = _A * _Z[0]
    inv = ONE / (_A * _Z[1])
    if mu == 0:
        return ((-sinh(u), 1), (cosh(u) * inv, 0))
    if mu == 1:
        return ((cosh(u), 1), (-sinh(u) * inv, 0))
    if mu in (2, 3):
        return ((ONE, mu),)
    raise ValueError(f"coordinate index out of range: {mu}")


@dataclass(frozen=True)
class MetricPullback:
    """Diagonal metric on the accelerated chart.

    ``computed`` is the first-principles pullback of the flat metric through
    the coordinate map: (-a^2 N^2, (N')^2, 1, 1).  ``printed_alternative``
    replaces the leading a^2 by a single power of a; the two differ and only
    the computed form is dimensionally consistent, so the computed form is
    normative for every check in this package.  Both are reported.
    """

    computed: tuple[Expr, Expr, Expr, Expr]
    printed_alternative: tuple[Expr, Expr, Expr, Expr]


@dataclass(frozen=True)
class RindlerMap:
    """Right-wedge coordinate map with lapse profile ``lapse`` (an Expr in z1)."""

    lapse: Expr = field(default_factory=lambda: _Z[1])

    def forward(self, zs: tuple[Expr, Expr, Expr, Expr]) -> tuple[Expr, Expr, Expr, Expr]:
        """Map four accelerated-chart expressions to flat-chart coordinates."""
        subs = dict(zip(RINDLER_COORDS, zs))
        n = substitute(self.lapse, subs)
        u = substitute(_A * _Z[0], subs)
        return (n * sinh(u), n * cosh(u), zs[2], zs[3])

    def as_substitution(self) -> dict[str, Expr]:
        u = _A * _Z[0]
        return {
            "x0": self.lapse * sinh(u),
            "x1": self.lapse * cosh(u),
            "x2": _Z[2],
            "x3": _Z[3],
        }

    def metric_pullback(self) -> MetricPullback:
        """Pull the flat metric back through the map, from first principles."""
        xs = self.forward(_Z)
        g = [[simplify(mul(0)) for _ in range(4)] for _ in range(4)]
        for mu in range(4):
            for nu in range(mu, 4):
                acc = None
                for rho in range(4):
                    d1 = differentiate(xs[rho], RINDLER_COORDS[mu])
                    d2 = differentiate(xs[rho], RINDLER_COORDS[nu])
                    piece = METRIC_SIGNATURE[rho] * d1 * d2
                    acc = piece if acc is None else acc + piece
                g[mu][nu] = acc
        for mu in range(4):
            for nu in range(mu + 1, 4):
                if g[mu][nu] != mul(0):
                    raise AssertionError(
                        f"metric pullback is not diagonal at ({mu},{nu}): {g[mu][nu]}"
                    )
        computed = (g[0][0], g[1][1], g[2][2], g[3][3])
        n_sq = self.lapse * self.lapse
        printed = (-_A * n_sq, g[1][1], g[2][2], g[3][3])
        return MetricPullback(computed=computed, printed_alternative=printed)


def inverse_map_numeric(x: tuple[float, float, float, float], a: float) -> tuple[float, float, float, float]:
    """Numeric inverse of the standard map on the right wedge (x1 > |x0|)."""
    x0, x1, x2, x3 = x
    if not x1 > abs(x0):
        raise ValueError("point is outside the right wedge")
    z1 = math.sqrt(x1 * x1 - x0 * x0)
    z0 = math.atanh(x0 / x1) / a
    return (z0, z1, x2, x3)
