"""Commutative geometry of the uniformly accelerated (Rindler) chart.

The flat chart carries coordinates ``x0..x3`` with signature (-,+,+,+); the
accelerated chart carries ``z0..z3`` and an acceleration parameter ``a``.
The right-wedge map is

    x0 = z1 sinh(a z0),  x1 = z1 cosh(a z0),  x2 = z2,  x3 = z3,

stated once, as the read-only substitution table ``STANDARD_MAP``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from types import MappingProxyType

from .expr import Expr, ONE, ZERO, cosh, differentiate, sinh, sym

__all__ = [
    "MINKOWSKI_COORDS",
    "RINDLER_COORDS",
    "ACCELERATION",
    "METRIC_SIGNATURE",
    "STANDARD_MAP",
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
_U = _A * _Z[0]

# the flat coordinates as functions of the accelerated ones
STANDARD_MAP = MappingProxyType({
    "x0": _Z[1] * sinh(_U),
    "x1": _Z[1] * cosh(_U),
    "x2": _Z[2],
    "x3": _Z[3],
})


@cache
def partial_transport(mu: int) -> tuple[tuple[Expr, int], ...]:
    """Chain-rule image of d/dx_mu on the accelerated chart.

    Returns (coefficient, z-index) pairs.  The time and radial directions mix:

        d/dx0 = -sinh(a z0) d/dz1 + (cosh(a z0)/(a z1)) d/dz0
        d/dx1 =  cosh(a z0) d/dz1 - (sinh(a z0)/(a z1)) d/dz0

    while the transverse directions pass through unchanged.  Correctness
    against the coordinate map is enforced by the chain-rule property tests.
    The four images are built once and shared.
    """
    inv = ONE / (_A * _Z[1])
    if mu == 0:
        return ((-sinh(_U), 1), (cosh(_U) * inv, 0))
    if mu == 1:
        return ((cosh(_U), 1), (-sinh(_U) * inv, 0))
    if mu in (2, 3):
        return ((ONE, mu),)
    raise ValueError(f"coordinate index out of range: {mu}")


@dataclass(frozen=True)
class MetricPullback:
    """Diagonal metric on the accelerated chart.

    ``computed`` is the first-principles pullback of the flat metric through
    the coordinate map: (-a^2 z1^2, 1, 1, 1).  ``printed_alternative``
    replaces the leading a^2 by a single power of a; the two differ and only
    the computed form is dimensionally consistent, so the computed form is
    normative for every check in this package.  Both are reported.
    """

    computed: tuple[Expr, Expr, Expr, Expr]
    printed_alternative: tuple[Expr, Expr, Expr, Expr]


@dataclass(frozen=True)
class RindlerMap:
    """The right-wedge coordinate map ``STANDARD_MAP`` and its metric pullback."""

    def as_substitution(self) -> MappingProxyType[str, Expr]:
        return STANDARD_MAP

    def metric_pullback(self) -> MetricPullback:
        """Pull the flat metric back through the map, from first principles."""
        xs = tuple(STANDARD_MAP.values())
        diagonal = []
        for mu in range(4):
            for nu in range(mu, 4):
                acc = None
                for rho in range(4):
                    d1 = differentiate(xs[rho], RINDLER_COORDS[mu])
                    d2 = differentiate(xs[rho], RINDLER_COORDS[nu])
                    piece = METRIC_SIGNATURE[rho] * d1 * d2
                    acc = piece if acc is None else acc + piece
                if nu == mu:
                    diagonal.append(acc)
                elif acc != ZERO:
                    raise AssertionError(f"metric pullback is not diagonal at ({mu},{nu}): {acc}")
        computed = tuple(diagonal)
        printed = (-_A * _Z[1] ** 2, *diagonal[1:])
        return MetricPullback(computed=computed, printed_alternative=printed)


def inverse_map_numeric(x: tuple[float, float, float, float], a: float) -> tuple[float, float, float, float]:
    """Numeric inverse of the standard map on the right wedge (x1 > |x0|)."""
    x0, x1, x2, x3 = x
    if not x1 > abs(x0):
        raise ValueError("point is outside the right wedge")
    z1 = math.sqrt(x1 * x1 - x0 * x0)
    z0 = math.atanh(x0 / x1) / a
    return (z0, z1, x2, x3)
