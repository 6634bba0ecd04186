"""Commutative geometry of the uniformly accelerated (Rindler) chart.

The flat chart carries coordinates ``x0..x3`` with signature (-,+,+,+); the
accelerated chart carries ``z0..z3`` and an acceleration parameter ``a``.
The right-wedge map is

    x0 = z1 sinh(a z0),  x1 = z1 cosh(a z0),  x2 = z2,  x3 = z3,

stated once, as the read-only substitution table ``STANDARD_MAP``.  Its
Jacobian, the metric pullback and the chain-rule transport are derived from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from types import MappingProxyType

from .expr import Expr, ZERO, add, cosh, differentiate, sinh, sym

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
def _jacobian() -> tuple[tuple[Expr, ...], ...]:
    """J[rho][nu] = dx_rho/dz_nu of ``STANDARD_MAP``, built once."""
    return tuple(tuple(differentiate(x, z) for z in RINDLER_COORDS) for x in STANDARD_MAP.values())


def _pullback_entry(mu: int, nu: int) -> Expr:
    """g[mu][nu] = sum_rho eta_rho J[rho][mu] J[rho][nu], the flat metric pulled back."""
    j = _jacobian()
    return add(*(METRIC_SIGNATURE[rho] * j[rho][mu] * j[rho][nu] for rho in range(4)))


@cache
def partial_transport(mu: int) -> tuple[tuple[Expr, int], ...]:
    """Chain-rule image of d/dx_mu on the accelerated chart.

    Returns the (coefficient, z-index) pairs of d/dx_mu = sum_nu dz_nu/dx_mu
    d/dz_nu with nonzero coefficients.  With J the Jacobian of ``STANDARD_MAP``
    and g = J^T eta J its metric pullback, J^-1 = g^-1 J^T eta exactly; g is
    diagonal, (-a^2 z1^2, 1, 1, 1), with monomial entries, so

        dz_nu/dx_mu = eta_mu J[mu][nu] / g[nu][nu]

    divides exactly.  The four images are built once and shared.
    """
    if mu not in range(4):
        raise ValueError(f"coordinate index out of range: {mu}")
    row = _jacobian()[mu]
    return tuple(
        (METRIC_SIGNATURE[mu] * row[nu] / _pullback_entry(nu, nu), nu)
        for nu in range(4)
        if row[nu] != ZERO
    )


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
        """Pull the flat metric back through the map's Jacobian, from first principles."""
        for mu in range(4):
            for nu in range(mu + 1, 4):
                if (acc := _pullback_entry(mu, nu)) != ZERO:
                    raise AssertionError(f"metric pullback is not diagonal at ({mu},{nu}): {acc}")
        computed = tuple(_pullback_entry(mu, mu) for mu in range(4))
        printed = (-_A * _Z[1] ** 2, *computed[1:])
        return MetricPullback(computed=computed, printed_alternative=printed)


def inverse_map_numeric(x: tuple[float, float, float, float], a: float) -> tuple[float, float, float, float]:
    """Numeric inverse of the standard map on the right wedge (x1 > |x0|)."""
    x0, x1, x2, x3 = x
    if not x1 > abs(x0):
        raise ValueError("point is outside the right wedge")
    z1 = math.sqrt(x1 * x1 - x0 * x0)
    z0 = math.atanh(x0 / x1) / a
    return (z0, z1, x2, x3)
