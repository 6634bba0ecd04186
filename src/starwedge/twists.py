"""Linearized twist operators for the three coordinate-algebra deformations.

Each deformation is described by an exact-rational parameter set
(:class:`CanonicalTwist`, :class:`LieTwist`, :class:`QuadraticTwist`) and
realized, on either chart, as a first-order bidifferential operator O so that
the deformed product of functions is f*g = fg + O(f, g) at leading order in
the deformation parameter.

All three constructors share one normalization constant, fixed so that the
flat-chart coordinate commutators come out exactly as i * parameter (constant
case), i * structure-coefficients * x (linear case) and the linearized
quadratic constraint (quadratic case).  The same constant is reused unchanged
on the accelerated chart.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .diffop import (
    BidiffOp,
    Chart,
    lorentz_generator,
    momentum_generator,
    wedge,
)
from .expr import ComplexRational

__all__ = [
    "TwistSpecError",
    "CanonicalTwist",
    "LieTwist",
    "QuadraticTwist",
    "TwistSpec",
    "LinearTwist",
    "WEDGE_NORMALIZATION",
    "canonical_twist_linear",
    "lie_twist_linear",
    "quadratic_twist_linear",
    "build_linear_twist",
    "spec_to_config",
    "spec_from_config",
]


class TwistSpecError(ValueError):
    """Deformation parameters violate a construction constraint."""


# Shared exponent normalization -i/2: with O = N * sum  theta^{mu nu}
# wedge(F_mu, F_nu) over mu < nu, the flat-chart commutator of coordinates is
# exactly i*theta^{mu nu}.  The linear and quadratic twists reuse it and
# reproduce their closed-form flat-chart relations with no extra factor.
WEDGE_NORMALIZATION = ComplexRational(Fraction(0), Fraction(-1, 2))

FractionLike = Union[int, Fraction, str]


def _frac(x: FractionLike) -> Fraction:
    return Fraction(x)


def _as_theta_matrix(
    entries: "dict[tuple[int, int], FractionLike] | list[list[FractionLike]] | tuple",
) -> tuple[tuple[Fraction, ...], ...]:
    """Build an antisymmetric 4x4 matrix of exact rationals.

    Accepts either a full 4x4 array or a sparse {(mu, nu): value} mapping of
    upper-triangle components; lower-triangle values follow by antisymmetry.
    """
    mat = [[Fraction(0)] * 4 for _ in range(4)]
    if isinstance(entries, dict):
        for (mu, nu), val in entries.items():
            if not (0 <= mu < 4 and 0 <= nu < 4) or mu == nu:
                raise TwistSpecError(f"bad component index ({mu},{nu})")
            v = _frac(val)
            mat[mu][nu] = v
            mat[nu][mu] = -v
    else:
        rows = list(entries)
        if len(rows) != 4 or any(len(r) != 4 for r in rows):
            raise TwistSpecError("matrix must be 4x4")
        for mu in range(4):
            for nu in range(4):
                mat[mu][nu] = _frac(rows[mu][nu])
    for mu in range(4):
        for nu in range(4):
            if mat[mu][nu] != -mat[nu][mu]:
                raise TwistSpecError("matrix must be antisymmetric")
    return tuple(tuple(row) for row in mat)


@dataclass(frozen=True)
class CanonicalTwist:
    """Constant deformation: antisymmetric rational matrix theta."""

    theta: tuple[tuple[Fraction, ...], ...]

    kind = "canonical"

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", _as_theta_matrix(self.theta))


@dataclass(frozen=True)
class LieTwist:
    """Linear deformation: scale inv_kappa, vector zeta, generator pair (alpha, beta).

    The vector must vanish on the generator pair indices; the classical limit
    is inv_kappa = 0.
    """

    inv_kappa: Fraction
    zeta: tuple[Fraction, Fraction, Fraction, Fraction]
    alpha: int
    beta: int

    kind = "lie"

    def __post_init__(self) -> None:
        object.__setattr__(self, "inv_kappa", _frac(self.inv_kappa))
        zeta = tuple(_frac(v) for v in self.zeta)
        if len(zeta) != 4:
            raise TwistSpecError("zeta must have four components")
        object.__setattr__(self, "zeta", zeta)
        if self.alpha == self.beta or not all(0 <= k < 4 for k in (self.alpha, self.beta)):
            raise TwistSpecError("generator indices must be distinct chart indices")
        for k in (self.alpha, self.beta):
            if zeta[k] != 0:
                raise TwistSpecError(
                    f"zeta must vanish on the generator pair, got zeta[{k}] != 0"
                )


@dataclass(frozen=True)
class QuadraticTwist:
    """Quadratic deformation: scale xi and four pairwise-distinct indices."""

    xi: Fraction
    indices: tuple[int, int, int, int]

    kind = "quadratic"

    def __post_init__(self) -> None:
        object.__setattr__(self, "xi", _frac(self.xi))
        idx = tuple(int(k) for k in self.indices)
        if len(idx) != 4 or len(set(idx)) != 4 or not all(0 <= k < 4 for k in idx):
            raise TwistSpecError("indices must be four pairwise-distinct chart indices")
        object.__setattr__(self, "indices", idx)


TwistSpec = Union[CanonicalTwist, LieTwist, QuadraticTwist]


@dataclass(frozen=True)
class LinearTwist:
    """First-order twist operator O on a chart: deformed product = fg + O(f, g)."""

    spec: TwistSpec
    chart: Chart
    operator: BidiffOp


def _scalar(q: Fraction) -> ComplexRational:
    return ComplexRational(q, Fraction(0))


def canonical_twist_linear(theta, chart: Chart) -> LinearTwist:
    """Constant-deformation twist; flat-chart commutators equal i*theta exactly."""
    spec = theta if isinstance(theta, CanonicalTwist) else CanonicalTwist(theta)
    legs = [momentum_generator(chart, mu) for mu in range(4)]
    op = BidiffOp.zero(chart)
    for mu in range(4):
        for nu in range(mu + 1, 4):
            if spec.theta[mu][nu] == 0:
                continue
            w = wedge(legs[mu], legs[nu])
            op = op + w.scale(WEDGE_NORMALIZATION * _scalar(spec.theta[mu][nu]))
    return LinearTwist(spec, chart, op)


def lie_twist_linear(
    inv_kappa: FractionLike,
    zeta,
    alpha: int,
    beta: int,
    chart: Chart,
) -> LinearTwist:
    """Linear-deformation twist from translation and rotation/boost legs."""
    spec = LieTwist(_frac(inv_kappa), tuple(zeta), alpha, beta)
    rot = lorentz_generator(chart, alpha, beta)
    op = BidiffOp.zero(chart)
    for lam in range(4):
        comp = spec.zeta[lam]
        if comp == 0:
            continue
        w = wedge(momentum_generator(chart, lam), rot)
        op = op + w.scale(WEDGE_NORMALIZATION * _scalar(spec.inv_kappa * comp))
    return LinearTwist(spec, chart, op)


def quadratic_twist_linear(
    xi: FractionLike,
    alpha: int,
    beta: int,
    gamma: int,
    delta: int,
    chart: Chart,
) -> LinearTwist:
    """Quadratic-deformation twist from two rotation/boost legs."""
    spec = QuadraticTwist(_frac(xi), (alpha, beta, gamma, delta))
    op = BidiffOp.zero(chart)
    if spec.xi != 0:
        w = wedge(lorentz_generator(chart, alpha, beta), lorentz_generator(chart, gamma, delta))
        op = w.scale(WEDGE_NORMALIZATION * _scalar(spec.xi))
    return LinearTwist(spec, chart, op)


def build_linear_twist(spec: TwistSpec, chart: Chart) -> LinearTwist:
    """Dispatch on the parameter record kind."""
    if isinstance(spec, CanonicalTwist):
        return canonical_twist_linear(spec, chart)
    if isinstance(spec, LieTwist):
        return lie_twist_linear(spec.inv_kappa, spec.zeta, spec.alpha, spec.beta, chart)
    if isinstance(spec, QuadraticTwist):
        a, b, g, d = spec.indices
        return quadratic_twist_linear(spec.xi, a, b, g, d, chart)
    raise TypeError(f"not a twist parameter record: {type(spec).__name__}")


def spec_to_config(spec: TwistSpec) -> dict[str, str]:
    """Flatten a parameter record into human-editable key/value pairs."""
    if isinstance(spec, CanonicalTwist):
        out = {"kind": "canonical"}
        for mu in range(4):
            for nu in range(mu + 1, 4):
                if spec.theta[mu][nu] != 0:
                    out[f"theta{mu}{nu}"] = str(spec.theta[mu][nu])
        return out
    if isinstance(spec, LieTwist):
        return {
            "kind": "lie",
            "inv_kappa": str(spec.inv_kappa),
            "zeta": " ".join(str(v) for v in spec.zeta),
            "alpha": str(spec.alpha),
            "beta": str(spec.beta),
        }
    if isinstance(spec, QuadraticTwist):
        return {
            "kind": "quadratic",
            "xi": str(spec.xi),
            "indices": " ".join(str(k) for k in spec.indices),
        }
    raise TypeError(f"not a twist parameter record: {type(spec).__name__}")


def spec_from_config(items: dict[str, str]) -> TwistSpec:
    """Inverse of :func:`spec_to_config`; raises TwistSpecError on unknown keys."""
    data = dict(items)
    kind = data.pop("kind", None)
    if kind == "canonical":
        comps: dict[tuple[int, int], FractionLike] = {}
        for key, val in data.items():
            if len(key) != 7 or not key.startswith("theta") or not key[5:].isdigit():
                raise TwistSpecError(f"unknown canonical key {key!r}")
            comps[(int(key[5]), int(key[6]))] = Fraction(val)
        return CanonicalTwist(comps)  # type: ignore[arg-type]
    if kind == "lie":
        try:
            inv_kappa = Fraction(data.pop("inv_kappa"))
            zeta = tuple(Fraction(v) for v in data.pop("zeta").split())
            alpha = int(data.pop("alpha"))
            beta = int(data.pop("beta"))
        except KeyError as missing:
            raise TwistSpecError(f"missing lie key {missing}") from None
        if data:
            raise TwistSpecError(f"unknown lie keys: {sorted(data)}")
        return LieTwist(inv_kappa, zeta, alpha, beta)  # type: ignore[arg-type]
    if kind == "quadratic":
        try:
            xi = Fraction(data.pop("xi"))
            idx = tuple(int(k) for k in data.pop("indices").split())
        except KeyError as missing:
            raise TwistSpecError(f"missing quadratic key {missing}") from None
        if data:
            raise TwistSpecError(f"unknown quadratic keys: {sorted(data)}")
        return QuadraticTwist(xi, idx)  # type: ignore[arg-type]
    raise TwistSpecError(f"unknown twist kind {kind!r}")
