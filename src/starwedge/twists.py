"""Linearized twist operators for the three coordinate-algebra deformations.

Each deformation is described by an exact-rational parameter record
(:class:`CanonicalTwist`, :class:`LieTwist`, :class:`QuadraticTwist`) that
names its wedge legs: ``legs(chart)`` yields (parameter, left generator, right
generator) for each wedge of Poincare generators.  :func:`build_linear_twist`
realizes any record, on either chart, as the first-order bidifferential
operator O = -i/2 * sum parameter * wedge(left, right), so that the deformed
product of functions is f*g = fg + O(f, g) at leading order in the
deformation parameter.

The normalization constant -i/2 is fixed so that the flat-chart coordinate
commutators come out exactly as i * parameter (constant case),
i * structure-coefficients * x (linear case) and the linearized quadratic
constraint (quadratic case).  The same constant is reused unchanged on the
accelerated chart.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, NamedTuple, Union

from .diffop import (
    BidiffOp,
    Chart,
    DiffOp,
    lorentz_generator,
    momentum_generator,
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
    "CONFIG_KEYS",
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

# (parameter, left leg, right leg) of one wedge
Leg = tuple[Fraction, DiffOp, DiffOp]


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
            v = Fraction(val)
            mat[mu][nu] = v
            mat[nu][mu] = -v
    else:
        rows = list(entries)
        if len(rows) != 4 or any(len(r) != 4 for r in rows):
            raise TwistSpecError("matrix must be 4x4")
        for mu in range(4):
            for nu in range(4):
                mat[mu][nu] = Fraction(rows[mu][nu])
    for mu in range(4):
        for nu in range(4):
            if mat[mu][nu] != -mat[nu][mu]:
                raise TwistSpecError("matrix must be antisymmetric")
    return tuple(tuple(row) for row in mat)


# _replace builds its result through _make: make it through the constructor, which checks the fields
_checked_make = classmethod(lambda cls, fields: cls(*fields))


class _CanonicalFields(NamedTuple):
    theta: tuple[tuple[Fraction, ...], ...]


class CanonicalTwist(_CanonicalFields):
    """Constant deformation: antisymmetric rational matrix theta."""

    __slots__ = ()
    kind = "canonical"

    def __new__(cls, theta) -> "CanonicalTwist":
        return super().__new__(cls, _as_theta_matrix(theta))

    _make = _checked_make

    def legs(self, chart: Chart) -> Iterator[Leg]:
        """theta^{mu nu} with the translations P_mu, P_nu, for each mu < nu."""
        p = [momentum_generator(chart, mu) for mu in range(4)]
        for mu in range(4):
            for nu in range(mu + 1, 4):
                yield self.theta[mu][nu], p[mu], p[nu]


class _LieFields(NamedTuple):
    inv_kappa: Fraction
    zeta: tuple[Fraction, Fraction, Fraction, Fraction]
    alpha: int
    beta: int


class LieTwist(_LieFields):
    """Linear deformation: scale inv_kappa, vector zeta, generator pair (alpha, beta).

    The vector must vanish on the generator pair indices; the classical limit
    is inv_kappa = 0.
    """

    __slots__ = ()
    kind = "lie"

    def __new__(cls, inv_kappa, zeta, alpha, beta) -> "LieTwist":
        inv_kappa = Fraction(inv_kappa)
        zeta = tuple(Fraction(v) for v in zeta)
        if len(zeta) != 4:
            raise TwistSpecError("zeta must have four components")
        if alpha == beta or not all(0 <= k < 4 for k in (alpha, beta)):
            raise TwistSpecError("generator indices must be distinct chart indices")
        for k in (alpha, beta):
            if zeta[k] != 0:
                raise TwistSpecError(
                    f"zeta must vanish on the generator pair, got zeta[{k}] != 0"
                )
        return super().__new__(cls, inv_kappa, zeta, alpha, beta)

    _make = _checked_make

    def legs(self, chart: Chart) -> Iterator[Leg]:
        """inv_kappa * zeta_lambda with P_lambda and M_{alpha beta}, for each lambda."""
        rot = lorentz_generator(chart, self.alpha, self.beta)
        for lam in range(4):
            yield self.inv_kappa * self.zeta[lam], momentum_generator(chart, lam), rot


class _QuadraticFields(NamedTuple):
    xi: Fraction
    indices: tuple[int, int, int, int]


class QuadraticTwist(_QuadraticFields):
    """Quadratic deformation: scale xi and four pairwise-distinct indices."""

    __slots__ = ()
    kind = "quadratic"

    def __new__(cls, xi, indices) -> "QuadraticTwist":
        xi = Fraction(xi)
        idx = tuple(int(k) for k in indices)
        if len(idx) != 4 or len(set(idx)) != 4 or not all(0 <= k < 4 for k in idx):
            raise TwistSpecError("indices must be four pairwise-distinct chart indices")
        return super().__new__(cls, xi, idx)

    _make = _checked_make

    def legs(self, chart: Chart) -> Iterator[Leg]:
        """xi with the rotation/boost generators M_{alpha beta} and M_{gamma delta}."""
        a, b, g, d = self.indices
        yield self.xi, lorentz_generator(chart, a, b), lorentz_generator(chart, g, d)


TwistSpec = Union[CanonicalTwist, LieTwist, QuadraticTwist]

# the [twist] config keys of each kind, besides "kind" itself
CONFIG_KEYS: dict[str, frozenset[str]] = {
    CanonicalTwist.kind: frozenset(f"theta{mu}{nu}" for mu in range(4) for nu in range(mu + 1, 4)),
    LieTwist.kind: frozenset({"inv_kappa", "zeta", "alpha", "beta"}),
    QuadraticTwist.kind: frozenset({"xi", "indices"}),
}


class LinearTwist(NamedTuple):
    """First-order twist operator O on a chart: deformed product = fg + O(f, g)."""

    spec: TwistSpec
    operator: BidiffOp

    @property
    def chart(self) -> Chart:
        return self.operator.chart


def build_linear_twist(spec: TwistSpec, chart: Chart) -> LinearTwist:
    """The twist operator of a parameter record on a chart.

    O = N * sum_legs parameter * wedge(left, right) with N = WEDGE_NORMALIZATION,
    assembled once from the terms (s, left, right) and (-s, right, left);
    legs with a zero parameter drop out.
    """
    terms = []
    for param, left, right in spec.legs(chart):
        s = WEDGE_NORMALIZATION * ComplexRational(param)
        terms += [(s, left, right), (-s, right, left)]
    return LinearTwist(spec, BidiffOp.from_terms(chart, terms))


def spec_to_config(spec: TwistSpec) -> dict[str, str]:
    """Flatten a parameter record into human-editable key/value pairs."""
    if isinstance(spec, CanonicalTwist):
        out = {"kind": spec.kind}
        for mu in range(4):
            for nu in range(mu + 1, 4):
                if spec.theta[mu][nu] != 0:
                    out[f"theta{mu}{nu}"] = str(spec.theta[mu][nu])
        return out
    if isinstance(spec, LieTwist):
        return {
            "kind": spec.kind,
            "inv_kappa": str(spec.inv_kappa),
            "zeta": " ".join(str(v) for v in spec.zeta),
            "alpha": str(spec.alpha),
            "beta": str(spec.beta),
        }
    if isinstance(spec, QuadraticTwist):
        return {
            "kind": spec.kind,
            "xi": str(spec.xi),
            "indices": " ".join(str(k) for k in spec.indices),
        }
    raise TypeError(f"not a twist parameter record: {type(spec).__name__}")


# The digits a config value may give the numerator and the denominator of an
# exact parameter.  A table entry multiplies at most two parameters, so its
# text stays well inside the interpreter's default limit on converting an int
# to text (4300 digits), which this package leaves as it is.
MAX_PARAMETER_DIGITS = 1000
_DIGIT_BOUND = 10**MAX_PARAMETER_DIGITS


def _parse(parse: type, key: str, text: str):
    """``parse(text)``; a value it rejects, or a fraction past
    ``MAX_PARAMETER_DIGITS``, raises ValueError naming ``key``."""
    try:
        value = parse(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse {key}: {text!r}") from None
    if parse is Fraction and max(abs(value.numerator), value.denominator) >= _DIGIT_BOUND:
        raise ValueError(
            f"{key} has more than {MAX_PARAMETER_DIGITS} digits in its numerator or denominator: {text!r}"
        )
    return value


def spec_from_config(items: dict[str, str]) -> TwistSpec:
    """Inverse of :func:`spec_to_config`; raises TwistSpecError on unknown keys.

    The canonical kind takes any subset of its keys (absent components are
    zero); the other kinds need every key of theirs.  A value that does not
    parse raises ValueError naming its key.
    """
    data = dict(items)
    kind = data.pop("kind", None)
    if kind not in CONFIG_KEYS:
        raise TwistSpecError(f"unknown twist kind {kind!r}")
    unknown = set(data) - CONFIG_KEYS[kind]
    if unknown:
        raise TwistSpecError(f"unknown {kind} keys: {sorted(unknown)}")
    if kind == CanonicalTwist.kind:
        return CanonicalTwist({(int(k[5]), int(k[6])): _parse(Fraction, k, v) for k, v in data.items()})
    missing = CONFIG_KEYS[kind] - set(data)
    if missing:
        raise TwistSpecError(f"missing {kind} keys: {sorted(missing)}")
    if kind == LieTwist.kind:
        inv_kappa = _parse(Fraction, "inv_kappa", data["inv_kappa"])
        zeta = tuple(_parse(Fraction, "zeta", v) for v in data["zeta"].split())
        alpha, beta = _parse(int, "alpha", data["alpha"]), _parse(int, "beta", data["beta"])
        return LieTwist(inv_kappa, zeta, alpha, beta)  # type: ignore[arg-type]
    indices = tuple(_parse(int, "indices", k) for k in data["indices"].split())
    return QuadraticTwist(_parse(Fraction, "xi", data["xi"]), indices)  # type: ignore[arg-type]
