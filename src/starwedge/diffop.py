"""First-order differential operators and tensor-leg (bidifferential) operators on a chart.

A ``DiffOp`` is a vector field: one coefficient expression per chart
coordinate, acting as ``sum_mu coeff_mu * d/d(coord_mu)``; coefficients
multiply from the left, after the derivative has acted.  Every twist leg is a
momentum or Lorentz generator, so first order is all the package needs.  A
``BidiffOp`` is a finite sum of ``scalar * (left tensor right)`` legs acting
on a pair of function slots.

Operators are immutable values.  The momentum and Lorentz generators of each
chart, like the chart transport ``rindler.partial_transport`` they are built
from, are shared values built once: each is cached on its (chart, indices)
arguments, a domain of at most 4 + 12 operators per chart.  ``DiffOp.pretty``
computes its text, the sort key of tensor legs, once per operator, and a
``DiffOp`` hashes its fields once, since legs key the dicts of ``BidiffOp``.
``pullback`` itself is not cached, so transporting a flat operator always
recomputes the chain rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from types import MappingProxyType
from typing import Iterable

from . import rindler
from .expr import (
    CR_ONE,
    free_symbols,
    ComplexRational,
    Expr,
    ExprLike,
    I,
    TermMap,
    ZERO,
    _as_terms,
    _diff_terms,
    _from_terms,
    _mul_terms,
    mul,
    substitute,
    summands,
    sym,
)
from .grammar import coeff_text, to_text

__all__ = [
    "Chart",
    "MINKOWSKI",
    "RINDLER",
    "CHARTS",
    "ChartMismatchError",
    "DiffOp",
    "BidiffOp",
    "wedge",
    "momentum_generator",
    "lorentz_generator",
    "lowered_coordinate",
]


class ChartMismatchError(ValueError):
    """Operands live on different charts."""


@dataclass(frozen=True)
class Chart:
    name: str
    coords: tuple[str, str, str, str]


MINKOWSKI = Chart("minkowski", rindler.MINKOWSKI_COORDS)
RINDLER = Chart("rindler", rindler.RINDLER_COORDS)
CHARTS = MappingProxyType({chart.name: chart for chart in (MINKOWSKI, RINDLER)})

_FOREIGN_COORDS = {
    MINKOWSKI.name: frozenset(RINDLER.coords),
    RINDLER.name: frozenset(MINKOWSKI.coords),
}


def _check_same_chart(a: Chart, b: Chart) -> None:
    if a != b:
        raise ChartMismatchError(f"chart mismatch: {a.name} vs {b.name}")


def _check_function_chart(chart: Chart, f: Expr) -> None:
    foreign = free_symbols(f) & _FOREIGN_COORDS[chart.name]
    if foreign:
        raise ChartMismatchError(
            f"function carries {sorted(foreign)} from the other chart"
        )


@dataclass(frozen=True)
class DiffOp:
    """Vector field on one chart: ``coeffs[mu]`` multiplies d/d(coords[mu])."""

    chart: Chart
    coeffs: tuple[Expr, Expr, Expr, Expr]

    @staticmethod
    def partial(chart: Chart, mu: int, coeff: ExprLike = 1) -> "DiffOp":
        if mu not in (0, 1, 2, 3):
            raise ValueError(f"coordinate index out of range: {mu}")
        coeffs = [ZERO] * 4
        coeffs[mu] = mul(coeff)
        return DiffOp(chart, tuple(coeffs))

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (ZERO,) * 4

    def apply(self, f: Expr) -> Expr:
        """Act on a function slot: sum of coeff_mu * (d f / d coord_mu)."""
        _check_function_chart(self.chart, f)
        return _from_terms(self._act(_as_terms(f)))

    def _act(self, f: TermMap) -> TermMap:
        """The action of :meth:`apply` on the term map of a function."""
        out: TermMap = {}
        for coeff, name in zip(self.coeffs, self.chart.coords):
            coeff_terms = _as_terms(coeff)
            if coeff_terms:
                _mul_terms(coeff_terms, _diff_terms(f, name), out)
        return out

    def scale(self, factor: ExprLike) -> "DiffOp":
        return DiffOp(self.chart, tuple(mul(factor, c) for c in self.coeffs))

    def __add__(self, other: "DiffOp") -> "DiffOp":
        _check_same_chart(self.chart, other.chart)
        return DiffOp(self.chart, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "DiffOp") -> "DiffOp":
        return self + other.scale(-1)

    def __neg__(self) -> "DiffOp":
        return self.scale(-1)

    def pullback(self) -> "DiffOp":
        """Transport a flat-chart vector field to the accelerated chart.

        Each coefficient moves through the coordinate map, and its first
        derivative is replaced by its chain-rule image.
        """
        if self.chart != MINKOWSKI:
            raise ChartMismatchError("pullback starts from the flat chart")
        out = [ZERO] * 4
        for mu, coeff in enumerate(self.coeffs):
            if coeff == ZERO:
                continue
            moved = substitute(coeff, rindler.STANDARD_MAP)
            for t_coeff, nu in rindler.partial_transport(mu):
                out[nu] = out[nu] + mul(moved, t_coeff)
        return DiffOp(RINDLER, tuple(out))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # legs key the dicts of BidiffOp; see __reduce__ for why it is not pickled
        return hash((self.chart, self.coeffs))

    def __reduce__(self) -> tuple:
        # by the fields alone: a stored hash of strings is only valid in the
        # interpreter that computed it, and the text is cheap to rebuild
        return DiffOp, (self.chart, self.coeffs)

    def pretty(self) -> str:
        return self._text

    @cached_property
    def _text(self) -> str:
        # descending coordinate order; BidiffOp.from_terms sorts legs by this text
        chunks = []
        for mu in reversed(range(4)):
            coeff = self.coeffs[mu]
            if coeff == ZERO:
                continue
            txt = to_text(coeff)
            if len(summands(coeff)) > 1:
                txt = f"({txt})"
            chunks.append(f"{txt}*d/d{self.chart.coords[mu]}")
        if not chunks:
            return "0"
        out = chunks[0]
        for c in chunks[1:]:
            out += f" - {c[1:]}" if c.startswith("-") else f" + {c}"
        return out


@dataclass(frozen=True)
class BidiffOp:
    """Normalized sum of scalar * (left tensor right) legs."""

    chart: Chart
    terms: tuple[tuple[ComplexRational, DiffOp, DiffOp], ...]

    @staticmethod
    def from_terms(
        chart: Chart, terms: Iterable[tuple[ComplexRational, DiffOp, DiffOp]]
    ) -> "BidiffOp":
        acc: dict[tuple[DiffOp, DiffOp], ComplexRational] = {}
        for scalar, left, right in terms:
            _check_same_chart(chart, left.chart)
            _check_same_chart(chart, right.chart)
            if left.is_zero or right.is_zero or scalar.is_zero:
                continue
            key = (left, right)
            cur = acc.get(key)
            acc[key] = scalar if cur is None else cur + scalar
        kept = []
        for (left, right), scalar in acc.items():
            if not scalar.is_zero:
                kept.append((scalar, left, right))
        kept.sort(key=lambda t: (t[1].pretty(), t[2].pretty()))
        return BidiffOp(chart, tuple(kept))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def apply(self, f: Expr, g: Expr) -> Expr:
        """Act on the pair of slots and multiply the legs pointwise.

        f and g become term maps once.  Each distinct left leg acts on f once
        and each distinct right leg on g once; terms that share a leg reuse
        its result.  The scalar multiplies into the left leg's term map, and
        every scalar * left(f) * right(g) accumulates in place into one term
        map; the expression is built once, at the end.
        """
        _check_function_chart(self.chart, f)
        _check_function_chart(self.chart, g)
        f_terms, g_terms = _as_terms(f), _as_terms(g)
        on_f: dict[DiffOp, TermMap] = {}
        on_g: dict[DiffOp, TermMap] = {}
        out: TermMap = {}
        for scalar, left, right in self.terms:
            if left not in on_f:
                on_f[left] = left._act(f_terms)
            if right not in on_g:
                on_g[right] = right._act(g_terms)
            scaled = {mono: scalar * c for mono, c in on_f[left].items()}
            _mul_terms(scaled, on_g[right], out)
        return _from_terms(out)

    def scale(self, scalar: ComplexRational) -> "BidiffOp":
        return BidiffOp.from_terms(
            self.chart, [(scalar * s, l, r) for s, l, r in self.terms]
        )

    def __add__(self, other: "BidiffOp") -> "BidiffOp":
        _check_same_chart(self.chart, other.chart)
        return BidiffOp.from_terms(self.chart, (*self.terms, *other.terms))

    def pullback(self) -> "BidiffOp":
        """Transport both tensor legs to the accelerated chart."""
        return BidiffOp.from_terms(
            RINDLER, [(s, l.pullback(), r.pullback()) for s, l, r in self.terms]
        )

    def pretty(self) -> str:
        if not self.terms:
            return "0"
        lines = []
        for scalar, left, right in self.terms:
            lines.append(f"({coeff_text(scalar)}) * [{left.pretty()}] (x) [{right.pretty()}]")
        return "\n".join(lines)


def wedge(a: DiffOp, b: DiffOp) -> BidiffOp:
    """Antisymmetric tensor combination (a tensor b) - (b tensor a)."""
    _check_same_chart(a.chart, b.chart)
    return BidiffOp.from_terms(a.chart, [(CR_ONE, a, b), (-CR_ONE, b, a)])


def lowered_coordinate(chart: Chart, mu: int) -> Expr:
    """Coordinate function with its index lowered by the (-,+,+,+) metric."""
    return mul(rindler.METRIC_SIGNATURE[mu], sym(chart.coords[mu]))


def _on_chart(chart: Chart, flat: DiffOp) -> DiffOp:
    """A flat-chart generator as it acts on ``chart``."""
    if chart == MINKOWSKI:
        return flat
    if chart == RINDLER:
        return flat.pullback()
    raise ChartMismatchError(f"unknown chart {chart.name}")


@cache
def momentum_generator(chart: Chart, mu: int) -> DiffOp:
    """Translation generator i d/dx_mu; transported if the chart is accelerated."""
    return _on_chart(chart, DiffOp.partial(MINKOWSKI, mu, I))


@cache
def lorentz_generator(chart: Chart, alpha: int, beta: int) -> DiffOp:
    """Rotation/boost generator i (x_alpha d_beta - x_beta d_alpha).

    The coordinate factors carry lowered indices via the (-,+,+,+) metric;
    coordinates multiply to the left of the derivatives.  On the accelerated
    chart this is the chain-rule transport of the flat-chart generator.
    """
    if alpha == beta:
        raise ValueError("generator indices must differ")
    x_a = lowered_coordinate(MINKOWSKI, alpha)
    x_b = lowered_coordinate(MINKOWSKI, beta)
    flat = DiffOp.partial(MINKOWSKI, beta, mul(I, x_a)) + DiffOp.partial(
        MINKOWSKI, alpha, mul(-1, I, x_b)
    )
    return _on_chart(chart, flat)
