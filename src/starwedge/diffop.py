"""Differential operators and tensor-leg (bidifferential) operators on a chart.

A ``DiffOp`` is a finite sum of terms ``coefficient * d^k``, where the
derivative part is a mixed partial described by a multi-index over the chart
coordinates and the coefficient is an expression; coefficients always
multiply from the left, after the derivatives have acted.  A ``BidiffOp`` is
a finite sum of ``scalar * (left tensor right)`` legs acting on a pair of
function slots.

Operators are immutable values.  The momentum and Lorentz generators of each
chart, like the chart transport ``rindler.partial_transport`` they are built
from, are shared values built once: each is cached on its (chart, indices)
arguments, a domain of at most 4 + 12 operators per chart.  ``DiffOp.pretty``
computes its text, the sort key of tensor legs, once per operator.
``pullback`` itself is not cached, so transporting a flat operator always
recomputes the chain rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
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
    _add_term,
    _as_terms,
    _diff_terms,
    _from_terms,
    _mul_terms,
    mul,
    substitute,
    sym,
)
from .grammar import coeff_text, to_text

__all__ = [
    "Chart",
    "MINKOWSKI",
    "RINDLER",
    "ChartMismatchError",
    "PullbackOrderError",
    "DiffOp",
    "BidiffOp",
    "wedge",
    "momentum_generator",
    "lorentz_generator",
    "lowered_coordinate",
]

MultiIndex = tuple[int, int, int, int]
ZERO_MULTI: MultiIndex = (0, 0, 0, 0)


def _unit_multi(mu: int) -> MultiIndex:
    out = [0, 0, 0, 0]
    out[mu] = 1
    return (out[0], out[1], out[2], out[3])


class ChartMismatchError(ValueError):
    """Operands live on different charts."""


class PullbackOrderError(ValueError):
    """Only first-order operators can be transported to the accelerated chart."""


@dataclass(frozen=True)
class Chart:
    name: str
    coords: tuple[str, str, str, str]
    acceleration: str | None = None

    @property
    def signature(self) -> tuple[int, int, int, int]:
        return rindler.METRIC_SIGNATURE


MINKOWSKI = Chart("minkowski", rindler.MINKOWSKI_COORDS)
RINDLER = Chart("rindler", rindler.RINDLER_COORDS, rindler.ACCELERATION)

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
    """Normalized sum of (coefficient, multi-index) terms on one chart."""

    chart: Chart
    terms: tuple[tuple[Expr, MultiIndex], ...]

    @staticmethod
    def from_terms(chart: Chart, terms: Iterable[tuple[Expr, MultiIndex]]) -> "DiffOp":
        acc: dict[MultiIndex, Expr] = {}
        for coeff, multi in terms:
            if len(multi) != 4 or any(k < 0 for k in multi):
                raise ValueError(f"bad multi-index {multi}")
            acc[multi] = acc.get(multi, ZERO) + coeff
        kept = tuple(
            (c, m) for m, c in sorted(acc.items()) if c != ZERO
        )
        return DiffOp(chart, kept)

    @staticmethod
    def zero(chart: Chart) -> "DiffOp":
        return DiffOp(chart, ())

    @staticmethod
    def partial(chart: Chart, mu: int, coeff: ExprLike = 1) -> "DiffOp":
        if mu not in (0, 1, 2, 3):
            raise ValueError(f"coordinate index out of range: {mu}")
        multi = _unit_multi(mu)
        return DiffOp.from_terms(chart, [(mul(coeff), multi)])

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def order(self) -> int:
        return max((sum(m) for _, m in self.terms), default=0)

    def apply(self, f: Expr) -> Expr:
        """Act on a function slot: sum of coeff * (mixed partial of f)."""
        _check_function_chart(self.chart, f)
        return _from_terms(self._act(_as_terms(f)))

    def _act(self, f: TermMap) -> TermMap:
        """The action of :meth:`apply` on the term map of a function."""
        out: TermMap = {}
        for coeff, multi in self.terms:
            d = f
            for idx, order in enumerate(multi):
                for _ in range(order):
                    d = _diff_terms(d, self.chart.coords[idx])
            for mono, c in _mul_terms(_as_terms(coeff), d).items():
                _add_term(out, mono, c)
        return out

    def scale(self, factor: ExprLike) -> "DiffOp":
        return DiffOp.from_terms(self.chart, [(mul(factor, c), m) for c, m in self.terms])

    def __add__(self, other: "DiffOp") -> "DiffOp":
        _check_same_chart(self.chart, other.chart)
        return DiffOp.from_terms(self.chart, (*self.terms, *other.terms))

    def __sub__(self, other: "DiffOp") -> "DiffOp":
        return self + other.scale(-1)

    def __neg__(self) -> "DiffOp":
        return self.scale(-1)

    def pullback(self) -> "DiffOp":
        """Transport a first-order flat-chart operator to the accelerated chart.

        Coefficients move through the coordinate map; each first derivative is
        replaced by its chain-rule image.  Terms of derivative order two or
        higher are rejected: every generator used here is first order, and the
        general jet transformation is deliberately out of scope.
        """
        if self.chart != MINKOWSKI:
            raise ChartMismatchError("pullback starts from the flat chart")
        coord_map = rindler.standard_map()
        out: list[tuple[Expr, MultiIndex]] = []
        for coeff, multi in self.terms:
            order = sum(multi)
            if order > 1:
                raise PullbackOrderError(
                    f"cannot pull back a term of derivative order {order}"
                )
            moved = substitute(coeff, coord_map)
            if order == 0:
                out.append((moved, ZERO_MULTI))
                continue
            mu = multi.index(1)
            for t_coeff, z_idx in rindler.partial_transport(mu):
                out.append((mul(moved, t_coeff), _unit_multi(z_idx)))
        return DiffOp.from_terms(RINDLER, out)

    def pretty(self) -> str:
        return self._text

    @cached_property
    def _text(self) -> str:
        if not self.terms:
            return "0"
        from .expr import Add

        chunks = []
        for coeff, multi in self.terms:
            txt = to_text(coeff)
            if isinstance(coeff, Add):
                txt = f"({txt})"
            d = _derivative_text(self.chart, multi)
            chunks.append(txt if not d else f"{txt}*{d}")
        out = chunks[0]
        for c in chunks[1:]:
            out += f" - {c[1:]}" if c.startswith("-") else f" + {c}"
        return out


def _derivative_text(chart: Chart, multi: MultiIndex) -> str:
    total = sum(multi)
    if total == 0:
        return ""
    num = "d" if total == 1 else f"d^{total}"
    parts = []
    for idx, order in enumerate(multi):
        if order == 0:
            continue
        name = chart.coords[idx]
        parts.append(f"d{name}" if order == 1 else f"d{name}^{order}")
    if len(parts) == 1:
        return f"{num}/{parts[0]}"
    return f"{num}/(" + " ".join(parts) + ")"


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

    @staticmethod
    def zero(chart: Chart) -> "BidiffOp":
        return BidiffOp(chart, ())

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def apply(self, f: Expr, g: Expr) -> Expr:
        """Act on the pair of slots and multiply the legs pointwise.

        f and g become term maps once.  Each distinct left leg acts on f once
        and each distinct right leg on g once; terms that share a leg reuse
        its result.  Every scalar * left(f) * right(g) accumulates into one
        term map, and the expression is built once, at the end.
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
            for mono, c in _mul_terms(on_f[left], on_g[right]).items():
                _add_term(out, mono, scalar * c)
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
    return mul(chart.signature[mu], sym(chart.coords[mu]))


@cache
def momentum_generator(chart: Chart, mu: int) -> DiffOp:
    """Translation generator i d/dx_mu; transported if the chart is accelerated."""
    flat = DiffOp.partial(MINKOWSKI, mu, I)
    if chart == MINKOWSKI:
        return flat
    if chart == RINDLER:
        return flat.pullback()
    raise ChartMismatchError(f"unknown chart {chart.name}")


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
    if chart == MINKOWSKI:
        return flat
    if chart == RINDLER:
        return flat.pullback()
    raise ChartMismatchError(f"unknown chart {chart.name}")
