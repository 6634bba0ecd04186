"""First-order differential operators and tensor-leg (bidifferential) operators on a chart.

A ``DiffOp`` is a vector field: one coefficient expression per chart
coordinate, acting as ``sum_mu coeff_mu * d/d(coord_mu)``; coefficients
multiply from the left, after the derivative has acted.  Every twist leg is a
momentum or Lorentz generator, so first order is all the package needs.  A
``BidiffOp`` is a finite sum of ``scalar * (left tensor right)`` legs acting
on a pair of function slots.  It acts through its 4x4 coefficient matrix,
C^{mu nu} = sum scalar * left^mu * right^nu, so that
O(f, g) = sum C^{mu nu} d_mu f d_nu g: each partial derivative of each slot
is taken at most once, whatever the number of legs, and no leg acts on a slot.

Operators are immutable values.  The momentum and Lorentz generators of each
chart, like the chart transport ``rindler.partial_transport`` they are built
from, are shared values built once: each is cached on its (chart, indices)
arguments, a domain of at most 4 + 12 operators per chart.  ``DiffOp.pretty``
computes its text, the sort key of tensor legs, once per operator, and a
``DiffOp`` hashes its fields once, since legs key the dicts of ``BidiffOp``.
A ``BidiffOp`` builds its coefficient matrix C on first use and keeps it for
its life, as it keeps C - C^t for the star commutator, so every action and
table of one operator shares one C.
``pullback`` itself is not cached, so transporting a flat operator always
recomputes the chain rule.
"""

from __future__ import annotations

from functools import cache
from types import MappingProxyType
from typing import Iterable, NamedTuple

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
    _setattr,
    _sum_of_products,
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


class Chart(NamedTuple):
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


class DiffOp:
    """Vector field on one chart: ``coeffs[mu]`` multiplies d/d(coords[mu]).

    The fields ``chart`` and ``coeffs`` are set once by construction, and
    assigning or deleting any attribute raises.  Two operators are equal when
    their fields are.  The slots ``_hash`` and ``_text`` stay unset until
    ``hash`` and :meth:`pretty` first fill them.
    """

    __slots__ = ("chart", "coeffs", "_hash", "_text")

    def __init__(self, chart: Chart, coeffs: tuple[Expr, Expr, Expr, Expr]) -> None:
        _setattr(self, "chart", chart)
        _setattr(self, "coeffs", coeffs)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not DiffOp:
            return NotImplemented
        return self is other or (self.chart == other.chart and self.coeffs == other.coeffs)

    def __repr__(self) -> str:
        return f"DiffOp(chart={self.chart!r}, coeffs={self.coeffs!r})"

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
        f_terms = _as_terms(f)
        out: TermMap = {}
        for coeff, name in zip(self.coeffs, self.chart.coords):
            coeff_terms = _as_terms(coeff)
            if coeff_terms:
                _mul_terms(coeff_terms, _diff_terms(f_terms, name), out)
        return _from_terms(out)

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
        # legs key the dicts of BidiffOp; see __reduce__ for why it is not pickled
        try:
            return self._hash
        except AttributeError:
            h = hash((self.chart, self.coeffs))
            _setattr(self, "_hash", h)
            return h

    def __reduce__(self) -> tuple:
        # by the fields alone: a stored hash of strings is only valid in the
        # interpreter that computed it, and the text is cheap to rebuild
        return DiffOp, (self.chart, self.coeffs)

    def pretty(self) -> str:
        try:
            return self._text
        except AttributeError:
            text = self._build_text()
            _setattr(self, "_text", text)
            return text

    def _build_text(self) -> str:
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


class BidiffOp:
    """Normalized sum of scalar * (left tensor right) legs.

    The fields ``chart`` and ``terms`` are set once by construction, and
    assigning or deleting any attribute raises.  Two operators are equal when
    their fields are, and one pickles by its fields alone.  The slot
    ``_matrix`` (the coefficient matrix C) stays unset until
    :func:`_coefficient_matrix` first fills it, and ``_commutator``
    (C - C^t) until ``starprod._commutator_matrix`` does.  Their term maps
    are kept for the operator's life, so no reader may change them.
    """

    __slots__ = ("chart", "terms", "_matrix", "_commutator")

    def __init__(self, chart: Chart, terms: tuple[tuple[ComplexRational, DiffOp, DiffOp], ...]) -> None:
        _setattr(self, "chart", chart)
        _setattr(self, "terms", terms)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not BidiffOp:
            return NotImplemented
        return self is other or (self.chart == other.chart and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.chart, self.terms))

    def __repr__(self) -> str:
        return f"BidiffOp(chart={self.chart!r}, terms={self.terms!r})"

    def __reduce__(self) -> tuple:
        # by the fields alone: the kept matrices are rebuilt on first use
        return BidiffOp, (self.chart, self.terms)

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
        """Act on the pair of slots: the contraction of its coefficient matrix."""
        return _contract(self.chart, _coefficient_matrix(self), f, g)

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


# A 4x4 matrix of term maps, indexed [mu][nu] by chart coordinates.
TermMatrix = list[list[TermMap]]


def _coefficient_matrix(op: BidiffOp) -> TermMatrix:
    """The coefficient matrix C of ``op``, so that op(f, g) = sum C^{mu nu} d_mu f d_nu g.

    C^{mu nu} sums scalar * left.coeffs[mu] * right.coeffs[nu] over the terms
    of ``op``.  It is built from the legs' small coefficients on the first
    call and kept in ``op._matrix``; the caller must not change it.
    """
    try:
        return op._matrix
    except AttributeError:
        pass
    c: TermMatrix = [[{} for _ in range(4)] for _ in range(4)]
    for scalar, left, right in op.terms:
        right_terms = [_as_terms(r) for r in right.coeffs]
        for row, coeff in zip(c, left.coeffs):
            scaled = {mono: scalar * x for mono, x in _as_terms(coeff).items()}
            if scaled:
                for entry, r in zip(row, right_terms):
                    _mul_terms(scaled, r, entry)
    _setattr(op, "_matrix", c)
    return c


def _contract(chart: Chart, matrix: TermMatrix, f: Expr, g: Expr) -> Expr:
    """sum_{mu nu} matrix[mu][nu] * d_mu f * d_nu g, built as one expression.

    Row by row, row_mu = sum_nu matrix[mu][nu] * d_nu g, and the result is
    sum_mu d_mu f * row_mu: one call of ``expr._sum_of_products``, which
    merges monomials for a small contraction and multiplies packed exponent
    integers for a large one.  Each partial derivative of f and of g is taken
    at most once, and only where its row or column of the matrix is not all
    zero.
    """
    _check_function_chart(chart, f)
    _check_function_chart(chart, g)
    f_terms, g_terms = _as_terms(f), _as_terms(g)
    dg: dict[int, TermMap] = {}
    rows = []
    for mu, entries in enumerate(matrix):
        if not any(entries):
            continue
        df = _diff_terms(f_terms, chart.coords[mu])
        if not df:
            continue
        pairs = []
        for nu, entry in enumerate(entries):
            if entry:
                if nu not in dg:
                    dg[nu] = _diff_terms(g_terms, chart.coords[nu])
                pairs.append((dg[nu], entry))
        rows.append((df, pairs))
    return _from_terms(_sum_of_products(rows))


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
