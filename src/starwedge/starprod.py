"""Linearized star products, star commutators and coordinate commutator tables.

The deformed product is f*g = fg + O(f, g) with O the first-order twist
operator, and O(f, g) = sum C^{mu nu} d_mu f d_nu g with C its coefficient
matrix.  The commutator [f, g] = f*g - g*f is the contraction of C - C^t
with (f, g), and the coordinate commutator [c_mu, c_nu] is the entry
(C - C^t)^{mu nu} itself, which ``build_table`` reads off.  Canonical forms
are unique, so the undeformed part fg - gf is structurally zero and is never
built; the commutator is first order in the deformation parameter.
Associativity of the truncated product holds only up to second order in the
parameter and is deliberately not asserted anywhere.
``verify_flat_relations`` compares an engine-built flat-chart table entry by
entry against independent closed-form expressions for all three deformation
kinds.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .diffop import BidiffOp, Chart, ChartMismatchError, MINKOWSKI, TermMatrix, lowered_coordinate
from .diffop import _coefficient_matrix, _contract
from .expr import Expr, I, ZERO, _add_term, _from_terms, add, mul
from .grammar import to_text
from .rindler import METRIC_SIGNATURE
from .twists import (
    CanonicalTwist,
    LieTwist,
    LinearTwist,
    QuadraticTwist,
    TwistSpec,
    spec_to_config,
)

__all__ = [
    "star",
    "commutator",
    "CommutatorTable",
    "build_table",
    "expected_flat_table",
    "RelationEntry",
    "RelationReport",
    "verify_flat_relations",
    "table_to_text",
    "table_to_json_dict",
]

def star(f: Expr, g: Expr, twist: LinearTwist) -> Expr:
    """Deformed product truncated at first order in the deformation parameter."""
    return mul(f, g) + twist.operator.apply(f, g)


def commutator(f: Expr, g: Expr, twist: LinearTwist) -> Expr:
    """Star commutator f*g - g*f: the contraction of C - C^t with (f, g).

    With C the coefficient matrix of O, O(f, g) - O(g, f) is
    sum (C - C^t)^{mu nu} d_mu f d_nu g.  The undeformed products fg and gf
    cancel exactly and are never formed, and nothing assumes O is
    antisymmetric.  Each partial derivative of f and of g is taken at most
    once, and the result is the only expression built.
    """
    op = twist.operator
    return _contract(op.chart, _commutator_matrix(op), f, g)


def _commutator_matrix(op: BidiffOp) -> TermMatrix:
    """C - C^t for the coefficient matrix C of ``op``."""
    c = _coefficient_matrix(op)
    out: TermMatrix = [[{} for _ in range(4)] for _ in range(4)]
    for mu in range(4):
        for nu in range(mu + 1, 4):
            entry = dict(c[mu][nu])
            for mono, x in c[nu][mu].items():
                _add_term(entry, mono, -x)
            out[mu][nu] = entry
            out[nu][mu] = {mono: -x for mono, x in entry.items()}
    return out


class CommutatorTable(NamedTuple):
    """All six independent coordinate commutators of a twist on its chart."""

    spec: TwistSpec
    chart: Chart
    entries: dict[tuple[int, int], Expr]

    def entry(self, mu: int, nu: int) -> Expr:
        """Entry for any index order; antisymmetry fills the lower triangle."""
        if mu == nu:
            return ZERO
        if mu < nu:
            return self.entries[(mu, nu)]
        return -self.entries[(nu, mu)]


def build_table(twist: LinearTwist) -> CommutatorTable:
    """[c_mu, c_nu] for mu < nu, read off C - C^t: d_mu c_nu is 1 or 0."""
    matrix = _commutator_matrix(twist.operator)
    entries = {
        (mu, nu): _from_terms(matrix[mu][nu])
        for mu in range(4)
        for nu in range(mu + 1, 4)
    }
    return CommutatorTable(twist.spec, twist.chart, entries)


# --- independent closed forms for the flat chart ------------------------------

def _expected_canonical(spec: CanonicalTwist) -> dict[tuple[int, int], Expr]:
    return {
        (mu, nu): mul(I, spec.theta[mu][nu])
        for mu in range(4)
        for nu in range(mu + 1, 4)
    }


def _eta(k: int, m: int) -> int:
    """Component eta_km of the flat metric."""
    return METRIC_SIGNATURE[k] if k == m else 0


def _lie_structure_constant(spec: LieTwist, rho: int, mu: int, nu: int) -> Fraction:
    """Structure coefficient of the linear flat-chart relation, all indices low."""
    zeta_low = [Fraction(METRIC_SIGNATURE[k]) * spec.zeta[k] for k in range(4)]
    a, b = spec.alpha, spec.beta
    val = Fraction(0)
    val += spec.inv_kappa * zeta_low[mu] * (
        _eta(b, nu) * (1 if rho == a else 0) - _eta(a, nu) * (1 if rho == b else 0)
    )
    val += spec.inv_kappa * zeta_low[nu] * (
        _eta(a, mu) * (1 if rho == b else 0) - _eta(b, mu) * (1 if rho == a else 0)
    )
    return val


def _expected_lie(spec: LieTwist) -> dict[tuple[int, int], Expr]:
    out: dict[tuple[int, int], Expr] = {}
    for mu in range(4):
        for nu in range(mu + 1, 4):
            lowered = add(
                *(
                    mul(_lie_structure_constant(spec, rho, mu, nu), lowered_coordinate(MINKOWSKI, rho))
                    for rho in range(4)
                )
            )
            # the closed form is stated for lowered coordinates; raise both
            # free indices with the diagonal metric to compare with the
            # engine table of plain coordinate functions
            out[(mu, nu)] = mul(I, METRIC_SIGNATURE[mu] * METRIC_SIGNATURE[nu], lowered)
    return out


def _quadratic_rhs_lowered(spec: QuadraticTwist, mu: int, nu: int) -> Expr:
    """Linearized quadratic constraint right-hand side at lowered indices.

    The anticommutators contribute 2 x_rho x_sigma at leading order, and
    tanh(xi/2) linearizes to xi/2.
    """
    a, b, g, d = spec.indices

    def pair(r: int, s: int) -> Expr:
        return mul(2, lowered_coordinate(MINKOWSKI, r), lowered_coordinate(MINKOWSKI, s))

    bracket = add(
        mul(_eta(a, mu) * _eta(g, nu), pair(b, d)),
        mul(-_eta(a, mu) * _eta(d, nu), pair(b, g)),
        mul(-_eta(b, mu) * _eta(g, nu), pair(a, d)),
        mul(_eta(b, mu) * _eta(d, nu), pair(a, g)),
    )
    return mul(I, Fraction(spec.xi, 2), bracket)


def _expected_quadratic(spec: QuadraticTwist) -> dict[tuple[int, int], Expr]:
    out: dict[tuple[int, int], Expr] = {}
    for mu in range(4):
        for nu in range(mu + 1, 4):
            # the printed constraint populates only ordered pairs with mu from
            # the first generator pair and nu from the second; the full table
            # is its antisymmetric completion
            lowered = _quadratic_rhs_lowered(spec, mu, nu) - _quadratic_rhs_lowered(spec, nu, mu)
            out[(mu, nu)] = mul(METRIC_SIGNATURE[mu] * METRIC_SIGNATURE[nu], lowered)
    return out


def expected_flat_table(spec: TwistSpec) -> dict[tuple[int, int], Expr]:
    """Closed-form flat-chart commutators, independent of the twist machinery."""
    if isinstance(spec, CanonicalTwist):
        return _expected_canonical(spec)
    if isinstance(spec, LieTwist):
        return _expected_lie(spec)
    if isinstance(spec, QuadraticTwist):
        return _expected_quadratic(spec)
    raise TypeError(f"not a twist parameter record: {type(spec).__name__}")


class RelationEntry(NamedTuple):
    mu: int
    nu: int
    expected: Expr
    got: Expr

    @property
    def passed(self) -> bool:
        return self.got == self.expected

    @property
    def residual(self) -> Expr:
        return self.got - self.expected


class RelationReport(NamedTuple):
    spec: TwistSpec
    entries: tuple[RelationEntry, ...]

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def failures(self) -> list[RelationEntry]:
        return [e for e in self.entries if not e.passed]


def verify_flat_relations(twist: LinearTwist) -> RelationReport:
    """Compare the engine table against the closed forms, entry by entry.

    Canonical forms are unique, so an entry passes iff it is structurally
    equal to its closed form.
    """
    if twist.chart != MINKOWSKI:
        raise ChartMismatchError("closed-form relations are stated on the flat chart")
    table = build_table(twist)
    expected = expected_flat_table(twist.spec)
    entries = (
        RelationEntry(mu, nu, want, table.entries[(mu, nu)])
        for (mu, nu), want in sorted(expected.items())
    )
    return RelationReport(twist.spec, tuple(entries))


# --- export -------------------------------------------------------------------

def table_to_text(table: CommutatorTable) -> str:
    names = table.chart.coords
    lines = [f"# chart: {table.chart.name}"]
    for key, val in spec_to_config(table.spec).items():
        lines.append(f"# {key} = {val}")
    body = []
    for (mu, nu), e in sorted(table.entries.items()):
        body.append((f"[{names[mu]}, {names[nu]}]", to_text(e)))
    width = max(len(lhs) for lhs, _ in body)
    lines.extend(f"{lhs.ljust(width)} = {rhs}" for lhs, rhs in body)
    return "\n".join(lines) + "\n"


def table_to_json_dict(table: CommutatorTable) -> dict:
    return {
        "chart": table.chart.name,
        "twist": spec_to_config(table.spec),
        "entries": {
            f"{table.chart.coords[mu]},{table.chart.coords[nu]}": to_text(e)
            for (mu, nu), e in sorted(table.entries.items())
        },
    }

