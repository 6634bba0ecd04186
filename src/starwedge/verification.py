"""Named invariant suite covering every module, runnable as one report.

Each check returns what it found, ``(passed, measured, detail)``, and
``run_all_checks`` names each finding and attaches its tolerance.  The suite
is deterministic for a given seed, and the report serializes byte-identically
across runs with identical inputs.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable

from . import rindler
from .diffop import (
    MINKOWSKI,
    RINDLER,
    lorentz_generator,
    momentum_generator,
    wedge,
)
from .expr import (
    _FN_RULES,
    _fn,
    CR_ONE,
    FUNCTIONS,
    Expr,
    I,
    ONE,
    ZERO,
    add,
    cosh,
    differentiate,
    eval_numeric,
    exp,
    mul,
    simplify,
    sinh,
    substitute,
    summands,
    sym,
)
from .gammafn import complex_gamma, gamma_modulus_sq_imag_axis
from .grammar import parse, to_text
from .quadrature import damped_mode_integral
from .spectrum import (
    ModeParams,
    correction_integral_closed,
    correction_integral_quadrature,
    deformed_correction_quadrature,
    deformed_f_theta,
    deformed_power,
    f_closed,
    f_quadrature,
    hawking_temperature,
    theta01_from_engine,
)
from .starprod import build_table, commutator, star, verify_flat_relations
from .twists import CanonicalTwist, LieTwist, QuadraticTwist, build_linear_twist

if TYPE_CHECKING:
    import numpy as np

__all__ = ["CheckResult", "DEFAULT_TOLERANCES", "run_all_checks", "report_dict"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float | None
    tolerance: float | None
    detail: str


Finding = tuple[bool, float | None, str]  # (passed, measured, detail)


DEFAULT_TOLERANCES: dict[str, float] = {
    "expr_simplify_preserves_eval": 1e-12,
    "expr_differentiate_rules": 1e-12,
    "diffop_chain_rule": 1e-9,
    "twist_spectrum_integrand_consistency": 1e-9,
    "gamma_modulus_identity": 1e-12,
    "planck_equivalence": 1e-10,
    "quadrature_agreement": 1e-6,
    "correction_integral_agreement": 1e-6,
    "deformed_correction_assembly": 1e-6,
    "deformed_deviation_closed": 1e-6,
    "deformed_deviation_finite_difference": 1e-4,
    "geometry_roundtrip": 1e-12,
}


# --- random expression recipes -------------------------------------------------

_RECIPE_SYMBOLS = ("z0", "z1", "z2", "z3", "a", "w")


def _random_recipe(rng: random.Random, depth: int):
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            return ("int", rng.randint(-3, 3))
        return ("sym", rng.choice(_RECIPE_SYMBOLS))
    kind = rng.choice(("add", "add", "mul", "mul", "pow", "fn", "invsym"))
    if kind == "add" or kind == "mul":
        return (kind, _random_recipe(rng, depth - 1), _random_recipe(rng, depth - 1))
    if kind == "pow":
        return ("pow", _random_recipe(rng, depth - 1), rng.randint(0, 3))
    if kind == "invsym":
        return ("pow", ("sym", rng.choice(_RECIPE_SYMBOLS)), rng.randint(-2, -1))
    return ("fn", rng.choice(FUNCTIONS), _random_recipe(rng, depth - 2))


def _recipe_to_expr(r) -> Expr:
    tag = r[0]
    if tag == "int":
        return mul(r[1])
    if tag == "sym":
        return sym(r[1])
    if tag == "add":
        return _recipe_to_expr(r[1]) + _recipe_to_expr(r[2])
    if tag == "mul":
        return _recipe_to_expr(r[1]) * _recipe_to_expr(r[2])
    if tag == "pow":
        return _recipe_to_expr(r[1]) ** r[2]
    if tag == "fn":
        return _fn(r[1], _recipe_to_expr(r[2]))
    raise ValueError(tag)


def _recipe_eval(r, b: dict[str, complex]) -> complex:
    tag = r[0]
    if tag == "int":
        return complex(r[1])
    if tag == "sym":
        return b[r[1]]
    if tag == "add":
        return _recipe_eval(r[1], b) + _recipe_eval(r[2], b)
    if tag == "mul":
        return _recipe_eval(r[1], b) * _recipe_eval(r[2], b)
    if tag == "pow":
        return _recipe_eval(r[1], b) ** r[2]
    if tag == "fn":
        return _FN_RULES[r[1]].value(_recipe_eval(r[2], b))
    raise ValueError(tag)


def _random_bindings(rng: random.Random) -> dict[str, complex]:
    return {n: rng.uniform(0.5, 2.0) for n in _RECIPE_SYMBOLS}


# --- expression checks -----------------------------------------------------------

def _check_simplify_preserves_eval(rng: random.Random, tol: float) -> Finding:
    """The canonical form evaluates to the recipe, relative to its rounding scale.

    The canonical form is a sum of expanded terms that can cancel: it is exact,
    but evaluating it in double rounds at the size of its largest terms, not of
    its value.  So the residual is measured against 1 + sum |term|.
    """
    worst = 0.0
    for _ in range(100):
        recipe = _random_recipe(rng, 6)
        e = _recipe_to_expr(recipe)
        terms = summands(e)
        for _ in range(3):
            b = _random_bindings(rng)
            try:
                direct = _recipe_eval(recipe, b)
                values = [eval_numeric(t, b) for t in terms]
            except (OverflowError, ZeroDivisionError):
                continue
            canon = sum(values)
            if not (cmath.isfinite(direct) and cmath.isfinite(canon)):
                continue
            scale = 1.0 + sum(abs(v) for v in values)
            worst = max(worst, abs(direct - canon) / scale)
    return (
        worst <= tol, worst,
        "canonical form agrees with direct recipe evaluation, relative to 1 + sum |term|",
    )


def _check_differentiate_rules(rng: random.Random, tol: float) -> Finding:
    worst = 0.0
    structural_ok = True
    for _ in range(40):
        f = _recipe_to_expr(_random_recipe(rng, 5))
        g = _recipe_to_expr(_random_recipe(rng, 5))
        v = rng.choice(_RECIPE_SYMBOLS)
        lin = differentiate(3 * f - 2 * g, v) - (3 * differentiate(f, v) - 2 * differentiate(g, v))
        prod = differentiate(f * g, v) - (differentiate(f, v) * g + f * differentiate(g, v))
        structural_ok = structural_ok and lin == ZERO and prod == ZERO
        for resid in (lin, prod):
            if resid != ZERO:
                b = _random_bindings(rng)
                try:
                    worst = max(worst, abs(eval_numeric(resid, b)))
                except (OverflowError, ZeroDivisionError):
                    worst = max(worst, math.inf)
    return structural_ok and worst <= tol, worst, "linearity and product rule hold structurally"


def _check_canonical_idempotent(rng: random.Random, tol: float | None) -> Finding:
    ok = True
    for _ in range(60):
        e = _recipe_to_expr(_random_recipe(rng, 5))
        ok = ok and simplify(e) == e and parse(to_text(e)) == e
    return ok, None, "simplify is a fixed point and the grammar round-trips"


# --- operator checks -------------------------------------------------------------

def _check_chain_rule(rng: random.Random, tol: float) -> Finding:
    """Transported operators on substituted polynomials, against the flat action.

    Both sides are canonical forms, so the comparison is structural and
    ``tol`` is only reported.
    """
    coord_map = rindler.STANDARD_MAP
    xs = [sym(n) for n in rindler.MINKOWSKI_COORDS]
    ok = True
    flat = [momentum_generator(MINKOWSKI, mu) for mu in range(4)] + [
        lorentz_generator(MINKOWSKI, a, b) for a in range(4) for b in range(a + 1, 4)
    ]
    for d in flat:
        f = add(
            *(
                mul(rng.randint(-3, 3), xs[rng.randrange(4)] ** rng.randint(1, 2), xs[rng.randrange(4)])
                for _ in range(3)
            )
        )
        lhs = d.pullback().apply(substitute(f, coord_map))
        rhs = substitute(d.apply(f), coord_map)
        ok = ok and lhs == rhs
    return ok, None, "transported operators act as the substituted flat action"


def _check_apply_linearity(rng: random.Random, tol: float | None) -> Finding:
    xs = [sym(n) for n in rindler.MINKOWSKI_COORDS]
    p0 = momentum_generator(MINKOWSKI, 0)
    m01 = lorentz_generator(MINKOWSKI, 0, 1)
    ok = True
    for _ in range(10):
        f = xs[rng.randrange(4)] ** rng.randint(1, 3)
        g = xs[rng.randrange(4)] * xs[rng.randrange(4)]
        ok = ok and (p0 + m01).apply(f) == p0.apply(f) + m01.apply(f)
        ok = ok and p0.apply(3 * f - 2 * g) == 3 * p0.apply(f) - 2 * p0.apply(g)
    return ok, None, "operator action is linear in the operator and in the function"


def _check_wedge_antisymmetry(rng: random.Random, tol: float | None) -> Finding:
    xs = [sym(n) for n in rindler.MINKOWSKI_COORDS]
    p0 = momentum_generator(MINKOWSKI, 0)
    p1 = momentum_generator(MINKOWSKI, 1)
    m12 = lorentz_generator(MINKOWSKI, 1, 2)
    w_ab = wedge(p0, m12)
    w_ba = wedge(m12, p0)
    neg = w_ba.scale(-CR_ONE)
    ok = (w_ab == neg) and wedge(p0, p0).is_zero
    f, g = xs[0] * xs[2], xs[1] * xs[3]
    bilinear = wedge(p0 + p1, m12).apply(f, g) == (
        wedge(p0, m12).apply(f, g) + wedge(p1, m12).apply(f, g)
    )
    ok = ok and bilinear
    return ok, None, "wedge is antisymmetric, vanishes on the diagonal and is bilinear"


_SAMPLE_SPECS = (
    CanonicalTwist({(0, 1): Fraction(3, 7), (0, 2): Fraction(-2, 5), (2, 3): Fraction(1, 3)}),
    LieTwist(Fraction(1, 4), (0, 0, Fraction(2, 3), 0), 0, 1),
    QuadraticTwist(Fraction(1, 6), (0, 1, 2, 3)),
)


def _sample_twists(chart):
    for spec in _SAMPLE_SPECS:
        yield build_linear_twist(spec, chart)


def _check_twist_annihilates_constants(rng: random.Random, tol: float | None) -> Finding:
    ok = True
    for chart in (MINKOWSKI, RINDLER):
        g = sym(chart.coords[1]) * sinh(sym(chart.coords[0]))
        for tw in _sample_twists(chart):
            ok = ok and tw.operator.apply(ONE, g) == ZERO and tw.operator.apply(g, ONE) == ZERO
    return ok, None, "every twist leg differentiates, so constants are annihilated"


def _check_twist_chart_consistency(rng: random.Random, tol: float | None) -> Finding:
    """The accelerated-chart twist against the flat twist, by two routes.

    The flat twist transported afresh by ``pullback`` must equal the twist
    built from the accelerated-chart generators.  Those generators are
    themselves transported, so the twist's action on substituted flat
    functions must also equal the substituted flat action: that comparison
    uses no ``pullback`` and fails when the transport is wrong from the start.
    """
    coord_map = rindler.STANDARD_MAP
    x0, x1, x2, x3 = (sym(n) for n in rindler.MINKOWSKI_COORDS)
    f, g = x0 * x2 + x1**2, x1 * x3 + x0
    f_moved, g_moved = substitute(f, coord_map), substitute(g, coord_map)
    ok = True
    for flat, curved in zip(_sample_twists(MINKOWSKI), _sample_twists(RINDLER)):
        ok = ok and flat.operator.pullback() == curved.operator
        ok = ok and curved.operator.apply(f_moved, g_moved) == substitute(
            flat.operator.apply(f, g), coord_map
        )
    return ok, None, "building on the accelerated chart equals transporting the flat twist"


def _check_twist_parameter_linearity(rng: random.Random, tol: float | None) -> Finding:
    s = Fraction(5, 3)
    f = sym("z0") * sym("z1")
    g = sym("z2") ** 2
    lie = LieTwist(Fraction(1, 4), (0, 0, 1, 0), 0, 1)
    quad = QuadraticTwist(Fraction(1, 6), (0, 1, 2, 3))
    ok = True
    for base, scaled in (
        (CanonicalTwist({(0, 1): Fraction(3, 7), (1, 2): Fraction(1, 2)}),
         CanonicalTwist({(0, 1): Fraction(3, 7) * s, (1, 2): Fraction(1, 2) * s})),
        (lie, replace(lie, inv_kappa=lie.inv_kappa * s)),
        (quad, replace(quad, xi=quad.xi * s)),
    ):
        want = mul(s, build_linear_twist(base, RINDLER).operator.apply(f, g))
        ok = ok and build_linear_twist(scaled, RINDLER).operator.apply(f, g) == want
    return ok, None, "scaling the deformation parameter scales the twist action exactly"


# --- star product checks ----------------------------------------------------------

def _check_star_unit(rng: random.Random, tol: float | None) -> Finding:
    ok = True
    for tw in _sample_twists(RINDLER):
        g = sym("z1") * cosh(sym("a") * sym("z0"))
        ok = ok and star(ONE, g, tw) == g and star(g, ONE, tw) == g
    return ok, None, "1 is the unit of the deformed product"


def _check_commutator_antisymmetry(rng: random.Random, tol: float | None) -> Finding:
    ok = True
    for tw in _sample_twists(RINDLER):
        f = sym("z0") * sym("z2")
        g = sym("z1") ** 2
        ok = ok and commutator(f, g, tw) == -commutator(g, f, tw)
        ok = ok and commutator(f, f, tw) == ZERO
        # the definition, by the independent route of two star products
        ok = ok and commutator(f, g, tw) == star(f, g, tw) - star(g, f, tw)
    return ok, None, "commutators are antisymmetric"


def _check_commutator_leibniz(rng: random.Random, tol: float | None) -> Finding:
    ok = True
    z = [sym(n) for n in rindler.RINDLER_COORDS]
    for tw in _sample_twists(RINDLER):
        f, g, h = z[0], z[1] * z[2], z[3]
        lhs = commutator(f * g, h, tw)
        rhs = f * commutator(g, h, tw) + commutator(f, h, tw) * g
        ok = ok and lhs == rhs
    return ok, None, "first-order twist legs are derivations on products"


def _check_classical_limits(rng: random.Random, tol: float | None) -> Finding:
    ok = True
    for chart in (MINKOWSKI, RINDLER):
        for spec in (
            CanonicalTwist({}),
            LieTwist(0, (0, 0, 1, 0), 0, 1),
            QuadraticTwist(0, (0, 1, 2, 3)),
        ):
            table = build_table(build_linear_twist(spec, chart))
            ok = ok and all(e == ZERO for e in table.entries.values())
    return ok, None, "vanishing deformation parameters give identically zero tables"


def _check_flat_relations(rng: random.Random) -> list[tuple[str, Finding]]:
    """One named finding per twist kind; the runner puts them after ``classical_limits``."""
    out = []
    for name, spec in (
        ("flat_relations_canonical", CanonicalTwist(
            {(0, 1): Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
             (0, 3): Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
             (1, 2): Fraction(rng.randint(-9, 9), rng.randint(1, 9))})),
        ("flat_relations_lie",
         LieTwist(Fraction(1, 3), (0, Fraction(1, 2), 0, Fraction(-2, 7)), 0, 2)),
        ("flat_relations_quadratic", QuadraticTwist(Fraction(2, 9), (0, 2, 1, 3))),
    ):
        rep = verify_flat_relations(build_linear_twist(spec, MINKOWSKI))
        fails = ", ".join(f"({e.mu},{e.nu})" for e in rep.failures())
        out.append((name, (
            rep.passed, None,
            "engine table equals the closed-form relations" if rep.passed
            else f"failing entries: {fails}",
        )))
    return out


_HAND_F_MATRIX = {
    (0, 0): "i*cosh(a*z0)/(a*z1)",
    (0, 1): "-i*sinh(a*z0)",
    (1, 0): "-i*sinh(a*z0)/(a*z1)",
    (1, 1): "i*cosh(a*z0)",
    (2, 2): "i",
    (3, 3): "i",
}


def hand_canonical_rindler_table(theta: CanonicalTwist) -> dict[tuple[int, int], Expr]:
    """Accelerated-chart table from the literal first-order leg actions.

    Uses the hand-derived values of each transported translation leg on each
    coordinate and the closed formula
    -(i/2) sum_{rho,tau} theta^{rho tau} [ (F_rho z_mu)(F_tau z_nu) - (F_tau z_mu)(F_rho z_nu) ],
    fully independent of the operator machinery.
    """
    F = {(r, m): parse(_HAND_F_MATRIX.get((r, m), "0")) for r in range(4) for m in range(4)}
    out: dict[tuple[int, int], Expr] = {}
    for mu in range(4):
        for nu in range(mu + 1, 4):
            acc = ZERO
            for rho in range(4):
                for tau in range(4):
                    th = theta.theta[rho][tau]
                    if th == 0:
                        continue
                    acc = acc + mul(
                        th, F[(rho, mu)] * F[(tau, nu)] - F[(tau, mu)] * F[(rho, nu)]
                    )
            out[(mu, nu)] = mul(Fraction(-1, 2), I, acc)
    return out


def _check_rindler_canonical_structural(rng: random.Random, tol: float | None) -> Finding:
    spec = CanonicalTwist({(0, 1): Fraction(3, 7), (0, 2): Fraction(-2, 5),
                           (1, 3): Fraction(1, 2), (2, 3): Fraction(5, 6)})
    engine = build_table(build_linear_twist(spec, RINDLER))
    hand = hand_canonical_rindler_table(spec)
    ok = all(engine.entries[k] == hand[k] for k in hand)
    ok = ok and engine.entries[(2, 3)] == mul(I, Fraction(5, 6))
    return ok, None, "accelerated-chart table equals the hand-applied leg formula"


def _check_rindler_flat_functoriality(rng: random.Random, tol: float | None) -> Finding:
    coord_map = rindler.STANDARD_MAP
    gs = [coord_map[n] for n in rindler.MINKOWSKI_COORDS]
    xs = [sym(n) for n in rindler.MINKOWSKI_COORDS]
    ok = True
    for flat, curved in zip(_sample_twists(MINKOWSKI), _sample_twists(RINDLER)):
        for mu in range(4):
            for nu in range(mu + 1, 4):
                lhs = commutator(gs[mu], gs[nu], curved)
                rhs = substitute(commutator(xs[mu], xs[nu], flat), coord_map)
                ok = ok and lhs == rhs
    return (
        ok, None, "deformed products commute with the coordinate map on mapped functions"
    )


# --- spectrum checks ---------------------------------------------------------------

def _grid() -> np.ndarray:
    import numpy as np

    # not 10 ** (log10(0.1) + i * step) in math: one of the 20 points would
    # differ by an ulp, and the checks' reported residuals with it
    return np.geomspace(0.1, 5.0, 20)


def _worst(residuals: Iterable[float], tol: float, detail: str) -> Finding:
    """The finding of the largest residual; a NaN residual fails and is what is measured."""
    worst = 0.0
    for r in residuals:
        if math.isnan(r):
            return False, r, detail
        worst = max(worst, r)
    return worst <= tol, worst, detail


def _two_routes(pairs: Iterable[tuple[complex, complex]], tol: float, detail: str) -> Finding:
    """The finding of the worst |got - want| / |want| over values computed by two routes."""
    return _worst((abs(got - want) / abs(want) for got, want in pairs), tol, detail)


def _check_gamma_identity(rng: random.Random, tol: float) -> Finding:
    return _two_routes(
        ((abs(complex_gamma(1j * y)) ** 2, gamma_modulus_sq_imag_axis(float(y))) for y in _grid()),
        tol, "|Gamma(iy)|^2 equals pi/(y sinh(pi y)) on the grid",
    )


def _check_planck_equivalence(rng: random.Random, tol: float) -> Finding:
    points = (
        deformed_power(ModeParams(omega_hat=wz, z=1.0, a=1.0, omega=float(y)), 0.0)
        for y in _grid()
        for wz in (0.5, 1.0, 3.0)
    )
    return _two_routes(
        ((p.power, p.planck) for p in points),
        tol, "omega |f(-omega)|^2 matches the Planck form, independent of omega_hat z",
    )


# the oracle's frequencies s = omega / a: the spectrum evaluates f(-omega),
# where rounding is amplified by about e^(pi |s|)
_ORACLE_S = (0.5, 1.0, 2.0, -0.5, -2.0, -4.0)
_ORACLE_MODES = tuple(ModeParams(omega_hat=1.0, z=1.0, a=1.0, omega=s) for s in _ORACLE_S)


def _check_quadrature_agreement(rng: random.Random, tol: float) -> Finding:
    return _two_routes(
        ((f_quadrature(m).value, f_closed(m)) for m in _ORACLE_MODES),
        tol, "real-axis quadrature amplitude matches the closed form",
    )


def _check_correction_integral(rng: random.Random, tol: float) -> Finding:
    return _two_routes(
        ((correction_integral_quadrature(m).value, correction_integral_closed(m)) for m in _ORACLE_MODES),
        tol, "the extra-damping-factor integral matches its one-step gamma recursion",
    )


def _check_correction_assembly(rng: random.Random, tol: float) -> Finding:
    modes = (ModeParams(omega_hat=1.3, z=0.9, a=1.1, omega=1.1 * s) for s in _ORACLE_S)
    return _two_routes(
        (
            (deformed_correction_quadrature(m, 1e-4), deformed_f_theta(m, 1e-4) - f_closed(m))
            for m in modes
        ),
        tol, "the two quadrature correction terms reassemble the first-order bracket",
    )


def _check_quadrature_refinement(rng: random.Random, tol: float | None) -> Finding:
    ests = [damped_mode_integral(1.0, 1.0, panel_factor=pf)[1] for pf in (1, 2, 4)]
    ok = ests[1] <= ests[0] and ests[2] <= ests[1]
    return ok, None, (
        f"undamped refinement residual non-increasing under doubling of the rule's M: "
        f"{ests[0]:.3e} -> {ests[1]:.3e} -> {ests[2]:.3e}"
    )


def _check_deformed_closed(rng: random.Random, tol: float) -> Finding:
    a = 2.0 * math.pi
    residuals = []
    for th in (1e-4, -1e-4):
        for w in (0.5, 1.0, 2.0):
            # the closed form scales Planck by (1 + deviation); the other route
            # squares the corrected amplitude
            dp = deformed_power(ModeParams(omega_hat=1.0, z=1.0, a=a, omega=w), th)
            residuals.append(abs(dp.closed_form - dp.via_amplitude) / abs(dp.via_amplitude))
    return _worst(
        residuals, tol, "closed-form corrected spectrum deviates by -2 theta01 omega/(pi T z^2)"
    )


def _check_deformed_fd(rng: random.Random, tol: float) -> Finding:
    a = 2.0 * math.pi
    residuals = []
    h = 1e-4
    for w in (0.5, 1.0, 2.0):
        neg = ModeParams(omega_hat=1.0, z=1.0, a=a, omega=-w)
        base = w * abs(f_closed(neg)) ** 2

        def dev(th: float) -> float:
            return w * abs(deformed_f_theta(neg, th)) ** 2 / base - 1.0

        slope = (dev(h) - dev(-h)) / (2.0 * h)
        want_slope = -2.0 * w / (math.pi * hawking_temperature(a) * 1.0)
        residuals.append(abs(slope - want_slope) / abs(want_slope))
    return _worst(residuals, tol, "finite-difference slope of the squared corrected amplitude matches")


def _check_integrand_consistency(rng: random.Random, tol: float) -> Finding:
    """Tie the spectrum-module correction coefficients to the twist engine.

    The engine action of a canonical twist with parameter r on the two mode
    factors must equal the amplitude-correction coefficient forms at the
    spectrum parameter ``theta01_from_engine(r)``, structurally: both sides
    are canonical forms, so the comparison is exact and ``tol`` is only
    reported.
    """
    r = Fraction(3, 7)
    tw = build_linear_twist(CanonicalTwist({(0, 1): r}), RINDLER)
    theta_upper = -theta01_from_engine(r)  # the spectrum's raised component theta^{01}
    z0, z1, a, w_hat, w = sym("z0"), sym("z1"), sym("a"), sym("omega_hat"), sym("omega")
    phi = exp(I * w_hat * z1 * exp(-a * z0))
    psi = exp(I * w * z0)
    lhs1 = tw.operator.apply(phi, psi)
    want1 = mul(2 * I * theta_upper * w * w_hat / (a * z1), exp(-a * z0), phi, psi)
    lhs2 = tw.operator.apply(I * w_hat * z1, exp(-a * z0))
    want2 = mul(-2 * theta_upper * w_hat / z1, exp(-a * z0))
    ok = lhs1 == want1 and lhs2 == want2
    return ok, None, "engine twist action reproduces the amplitude-correction integrands"


# --- geometry checks ----------------------------------------------------------------

def _check_geometry_roundtrip(rng: random.Random, tol: float) -> Finding:
    residuals = []
    for _ in range(50):
        a = rng.uniform(0.5, 2.0)
        z = (rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
        b = {"a": a, "z0": z[0], "z1": z[1], "z2": z[2], "z3": z[3]}
        x_num = tuple(eval_numeric(x, b).real for x in rindler.STANDARD_MAP.values())
        back = rindler.inverse_map_numeric(x_num, a)
        residuals.extend(abs(p - q) for p, q in zip(z, back))
    return _worst(residuals, tol, "forward map composed with the wedge inverse is the identity")


def _check_metric_pullback(rng: random.Random, tol: float | None) -> Finding:
    mp = rindler.RindlerMap().metric_pullback()
    a, z1 = sym("a"), sym("z1")
    expected = (-(a**2) * z1**2, ONE, ONE, ONE)
    ok = mp.computed == expected
    printed = ", ".join(to_text(g) for g in mp.printed_alternative)
    return ok, None, (
        f"first-principles diagonal matches (-a^2 z1^2, 1, 1, 1); "
        f"single-power-of-a alternative reported as [{printed}]"
    )


# --- suite -----------------------------------------------------------------------

_CHECKS: list[tuple[str, Callable[[random.Random, float | None], Finding]]] = [
    ("expr_simplify_preserves_eval", _check_simplify_preserves_eval),
    ("expr_differentiate_rules", _check_differentiate_rules),
    ("expr_canonical_idempotent", _check_canonical_idempotent),
    ("diffop_chain_rule", _check_chain_rule),
    ("diffop_apply_linearity", _check_apply_linearity),
    ("diffop_wedge_antisymmetry", _check_wedge_antisymmetry),
    ("twist_annihilates_constants", _check_twist_annihilates_constants),
    ("twist_chart_consistency", _check_twist_chart_consistency),
    ("twist_parameter_linearity", _check_twist_parameter_linearity),
    ("star_unit", _check_star_unit),
    ("commutator_antisymmetry", _check_commutator_antisymmetry),
    ("commutator_leibniz", _check_commutator_leibniz),
    ("classical_limits", _check_classical_limits),
    ("rindler_canonical_structural", _check_rindler_canonical_structural),
    ("rindler_flat_functoriality", _check_rindler_flat_functoriality),
    ("twist_spectrum_integrand_consistency", _check_integrand_consistency),
    ("gamma_modulus_identity", _check_gamma_identity),
    ("planck_equivalence", _check_planck_equivalence),
    ("quadrature_agreement", _check_quadrature_agreement),
    ("correction_integral_agreement", _check_correction_integral),
    ("deformed_correction_assembly", _check_correction_assembly),
    ("quadrature_refinement", _check_quadrature_refinement),
    ("deformed_deviation_closed", _check_deformed_closed),
    ("deformed_deviation_finite_difference", _check_deformed_fd),
    ("geometry_roundtrip", _check_geometry_roundtrip),
    ("metric_pullback", _check_metric_pullback),
]


def run_all_checks(
    seed: int = 1, tolerances: dict[str, float] | None = None
) -> list[CheckResult]:
    """Run every named invariant check with one seeded generator.

    ``tolerances`` overrides entries of ``DEFAULT_TOLERANCES``, and only those.
    """
    unknown = set(tolerances or ()) - set(DEFAULT_TOLERANCES)
    if unknown:
        raise ValueError(f"unknown tolerance names: {sorted(unknown)}")
    tols = {**DEFAULT_TOLERANCES, **(tolerances or {})}
    rng = random.Random(seed)
    findings: list[tuple[str, Finding]] = []
    for name, fn in _CHECKS:
        findings.append((name, fn(random.Random(rng.randrange(2**62)), tols.get(name))))
        if name == "classical_limits":
            # through the module global, which perfbench/tracing.py rebinds
            findings.extend(_check_flat_relations(random.Random(rng.randrange(2**62))))
    rows = []
    for name, (passed, measured, detail) in findings:
        if measured is not None and not math.isfinite(measured):
            # artifacts write a non-finite number as null; the detail keeps its value
            detail = f"{detail}; measured = {measured}"
        rows.append(CheckResult(name, passed, measured, tols.get(name), detail))
    return rows


def report_dict(
    seed: int, results: list[CheckResult], tolerances: dict[str, float] | None = None
) -> dict:
    return {
        "seed": seed,
        "tolerance_overrides": dict(sorted((tolerances or {}).items())),
        "all_passed": all(r.passed for r in results),
        "checks": [asdict(r) for r in results],
    }
