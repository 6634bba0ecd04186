"""Cross-checks against independent engines: sympy for calculus on random
expressions and for the accelerated-chart commutator tables, mpmath (30
significant digits) for the gamma function and the closed-form amplitude.
These back up the in-package dual routes with third-party oracles.
"""

import cmath
import math
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import given, strategies as st

from starwedge.diffop import MINKOWSKI, RINDLER
from starwedge.expr import Add, Const, Fn, Mul, Pow, Sym, eval_numeric, differentiate, exp, sinh, substitute, sym
from starwedge.gammafn import complex_gamma
from starwedge.grammar import to_text
from starwedge.spectrum import ModeParams, f_closed
from starwedge.starprod import build_table
from starwedge.twists import LieTwist, QuadraticTwist, build_linear_twist
from starwedge.verification import _recipe_to_expr

from test_expr import recipes, _BINDINGS, _NAMES
from test_starprod import _readme_twists

_SYMPY_SYMBOLS = {n: sympy.Symbol(n) for n in _NAMES}
_SYMPY_FNS = {"sinh": sympy.sinh, "cosh": sympy.cosh, "exp": sympy.exp, "tanh": sympy.tanh}


def _to_sympy(r):
    tag = r[0]
    if tag == "int":
        return sympy.Integer(r[1])
    if tag == "sym":
        return _SYMPY_SYMBOLS[r[1]]
    if tag == "add":
        return _to_sympy(r[1]) + _to_sympy(r[2])
    if tag == "mul":
        return _to_sympy(r[1]) * _to_sympy(r[2])
    if tag == "pow":
        return _to_sympy(r[1]) ** r[2]
    return _SYMPY_FNS[r[1]](_to_sympy(r[2]))


_POINT = {n: 0.5 + 0.17 * k for k, n in enumerate(_NAMES)}


@given(recipes)
def test_derivative_against_sympy(recipe):
    ours = differentiate(_recipe_to_expr(recipe), "z0")
    theirs = sympy.diff(_to_sympy(recipe), _SYMPY_SYMBOLS["z0"])
    try:
        got = eval_numeric(ours, _POINT)
        want = complex(theirs.evalf(subs=_POINT))
    except OverflowError:
        return
    if not (cmath.isfinite(got) and cmath.isfinite(want)):
        return
    assert abs(got - want) <= 1e-9 * (1.0 + abs(want))


@given(recipes, st.sampled_from(_NAMES), _BINDINGS)
def test_derivative_against_sympy_at_random_bindings(recipe, name, bindings):
    ours = differentiate(_recipe_to_expr(recipe), name)
    theirs = sympy.diff(_to_sympy(recipe), _SYMPY_SYMBOLS[name])
    try:
        got = eval_numeric(ours, bindings)
        want = complex(theirs.evalf(subs={_SYMPY_SYMBOLS[n]: v for n, v in bindings.items()}))
    except OverflowError:
        return
    if not (cmath.isfinite(got) and cmath.isfinite(want)):
        return
    assert abs(got - want) <= 1e-9 * (1.0 + abs(want))


@given(recipes)
def test_substitution_against_sympy(recipe):
    ours = substitute(_recipe_to_expr(recipe), {"z0": _recipe_to_expr(("fn", "cosh", ("sym", "z1")))})
    theirs = _to_sympy(recipe).subs(
        _SYMPY_SYMBOLS["z0"], sympy.cosh(_SYMPY_SYMBOLS["z1"]), simultaneous=True
    )
    try:
        got = eval_numeric(ours, _POINT)
        want = complex(theirs.evalf(subs={k: v for k, v in _POINT.items() if k != "z0"}))
    except OverflowError:
        return
    if not (cmath.isfinite(got) and cmath.isfinite(want)):
        return
    assert abs(got - want) <= 1e-9 * (1.0 + abs(want))


def test_gamma_against_mpmath_high_precision():
    mpmath.mp.dps = 30
    pts = [0.5, 1.0, 3.7, 0.5 + 10j, 1j, 0.3 - 2.4j, -1.5 + 0.25j, 2.0 + 49j,
           -0.4 - 49j, 12.0 - 31j]
    for s in pts:
        got = complex_gamma(s)
        want = complex(mpmath.gamma(s))
        assert abs(got - want) <= 1e-12 * abs(want), f"gamma mismatch at {s}"


def test_damped_integral_against_mpmath_closed_form():
    # the mode integral has the exact value Gamma(p-is) (-iw)^(-(p-is));
    # evaluate it at 30 significant digits and compare the double-exponential
    # rule, also at s < 0, where rounding is amplified by about e^(pi |s|)
    from starwedge.quadrature import damped_mode_integral

    mpmath.mp.dps = 30
    for p in (0, 1):
        for s in (-4.0, -0.5, 0.5, 2.0):
            got, _ = damped_mode_integral(s, 1.0, power_shift=p)
            c = p - 1j * s
            want = complex(mpmath.gamma(c) * (-1j) ** (-c))
            assert abs(got - want) <= 1e-11 * abs(want), (p, s)


def test_amplitude_limit_against_mpmath():
    # the amplitude in closed form: (1/a) Gamma(-is) w^{is} e^{pi s/2}
    mpmath.mp.dps = 30
    for s in (0.5, 1.0, 2.0):
        m = ModeParams(omega_hat=1.0, z=1.0, a=1.0, omega=s)
        got = f_closed(m)
        want = complex(mpmath.gamma(-1j * s) * mpmath.exp(mpmath.pi * s / 2))
        assert abs(got - want) <= 1e-12 * abs(want)


def test_planck_form_against_mpmath():
    mpmath.mp.dps = 30
    for y in (0.1, 0.7, 2.9):
        m = ModeParams(omega_hat=1.0, z=1.0, a=1.0, omega=y)
        got = m.omega * abs(f_closed(ModeParams(1.0, 1.0, 1.0, -y))) ** 2
        want = float(2 * mpmath.pi / mpmath.expm1(2 * mpmath.pi * y))
        assert got == pytest.approx(want, rel=1e-12)


def _mp_eval(e, b):
    """An engine expression in mpmath, independently of eval_numeric."""
    if isinstance(e, Const):
        re, im = e.value.re, e.value.im
        return mpmath.mpc(mpmath.mpf(re.numerator) / re.denominator, mpmath.mpf(im.numerator) / im.denominator)
    if isinstance(e, Sym):
        return mpmath.mpf(b[e.name])
    if isinstance(e, Add):
        return mpmath.fsum(_mp_eval(t, b) for t in e.terms)
    if isinstance(e, Mul):
        return mpmath.fprod(_mp_eval(f, b) for f in e.factors)
    if isinstance(e, Pow):
        return _mp_eval(e.base, b) ** e.exponent
    fn = {"sinh": mpmath.sinh, "cosh": mpmath.cosh, "exp": mpmath.exp, "tanh": mpmath.tanh}
    return fn[e.fname](_mp_eval(e.arg, b))


def test_canonical_form_is_exact_where_its_double_evaluation_cancels():
    # the worst case of `starwedge verify --seed 12` before the
    # expr_simplify_preserves_eval residual was scaled by the terms' size
    mpmath.mp.dps = 30
    b = {
        "z0": 1.5876353208101734,
        "z1": 1.155216350721351,
        "z2": 1.862761198685051,
        "z3": 1.261152957672253,
        "a": 0.6430645938722681,
    }
    z0, z1, z2, z3, a = (sym(n) for n in ("z0", "z1", "z2", "z3", "a"))
    e = ((z2 * z1 - 2 * z0 + z3) * ((exp(a) - 5) * sinh(z0))) ** 3
    x = mpmath.mpf
    want = ((x(b["z2"]) * x(b["z1"]) - 2 * x(b["z0"]) + x(b["z3"]))
            * (mpmath.exp(x(b["a"])) - 5) * mpmath.sinh(x(b["z0"]))) ** 3
    assert isinstance(e, Add)
    # the canonical form itself is exact ...
    assert abs(_mp_eval(e, b) - want) <= mpmath.mpf(10) ** -25 * abs(want)
    # ... but its terms are about 1e5 times the value, so in double it rounds
    # at their size (4e-12 of the value here), within 1e-15 of the terms
    values = [eval_numeric(t, b) for t in e.terms]
    scale = sum(abs(v) for v in values)
    assert scale > 1e4 * abs(want)
    assert abs(sum(values) - complex(want)) <= 1e-15 * scale


# --- the accelerated chart by sympy's own Jacobian ----------------------------------

_X = sympy.symbols("x0 x1 x2 x3", real=True)
# positive z1 lets sqrt(z1^2 (cosh^2 - sinh^2)) reduce to z1, not |z1|
_Z = sympy.symbols("z0 z1 z2 z3", positive=True)
_A = sympy.Symbol("a", positive=True)
_SYMPY_LOCALS = {"i": sympy.I, "a": _A, **{str(s): s for s in (*_X, *_Z)}}


# beside the README twists, the two whose Rindler tables carry z2 and z3
_TRANSVERSE_TWISTS = {
    "lie_zeta1_pair02": LieTwist(Fraction(1, 3), (0, Fraction(2, 3), 0, 0), 0, 2),
    "quadratic_0213": QuadraticTwist(Fraction(1, 6), (0, 2, 1, 3)),
}


def _sympy_table(kind, chart):
    if kind in _TRANSVERSE_TWISTS:
        twist = build_linear_twist(_TRANSVERSE_TWISTS[kind], chart)
    else:
        twist = _readme_twists(chart)[kind]
    table = build_table(twist)
    return {ij: sympy.sympify(to_text(e), locals=_SYMPY_LOCALS) for ij, e in table.entries.items()}


@pytest.mark.parametrize("kind", ["canonical", "lie", "quadratic", *_TRANSVERSE_TWISTS])
def test_rindler_table_is_the_flat_table_transported_by_sympy(kind):
    # at first order the commutator is a bivector, so
    # [z^a, z^b] = (dz^a/dx^mu)(dz^b/dx^nu) [x^mu, x^nu]; the Jacobian is
    # sympy's, from the inverse map z0 = atanh(x0/x1)/a, z1 = sqrt(x1^2 - x0^2),
    # and shares nothing with rindler.partial_transport
    flat = _sympy_table(kind, MINKOWSKI)
    bivector = [[sympy.Integer(0)] * 4 for _ in range(4)]
    for (mu, nu), entry in flat.items():
        bivector[mu][nu], bivector[nu][mu] = entry, -entry
    inverse = (sympy.atanh(_X[0] / _X[1]) / _A, sympy.sqrt(_X[1] ** 2 - _X[0] ** 2), _X[2], _X[3])
    jacobian = [[sympy.diff(zc, xc) for xc in _X] for zc in inverse]
    forward = {
        _X[0]: _Z[1] * sympy.sinh(_A * _Z[0]),
        _X[1]: _Z[1] * sympy.cosh(_A * _Z[0]),
        _X[2]: _Z[2],
        _X[3]: _Z[3],
    }
    rindler = _sympy_table(kind, RINDLER)
    assert len(rindler) == 6
    for (i, j), entry in rindler.items():
        transported = sum(
            jacobian[i][mu] * jacobian[j][nu] * bivector[mu][nu]
            for mu in range(4) for nu in range(4)
        )
        difference = sympy.simplify(transported.subs(forward) - entry)
        assert difference == 0, (kind, (i, j), entry)
