import cmath
import gc
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from starwedge.expr import (
    FUNCTIONS,
    Add,
    ComplexRational,
    Expr,
    Fn,
    I,
    ONE,
    ZERO,
    NonMonomialDivisionError,
    Sym,
    UnboundSymbolError,
    _as_terms,
    _from_terms,
    _parts,
    _skey,
    add,
    const,
    cosh,
    differentiate,
    equality_probe,
    eval_numeric,
    exp,
    free_symbols,
    integer,
    rational,
    simplify,
    sinh,
    substitute,
    summands,
    sym,
    tanh,
)
from starwedge.grammar import parse, to_text
from starwedge.verification import _recipe_eval, _recipe_to_expr

a, z0, z1, z2, z3 = (sym(n) for n in ("a", "z0", "z1", "z2", "z3"))
x0, x1 = sym("x0"), sym("x1")
u = a * z0


# --- derivative examples -------------------------------------------------------

def test_derivative_of_sinh():
    assert differentiate(sinh(u), "z0") == a * cosh(u)


def test_derivative_linearity_on_product():
    assert differentiate(z1 * cosh(u), "z1") == cosh(u)


def test_derivative_exponential_chain_rule():
    tau = sym("tau")
    assert differentiate(exp(-a * tau), "tau") == -a * exp(-a * tau)


def test_derivative_of_absent_symbol_is_zero():
    assert differentiate(sinh(u), "z3") == ZERO


def test_derivative_tanh():
    assert differentiate(tanh(z0), "z0") == ONE - tanh(z0) ** 2


def test_derivative_variable_must_be_symbol():
    with pytest.raises(TypeError):
        differentiate(z0, 3)
    with pytest.raises(ValueError):
        differentiate(z0, "i")


# --- simplification examples -----------------------------------------------------

def test_hyperbolic_identity():
    assert cosh(u) ** 2 - sinh(u) ** 2 == ONE


def test_additive_identity():
    assert integer(0) * z2 + z3 == z3


def test_commutative_product_cancels():
    assert sinh(u) * cosh(u) - cosh(u) * sinh(u) == ZERO


def test_higher_cosh_powers_are_reduced():
    e = cosh(u) ** 4 - (1 + sinh(u) ** 2) ** 2
    assert e == ZERO


def test_simplify_is_idempotent():
    e = (z0 + z1) * (z0 - z1) + cosh(u) ** 2
    assert simplify(e) == e
    assert simplify(simplify(e)) == simplify(e)


# --- substitution examples --------------------------------------------------------

def test_substitute_coordinate_map_component():
    assert substitute(x0, {"x0": z1 * sinh(u)}) == z1 * sinh(u)


def test_substitute_transverse_passthrough():
    assert substitute(sym("x2"), {"x2": z2}) == z2


def test_substitute_interval_reduces_hyperbolically():
    e = x0 ** 2 - x1 ** 2
    got = substitute(e, {"x0": z1 * sinh(u), "x1": z1 * cosh(u)})
    assert got == -(z1 ** 2)


def test_substitute_is_simultaneous():
    e = z0 + z1
    got = substitute(e, {"z0": z1, "z1": z0})
    assert got == z0 + z1


# --- numeric evaluation ------------------------------------------------------------

def test_eval_cosh_over_radius():
    v = eval_numeric(cosh(u) / (a * z1), {"a": 1.0, "z0": 0.0, "z1": 2.0})
    assert v == pytest.approx(0.5)


def test_eval_imaginary_constant():
    v = eval_numeric(I * sym("theta"), {"theta": 0.1})
    assert v == pytest.approx(0.1j)


def test_eval_against_standard_library():
    v = eval_numeric(z1 * sinh(u), {"a": 1.0, "z0": 1.0, "z1": 1.0})
    assert v == pytest.approx(math.sinh(1.0), rel=1e-12)
    assert v == pytest.approx(1.1752011936, rel=1e-9)


def test_eval_unbound_symbol_raises():
    with pytest.raises(UnboundSymbolError):
        eval_numeric(z0 + z1, {"z0": 1.0})


def test_eval_negative_power_at_zero_raises():
    with pytest.raises(ZeroDivisionError):
        eval_numeric(ONE / z1, {"z1": 0.0})


# --- equality probe -----------------------------------------------------------------

def test_probe_detects_identity():
    assert equality_probe(cosh(u) ** 2 - sinh(u) ** 2, ONE)


def test_probe_separates_independent_symbols():
    assert not equality_probe(z0, z1)


def test_probe_engine_self_consistency():
    lhs = (z0 + z1) ** 2
    rhs = z0 ** 2 + 2 * z0 * z1 + z1 ** 2
    assert equality_probe(lhs, rhs)


def test_probe_requires_trials():
    with pytest.raises(ValueError):
        equality_probe(z0, z0, trials=0)


# --- algebraic closure edges ----------------------------------------------------------

def test_division_by_sum_rejected():
    with pytest.raises(NonMonomialDivisionError):
        ONE / (z0 + z1)


def test_division_by_monomial():
    assert (cosh(u) / (a * z1)) * (a * z1) == cosh(u)


def test_negative_power_of_sum_rejected():
    with pytest.raises(NonMonomialDivisionError):
        (z0 + z1) ** -2


def test_inverse_of_exact_zero_raises():
    with pytest.raises(ZeroDivisionError, match="exact zero"):
        ZERO ** -1
    with pytest.raises(ZeroDivisionError, match="exact zero"):
        ONE / ZERO


@pytest.mark.parametrize("e", [2 * sinh(u) / z1, z0 + z1, ZERO], ids=["monomial", "sum", "zero"])
def test_zeroth_power_is_one(e):
    assert e ** 0 == ONE


def test_negative_power_of_monomial_cancels_its_positive_power():
    m = 2 * sinh(u) / z1
    assert m ** -3 * m ** 3 == ONE


def test_negative_cosh_powers_are_outside_the_unique_normal_form():
    # cosh(u)^2 = 1 + sinh(u)^2 rewrites positive cosh powers only, so a
    # negative cosh power can stand beside an equal form it is not rewritten to
    m = 2 * cosh(u) / z1
    e = m ** -3 * m ** 3
    assert e != ONE
    assert equality_probe(e, ONE)


def test_integer_exponent_required():
    with pytest.raises(TypeError):
        z0 ** 0.5


def test_rational_constants_are_exact():
    e = rational(1, 3) + rational(1, 6)
    assert e == rational(1, 2)


def test_function_of_exact_zero_folds():
    assert sinh(integer(0)) == ZERO
    assert cosh(integer(0)) == ONE
    assert exp(z0 - z0) == ONE


def test_free_symbols():
    assert free_symbols(z1 * sinh(u) + I) == {"a", "z0", "z1"}


# --- hypothesis: random expression recipes -------------------------------------------

_NAMES = ("z0", "z1", "z2", "a", "w")

_leaf = st.one_of(
    st.tuples(st.just("int"), st.integers(-3, 3)),
    st.tuples(st.just("sym"), st.sampled_from(_NAMES)),
)


def _branch(children):
    return st.one_of(
        st.tuples(st.just("add"), children, children),
        st.tuples(st.just("mul"), children, children),
        st.tuples(st.just("pow"), children, st.integers(0, 3)),
        st.tuples(st.just("fn"), st.sampled_from(sorted(FUNCTIONS)), children),
    )


# recipes in the tag format of verification's random expressions, which
# builds (_recipe_to_expr) and evaluates (_recipe_eval) them
recipes = st.recursive(_leaf, _branch, max_leaves=24)


_BINDINGS = st.fixed_dictionaries({n: st.floats(0.5, 2.0) for n in _NAMES})


@given(recipes, _BINDINGS)
def test_normalization_preserves_value(recipe, bindings):
    e = _recipe_to_expr(recipe)
    try:
        direct = _recipe_eval(recipe, bindings)
        canon = eval_numeric(e, bindings)
    except OverflowError:
        return
    if not (cmath.isfinite(direct) and cmath.isfinite(canon)):
        return
    assert abs(direct - canon) <= 1e-12 * (1.0 + abs(direct))


@given(recipes, recipes)
def test_differentiation_is_linear(r1, r2):
    f, g = _recipe_to_expr(r1), _recipe_to_expr(r2)
    lhs = differentiate(3 * f - 2 * g, "z0")
    rhs = 3 * differentiate(f, "z0") - 2 * differentiate(g, "z0")
    assert lhs == rhs


@given(recipes, recipes)
def test_differentiation_product_rule(r1, r2):
    f, g = _recipe_to_expr(r1), _recipe_to_expr(r2)
    lhs = differentiate(f * g, "z1")
    rhs = differentiate(f, "z1") * g + f * differentiate(g, "z1")
    assert lhs == rhs


@given(recipes)
def test_canonical_form_is_fixed_point(recipe):
    e = _recipe_to_expr(recipe)
    for x in (e, differentiate(e, "z0"), substitute(e, {"z1": z0 * sinh(z2)})):
        assert simplify(x) == x
        # _parts reads what _from_terms wrote: each monomial in _skey order with
        # nonzero exponents, each coefficient nonzero; so _as_terms need not sort
        for mono, coeff in _parts(x):
            keys = [_skey(atom) for atom, _ in mono]
            assert keys == sorted(set(keys)) and all(k != 0 for _, k in mono)
            assert not coeff.is_zero
        assert _from_terms(_as_terms(x)) == x


@given(recipes)
def test_construction_order_does_not_matter(recipe):
    e = _recipe_to_expr(recipe)
    assert e + ZERO == e
    assert (e + e) - e == e


def _walk_nodes(e):
    yield e
    from starwedge.expr import Add as A, Fn as F, Mul as M, Pow as P

    if isinstance(e, A):
        for t in e.terms:
            yield from _walk_nodes(t)
    elif isinstance(e, M):
        for f in e.factors:
            yield from _walk_nodes(f)
    elif isinstance(e, P):
        yield from _walk_nodes(e.base)
    elif isinstance(e, F):
        yield from _walk_nodes(e.arg)


@given(recipes, recipes)
def test_normal_form_has_no_reducible_cosh_power(r1, r2):
    from starwedge.expr import Fn as F, Pow as P

    e = _recipe_to_expr(r1) * _recipe_to_expr(r2)
    for node in _walk_nodes(e):
        if isinstance(node, P) and isinstance(node.base, F) and node.base.fname == "cosh":
            assert node.exponent < 2


@given(recipes, recipes)
def test_ring_identities_hold_structurally(r1, r2):
    f, g = _recipe_to_expr(r1), _recipe_to_expr(r2)
    assert (f + g) ** 2 - f ** 2 - 2 * f * g - g ** 2 == ZERO
    assert (f * g) ** 2 == f ** 2 * g ** 2
    assert f * (g + 1) == f * g + f


# --- node contract: immutable, hashed and keyed once, picklable --------------------

def _rebuild(v):
    """The same expression built afresh: a new Add with nothing stored yet, or the atom."""
    if isinstance(v, Add):
        return _from_terms(_as_terms(v))
    if isinstance(v, Expr):
        return type(v)(*(_rebuild(getattr(v, f)) for f in v.__match_args__))
    return v


def _assert_frozen(e):
    for node in _walk_nodes(e):
        for f in (*node.__match_args__, "_key", "_hash"):
            with pytest.raises(AttributeError):
                setattr(node, f, ONE)
            with pytest.raises(AttributeError):
                delattr(node, f)


def test_every_node_class_rejects_assignment():
    x = sym("x")
    nodes = (ONE, x, x + 1, 2 * x, x**2, sinh(x))
    assert [type(n).__name__ for n in nodes] == ["Add", "Sym", "Add", "Add", "Add", "Fn"]
    for node in nodes:
        _assert_frozen(node)


@given(recipes, recipes)
def test_equal_nodes_have_equal_hashes(r1, r2):
    x, y = _recipe_to_expr(r1), _recipe_to_expr(r2)
    for lhs, rhs in ((add(x, y), add(y, x)), (simplify(x), x), (substitute(x, {}), x)):
        assert lhs == rhs and hash(lhs) == hash(rhs)
    assert (x == y) == (_skey(x) == _skey(y))
    if x == y:
        assert hash(x) == hash(y)


@given(recipes)
def test_stored_key_matches_key_of_rebuilt_tree(recipe):
    e = _recipe_to_expr(recipe)
    stored = _skey(e)
    assert e._key is stored
    fresh = _rebuild(e)
    # atoms are interned, so rebuilding one returns the live node itself
    assert (fresh is e) == isinstance(e, (Sym, Fn)) and _skey(fresh) == stored
    assert fresh == e and hash(fresh) == hash(e)


def _assert_round_trips(e):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(e, protocol))
        assert back == e and hash(back) == hash(e)
        assert to_text(back) == to_text(e)
        _assert_frozen(back)


def test_pickle_round_trip_with_complex_constant():
    _assert_round_trips(sinh(const(Fraction(1, 2), 3) * sym("x")))


@given(recipes)
def test_pickle_round_trip(recipe):
    _assert_round_trips(_recipe_to_expr(recipe))


def _atoms_of(e):
    return [n for n in _walk_nodes(e) if isinstance(n, (Sym, Fn))]


# --- a sum stores its (monomial, coefficient) tuple; its node view is built on demand ---

def _view_built(e):
    return hasattr(e, "_terms")


def _assert_same_sum(rebuilt, e):
    assert rebuilt == e and hash(rebuilt) == hash(e) and _skey(rebuilt) == _skey(e)
    assert _parts(rebuilt) == _parts(e) and _as_terms(rebuilt) == _as_terms(e)
    # each record of the term view is keyed as the one-term expression it shows
    one_terms = [_from_terms(dict([t])) for t in _parts(e)]
    assert [_skey(t) for t in e.terms] == [_skey(x) for x in one_terms]


@given(recipes)
def test_a_sum_rebuilt_from_its_term_view_is_the_same_sum(recipe):
    e = _recipe_to_expr(recipe)
    for x in (e, differentiate(e, "z0"), substitute(e, {"z1": z0 * sinh(z2)})):
        if isinstance(x, Add):
            _assert_same_sum(_from_terms(_as_terms(x)), x)


def test_a_sum_is_frozen_and_round_trips_whether_its_view_is_built_or_not():
    for build in (lambda: z1 * sinh(u) + 3 * z0**2 - I, lambda: (cosh(u) + z1 / a) ** 3):
        for view in (False, True):
            for check in (_assert_frozen, _assert_round_trips):
                e = build()
                assert isinstance(e, Add) and not _view_built(e)
                if view:
                    e.terms
                assert _view_built(e) == view
                check(e)


def test_summands_are_the_terms_of_a_sum_or_the_expression_itself():
    e = z1 * sinh(u) + 3 * z0**2 - I
    assert summands(e) == (-I, 3 * z0**2, z1 * sinh(u)) and add(*summands(e)) == e
    for one_term in (ZERO, ONE, z0, 2 * z0 * sinh(u), z1**-2):
        assert summands(one_term) == (one_term,)


def test_atoms_reached_by_every_route_are_one_object():
    s = sinh(u)
    assert isinstance(s, Fn)
    for atom, text in ((z0, "z0"), (s, "sinh(a*z0)")):
        assert sym("z0") is z0 and parse(text) is atom and _rebuild(atom) is atom
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(atom, protocol)) is atom
            back = pickle.loads(pickle.dumps(3 * atom + z1, protocol))
            assert {id(n) for n in _atoms_of(back)} >= {id(atom), id(z1)}
    # the sinh that differentiating cosh returns, and the one the cosh^2 reduction inserts
    derived = [n for n in _atoms_of(differentiate(cosh(u), "z0")) if isinstance(n, Fn)]
    reduced = [n for n in _atoms_of(cosh(u) ** 2) if isinstance(n, Fn)]
    assert derived and reduced and all(n is s for n in derived + reduced)


def test_an_unreferenced_atom_leaves_its_table():
    name = "interning_probe"
    w = sym(name)
    f = sinh(w)
    assert Sym._live[name] is w and Fn._live["sinh", w] is f
    del w, f
    gc.collect()
    assert name not in Sym._live
    assert all(getattr(arg, "name", None) != name for _, arg in list(Fn._live.keys()))


def test_composite_nodes_are_not_interned():
    for build in (lambda: z0 + 1, lambda: 2 * z0, lambda: z0 ** 2, lambda: integer(2)):
        first, second = build(), build()
        assert first == second and hash(first) == hash(second) and first is not second


def test_simplify_check_still_catches_a_wrong_canonical_value(monkeypatch):
    # the residual is scaled by 1 + sum |term|; an evaluation off by 1e-9 of
    # every term must still fail the 1e-12 tolerance
    import random

    from starwedge import verification

    exact = verification.eval_numeric
    monkeypatch.setattr(verification, "eval_numeric", lambda e, b: exact(e, b) * (1 + 1e-9))
    passed, measured, _ = verification._check_simplify_preserves_eval(random.Random(1), 1e-12)
    assert not passed
    assert measured > 1e-10


# --- exact complex-rational arithmetic against a Fraction-pair reference ------------

# small parts make equal values likely; huge ones test the rounding of to_complex
_fractions = st.one_of(
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
    st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**30)),
)
_pairs = st.tuples(_fractions, _fractions)


def _ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _ref_power(x, n):
    if n < 0:
        d = x[0] * x[0] + x[1] * x[1]
        if d == 0:
            raise ZeroDivisionError
        x, n = (x[0] / d, -x[1] / d), -n
    out = (Fraction(1), Fraction(0))
    for _ in range(n):
        out = _ref_mul(out, x)
    return out


def _assert_matches(c, ref):
    a, b, d = c._a, c._b, c._d
    assert d > 0 and math.gcd(a, b, d) == 1
    assert type(c.re) is Fraction and type(c.im) is Fraction
    assert (c.re, c.im) == ref
    z = c.to_complex()
    assert (z.real, z.imag) == (float(ref[0]), float(ref[1]))
    assert c.is_zero == (ref == (0, 0))
    assert c.is_one == (ref == (1, 0))


@given(_pairs, _pairs, st.integers(-4, 4))
def test_complex_rational_arithmetic_matches_fraction_pairs(x, y, n):
    cx, cy = ComplexRational(*x), ComplexRational(*y)
    _assert_matches(cx, x)
    _assert_matches(cx + cy, (x[0] + y[0], x[1] + y[1]))
    _assert_matches(cx - cy, (x[0] - y[0], x[1] - y[1]))
    _assert_matches(cx * cy, _ref_mul(x, y))
    _assert_matches(-cx, (-x[0], -x[1]))
    if x == (0, 0):
        with pytest.raises(ZeroDivisionError):
            cx.inverse()
    else:
        _assert_matches(cx.inverse(), _ref_power(x, -1))
    try:
        ref = _ref_power(x, n)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            cx.power(n)
    else:
        _assert_matches(cx.power(n), ref)


@given(_pairs, _pairs, _pairs)
def test_complex_rational_equality_agrees_with_hash(x, y, z):
    cx, cy, cz = (ComplexRational(*p) for p in (x, y, z))
    assert (cx == cy) == (x == y)
    # one value reached by different routes has one triple, so one hash
    n = x[0].numerator
    routes = (
        ((cx * cy) * cz, cx * (cy * cz)),
        (cx + cy - cy, cx),
        (cx - cx, ComplexRational(0)),
        (ComplexRational(n, 0), ComplexRational(Fraction(n))),  # the all-int constructor path
    )
    for lhs, rhs in routes:
        assert lhs == rhs and hash(lhs) == hash(rhs)


# --- canonical order ------------------------------------------------------------------

def test_canonical_order_compares_coefficients_as_text():
    # atoms are ordered by the text of their coefficients: "-" sorts before
    # the digits, "10" before "2", and the imaginary part breaks ties
    x = sym("x")
    e = (
        sinh(2 * x) + sinh(10 * x) + sinh(-3 * x) + sinh(3 * x) + sinh(x / 2)
        + sinh(x / 3) + sinh(I * x) + sinh(-I * x) + sinh((1 + I) * x)
    )
    assert to_text(e) == (
        "sinh(-3*x) + sinh(-i*x) + sinh(i*x) + sinh((1+i)*x) + sinh(1/2*x)"
        " + sinh(1/3*x) + sinh(10*x) + sinh(2*x) + sinh(3*x)"
    )
    e = exp(x + 2) + exp(x + 10) + exp(x - 1) + exp(x + rational(1, 2))
    assert to_text(e) == "exp(-1 + x) + exp(1/2 + x) + exp(10 + x) + exp(2 + x)"


def test_canonical_order_of_function_arguments_of_every_key_kind_is_pinned():
    # Fn arguments of all five key kinds: a constant, an atom, a power, a
    # product and a sum
    e = (
        sinh(z0 + z1) * sinh(2 * z0) * sinh(a * z0) * sinh(z0**2) * sinh(z0) * sinh(3)
        + cosh(z0 + z1) * z1 - cosh(a * z0) * cosh(1 / z0)
    )
    assert to_text(e) == (
        "z1*cosh(z0 + z1) - cosh(1/z0)*cosh(a*z0)"
        " + sinh(3)*sinh(z0)*sinh(z0^2)*sinh(2*z0)*sinh(a*z0)*sinh(z0 + z1)"
    )


def test_signed_zeros_of_numeric_evaluation_are_pinned():
    # a one-term expression is evaluated without a sum, so -z0 at z0 = 0.0
    # keeps its negative zero; zero itself is 0j
    b = {"z0": 0.0, "z1": -0.0, "a": 1.0}
    exprs = (ZERO, ONE, -z0, z0 * z1, -z0 * sinh(a * z0), z0 - z1, I * z1)
    assert [repr(eval_numeric(e, b)) for e in exprs] == [
        "0j", "(1+0j)", "(-0+0j)", "(-0+0j)", "(-0+0j)", "0j", "(-0+0j)",
    ]
