import cmath
import gc
import math
import pickle
import struct
from fractions import Fraction

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from starwedge.expr import (
    _FN_RULES,
    FUNCTIONS,
    Add,
    ComplexRational,
    Const,
    Expr,
    Fn,
    I,
    ONE,
    ZERO,
    NonMonomialDivisionError,
    Pow,
    Sym,
    UnboundSymbolError,
    _add_term,
    _as_terms,
    _from_terms,
    _mono_key,
    _merged_sum_of_products,
    _mul_terms,
    _packed_sum_of_products,
    _parts,
    _pow_terms,
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
    mul,
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


def test_every_cosh_atom_of_a_monomial_is_reduced():
    m = cosh(a * z0) * cosh(z1)
    want = (1 + sinh(a * z0) ** 2) * (1 + sinh(z1) ** 2)
    assert m ** 2 == want
    assert m * m == want


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
@example(
    # ((z0 - 1)^2)^3 ((z1 - 1)^2)^3: the expanded form cancels to 1.1e-12 of 1 + |value|
    (
        "mul",
        ("pow", ("pow", ("add", ("sym", "z0"), ("int", -1)), 2), 3),
        ("pow", ("pow", ("add", ("sym", "z1"), ("int", -1)), 2), 3),
    ),
    {"z0": 2.0, "z1": 1.46484375, "z2": 0.5, "a": 0.5, "w": 0.5},
)
def test_normalization_preserves_value(recipe, bindings):
    # the canonical form is a sum of expanded terms that can cancel, and evaluating
    # it in double rounds at the size of its largest terms: the residual is measured
    # against 1 + sum |term|, as verify's expr_simplify_preserves_eval does
    e = _recipe_to_expr(recipe)
    try:
        direct = _recipe_eval(recipe, bindings)
        canon = eval_numeric(e, bindings)
        scale = 1.0 + sum(abs(eval_numeric(t, bindings)) for t in summands(e))
    except OverflowError:
        return
    if not (cmath.isfinite(direct) and cmath.isfinite(canon)):
        return
    assert abs(direct - canon) <= 1e-12 * scale


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
        # _parts sorts what _from_terms stored: each monomial in _skey order with
        # nonzero exponents, each coefficient nonzero, as _mul_terms relies on
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


@given(recipes, recipes, st.integers(-3, 3))
def test_subtraction_and_negation_add_the_negated_terms(r1, r2, n):
    x, y = _recipe_to_expr(r1), _recipe_to_expr(r2)
    for got, want in (
        (x - y, add(x, mul(-1, y))),
        (y - x, add(y, mul(-1, x))),
        (n - x, add(n, mul(-1, x))),
        (x - n, add(x, mul(-1, n))),
        (-x, add(mul(-1, x))),
    ):
        assert got == want and hash(got) == hash(want) and to_text(got) == to_text(want)


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


# --- a sum stores its term map; its sorted terms and node view are built on demand ---

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


@given(recipes, recipes)
def test_sums_and_products_do_not_depend_on_operand_order(r1, r2):
    x, y = _recipe_to_expr(r1), _recipe_to_expr(r2)
    for lhs, rhs in ((add(x, y), add(y, x)), (mul(x, y), mul(y, x))):
        # compared and hashed before either is sorted, then printed and sorted
        assert lhs == rhs and hash(lhs) == hash(rhs)
        assert to_text(lhs) == to_text(rhs) and _parts(lhs) == _parts(rhs)
        keys = [_mono_key(mono) for mono, _ in _parts(lhs)]
        assert keys == sorted(set(keys))


def test_a_term_map_read_from_an_expression_is_the_callers_own():
    for build in (lambda: z1 * sinh(u) + 3 * z0**2 - I, lambda: 2 * z0, lambda: ZERO, lambda: z0):
        for read_first in (False, True):
            e, twin = build(), build()
            if read_first:
                hash(e), to_text(e)
            terms = _as_terms(e)
            for mono in list(terms)[:1]:
                del terms[mono]
            terms[((z3, 1),)] = ComplexRational(5)
            assert e == twin and hash(e) == hash(twin) and to_text(e) == to_text(twin)
            assert _as_terms(e) == _as_terms(twin) != terms


def test_a_sum_is_sorted_only_when_its_order_is_read(monkeypatch):
    from starwedge import diffop, expr, starprod, twists

    spec = twists.spec_from_config({"kind": "quadratic", "xi": "1/6", "indices": "0 1 2 3"})
    twist = twists.build_linear_twist(spec, diffop.RINDLER)
    f, g = (z0 + z1 * sinh(u) + z2) ** 4, (z3 + z1 * cosh(u) + z0 * z2) ** 4
    sorted_monomials = []
    mono_key = expr._mono_key
    monkeypatch.setattr(expr, "_mono_key", lambda mono: sorted_monomials.append(mono) or mono_key(mono))
    e = starprod.commutator(f, g, twist)
    rebuilt = _from_terms(_as_terms(e))
    assert e == rebuilt and hash(e) == hash(rebuilt)
    assert sorted_monomials == []
    # printing sorts the sum once, one key per term, and keeps the order
    text = to_text(e)
    assert len(sorted_monomials) == len(_as_terms(e)) > 1
    assert to_text(e) == text and len(sorted_monomials) == len(_as_terms(e))


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


_integers = st.one_of(st.integers(-6, 6), st.integers(-(10**30), 10**30))


@given(_integers, _integers, _integers, _integers)
def test_a_product_of_gaussian_integers_matches_fraction_pairs(a, b, c, e):
    # both denominators are 1, so the product is built without a gcd
    x, y = (Fraction(a), Fraction(b)), (Fraction(c), Fraction(e))
    product = ComplexRational(a, b) * ComplexRational(c, e)
    _assert_matches(product, _ref_mul(x, y))
    assert product._d == 1


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


def _reference_eval(e, bindings):
    """Numeric evaluation as a walk of the records of ``Add.terms``: each record's
    factors multiplied from 1 + 0j, a one-factor record and a one-term sum unmultiplied
    and unsummed."""
    if isinstance(e, Add):
        terms = e.terms
        if len(terms) == 1:
            return _reference_eval(terms[0], bindings)
        return sum(_reference_eval(t, bindings) for t in terms) if terms else 0j
    if isinstance(e, Const):
        return e.value.to_complex()
    if isinstance(e, Sym):
        return complex(bindings[e.name])
    if isinstance(e, Fn):
        return _FN_RULES[e.fname].value(_reference_eval(e.arg, bindings))
    if isinstance(e, Pow):
        return _reference_eval(e.base, bindings) ** e.exponent
    out = 1 + 0j
    for f in e.factors:
        out *= _reference_eval(f, bindings)
    return out


def _bits(z):
    return struct.pack("<dd", z.real, z.imag)


# signed zeros and negative values, where the order of the products shows in the bits
_SIGNED_BINDINGS = st.fixed_dictionaries(
    {n: st.one_of(st.sampled_from([0.0, -0.0, -1.5]), st.floats(0.5, 2.0)) for n in _NAMES}
)


@given(recipes, _SIGNED_BINDINGS)
@example(("mul", ("int", -1), ("sym", "z0")), {"z0": 0.0, "z1": -0.0, "z2": 0.5, "a": 1.0, "w": 1.0})
def test_numeric_evaluation_is_the_record_walk_bit_for_bit(recipe, bindings):
    e = _recipe_to_expr(recipe)
    for x in (e, I * e - 1, e * sinh(z1)):
        records = ()
        if isinstance(x, Add):
            if x is not e and x is not ZERO:
                # a new sum is keyed and evaluated from its sorted terms: no record is built
                _skey(sinh(x))
                try:
                    eval_numeric(x, bindings)
                except (OverflowError, ZeroDivisionError):
                    pass
                assert not _view_built(x)
            records = x.terms
        for y in (x, *records):
            try:
                want = _reference_eval(y, bindings)
            except (OverflowError, ZeroDivisionError) as err:
                with pytest.raises(type(err)):
                    eval_numeric(y, bindings)
                continue
            assert _bits(eval_numeric(y, bindings)) == _bits(want)


# --- the product of term maps -------------------------------------------------------

def _is_cosh(atom):
    return isinstance(atom, Fn) and atom.fname == "cosh"


def _reference_monomial(atoms):
    """The monomial of an atom dict: its atoms sorted by ``_key``, zero exponents dropped."""
    return tuple(sorted([(x, e) for x, e in atoms.items() if e], key=lambda it: it[0]._key))


def _reference_reduce(atoms, coeff, out):
    """Add coeff times the monomial of the atom dict ``atoms`` into ``out``, with each
    cosh power >= 2 expanded by the binomial theorem, one recursion per term."""
    for atom, e in atoms.items():
        if _is_cosh(atom) and e >= 2:
            rest = dict(atoms)
            del rest[atom]
            k, r = divmod(e, 2)
            if r:
                rest[atom] = 1
            s_atom = Fn("sinh", atom.arg)
            binom = 1
            for j in range(k + 1):
                sub = dict(rest)
                if j:
                    sub[s_atom] = sub.get(s_atom, 0) + 2 * j
                _reference_reduce(sub, coeff * ComplexRational(binom), out)
                binom = binom * (k - j) // (j + 1)
            return
    _add_term(out, _reference_monomial(atoms), coeff)


# sinh and cosh of one shared composite argument, as on the accelerated chart,
# and of a second argument, so a monomial may hold two distinct cosh atoms
_PRODUCT_ATOMS = (z0, z1, a, sinh(u), cosh(u), sinh(z1), cosh(z1))
# a reduced monomial: any exponent from -2 to 2, cosh at most 1; zeros drop out
_monomials = st.one_of(
    st.just(()),
    st.tuples(*[st.integers(-2, 1 if _is_cosh(x) else 2) for x in _PRODUCT_ATOMS]).map(
        lambda exps: _reference_monomial(dict(zip(_PRODUCT_ATOMS, exps)))
    ),
)
_coefficients = st.tuples(st.integers(-3, 3), st.integers(-2, 2)).map(
    lambda parts: ComplexRational(*parts)
)


def _term_map(terms):
    out = {}
    for mono, coeff in terms:
        _add_term(out, mono, coeff)
    return out


_term_maps = st.lists(st.tuples(_monomials, _coefficients), max_size=5).map(_term_map)


@st.composite
def _nested_operands(draw):
    """Two term maps, the atoms of every monomial of one a subset of the other's.

    Either operand may hold the subset, so m2 may bring no atom that m1
    lacks, or only such atoms; exponents are drawn nonzero, so no atom drops
    out of a monomial.
    """
    atoms = draw(st.sets(st.sampled_from(_PRODUCT_ATOMS), min_size=1))
    subset = draw(st.sets(st.sampled_from(sorted(atoms, key=_skey))))

    def side(chosen):
        exps = st.sampled_from([-2, -1, 1, 2])
        terms = []
        for _ in range(draw(st.integers(1, 3))):
            mono = _reference_monomial(
                {x: draw(st.sampled_from([-2, -1, 1]) if _is_cosh(x) else exps) for x in chosen}
            )
            terms.append((mono, draw(_coefficients)))
        return _term_map(terms)

    pair = (side(atoms), side(subset))
    return pair[::-1] if draw(st.booleans()) else pair


def _reference_product(t1, t2, out):
    """The product without fast paths: each pair merged into a full atom dict and reduced."""
    for m1, c1 in t1.items():
        for m2, c2 in t2.items():
            atoms = dict(m1)
            for atom, e in m2:
                atoms[atom] = atoms.get(atom, 0) + e
            _reference_reduce(atoms, c1 * c2, out)
    return out


_PRODUCT_OPERANDS = (st.one_of(st.tuples(_term_maps, _term_maps), _nested_operands()), _term_maps)


@given(*_PRODUCT_OPERANDS)
def test_the_fast_paths_of_a_product_are_not_seen(operands, t3):
    t1, t2 = operands
    got = _mul_terms(t1, t2)
    assert got == _reference_product(t1, t2, {})
    # accumulating into a map that already holds terms, which may cancel
    assert _mul_terms(t1, t2, dict(t3)) == _reference_product(t1, t2, dict(t3))
    for mono in got:
        assert list(mono) == sorted(mono, key=lambda it: _skey(it[0]))
        assert all(e != 0 for _, e in mono)
        assert all(e <= 1 for atom, e in mono if atom is cosh(u))


@given(_monomials, _coefficients.filter(lambda c: not c.is_zero), st.integers(-3, 4))
# two cosh atoms that both reach a power of 3, one beside a sinh of its argument
@example(_reference_monomial({cosh(u): 1, cosh(z1): 1, sinh(z1): -1}), ComplexRational(2, 1), 3)
def test_a_monomial_power_is_the_reference_reduction_of_its_scaled_atoms(mono, coeff, n):
    want = {}
    _reference_reduce({atom: e * n for atom, e in mono}, coeff.power(n), want)
    assert _pow_terms({mono: coeff}, n) == want


def unshrunk(test, *strategies):
    """The property ``test`` drawn from ``strategies``, stopping at its first failure.

    A mutant fails a property on most draws; shrinking its counterexample
    would cost seconds and show nothing more.  A mutant caught by a few percent
    of the draws still escapes 60 of them in about one run of six, so the
    search may take up to 1000; it stops at the first failure.
    """
    inner = test.hypothesis.inner_test
    return settings(phases=[Phase.generate], database=None, max_examples=1000)(given(*strategies)(inner))


def _product_keeping_m2_order(t1, t2, out=None):
    """``_mul_terms`` with one defect: a product whose atoms all occur in m2 is
    taken to be in m2's order, but its atom dict lists m1's atoms first."""
    out = {} if out is None else out
    for m1, c1 in t1.items():
        for m2, c2 in t2.items():
            atoms = dict(m1)
            for atom, e in m2:
                atoms[atom] = atoms.get(atom, 0) + e
            if not set(atoms) <= {atom for atom, _ in m2} or any(
                e >= 2 and _is_cosh(atom) for atom, e in atoms.items()
            ):
                _reference_reduce(atoms, c1 * c2, out)
                continue
            _add_term(out, tuple((atom, e) for atom, e in atoms.items() if e), c1 * c2)
    return out


def test_a_product_that_keeps_m2_order_fails_the_fast_path_property(monkeypatch):
    monkeypatch.setitem(globals(), "_mul_terms", _product_keeping_m2_order)
    with pytest.raises(AssertionError):
        unshrunk(test_the_fast_paths_of_a_product_are_not_seen, *_PRODUCT_OPERANDS)()


def _product_merging_by_id(t1, t2, out=None):
    """``_mul_terms`` with one defect: its merge of m1 and m2 orders the atoms
    of the two by ``id``, not by ``_key``."""
    out = {} if out is None else out
    for m1, c1 in t1.items():
        for m2, c2 in t2.items():
            merged, i, j = [], 0, 0
            while i < len(m1) and j < len(m2):
                (a1, e1), (a2, e2) = m1[i], m2[j]
                if a1 is a2:
                    if e1 + e2:
                        merged.append((a1, e1 + e2))
                    i, j = i + 1, j + 1
                elif id(a1) < id(a2):
                    merged.append(m1[i])
                    i += 1
                else:
                    merged.append(m2[j])
                    j += 1
            merged += m1[i:] + m2[j:]
            if any(e >= 2 and _is_cosh(atom) for atom, e in merged):
                _reference_reduce(dict(merged), c1 * c2, out)
            else:
                _add_term(out, tuple(merged), c1 * c2)
    return out


def test_a_product_that_merges_by_id_fails_the_fast_path_property(monkeypatch):
    # the ids of the atoms of _PRODUCT_ATOMS do not follow their key order, so
    # the mutant orders some pairs the other way
    monkeypatch.setitem(globals(), "_mul_terms", _product_merging_by_id)
    with pytest.raises(AssertionError):
        unshrunk(test_the_fast_paths_of_a_product_are_not_seen, *_PRODUCT_OPERANDS)()


# --- the two strategies of a sum of products ------------------------------------------

# exponents near 45 put a sum of three past the 8-bit field of the packed layout;
# a reduced monomial holds cosh at most to the first power
_wide_exponents = st.one_of(st.integers(-2, 2), st.integers(40, 45), st.integers(-45, -40))
_wide_cosh_exponents = st.one_of(st.integers(-2, 1), st.integers(-45, -40))
_wide_monomials = st.one_of(
    st.just(()),
    st.tuples(*[_wide_cosh_exponents if _is_cosh(x) else _wide_exponents for x in _PRODUCT_ATOMS]).map(
        lambda exps: _reference_monomial(dict(zip(_PRODUCT_ATOMS, exps)))
    ),
)
# complex coefficients over unlike denominators
_rational_coefficients = st.builds(
    lambda re, im, d1, d2: ComplexRational(Fraction(re, d1), Fraction(im, d2)),
    st.integers(-3, 3), st.integers(-2, 2), st.sampled_from([1, 2, 3, 7]), st.sampled_from([1, 2, 3, 7]),
)


@st.composite
def _product_rows(draw):
    """Rows (a, [(b_j, c_j), ...]) as a contraction hands them over: the b maps, like
    the derivatives of its second slot, are shared by the rows."""
    monomials = st.one_of(_monomials, _wide_monomials) if draw(st.booleans()) else _monomials
    maps = st.lists(st.tuples(monomials, _rational_coefficients), max_size=4).map(_term_map)
    columns = draw(st.lists(maps, min_size=1, max_size=3))
    return [
        (draw(maps), [(draw(st.sampled_from(columns)), draw(maps)) for _ in range(draw(st.integers(0, 3)))])
        for _ in range(draw(st.integers(0, 3)))
    ]


@st.composite
def _rows_at_the_field_limit(draw):
    """One chain a * b * c at the edge of the packed layout's 8-bit field, beside small terms.

    The sinh(u) exponents of a, b and c sum to 125, 126 or 127, 0 to 2 below
    the largest exponent an 8-bit field holds, and cosh(u) is shared within
    the chain, so that its reduction adds 2 to sinh(u): at 126 and 127 the
    field holds the product only if its width counts those 2.  Every other
    exponent is at most 2 in size, so the sinh(u) exponents set the width.
    """
    total = 127 - draw(st.integers(0, 2))
    e_a, e_b = draw(st.integers(3, 40)), draw(st.integers(3, 40))
    # cosh(u) in b and c, reduced within the row, or in a and b or c, reduced against a
    shared = draw(st.sampled_from([(0, 1, 1), (1, 1, 1), (1, 1, 0), (1, 0, 1)]))

    def factor(e, with_cosh):
        atoms = {**dict(draw(_monomials)), sinh(u): e, cosh(u): with_cosh}
        chain = (_reference_monomial(atoms), draw(_rational_coefficients.filter(lambda c: not c.is_zero)))
        return _term_map([chain, *draw(st.lists(st.tuples(_monomials, _rational_coefficients), max_size=2))])

    a_map, b_map, c_map = (factor(e, s) for e, s in zip((e_a, e_b, total - e_a - e_b), shared))
    return [(a_map, [(b_map, c_map)])]


def _one(atoms, coeff=1):
    return {_reference_monomial(atoms): ComplexRational(coeff)}


@given(st.one_of(_product_rows(), _rows_at_the_field_limit()))
# two distinct cosh atoms shared by b and c, and cosh(u) again between the row and a
@example([(
    _one({cosh(u): 1, z1: -1}),
    [(_one({cosh(u): 1, cosh(z1): 1}), _one({cosh(u): 1, cosh(z1): 1, sinh(z1): 1})),
     (_one({cosh(u): 1, z0: 1}), _one({z1: 1}))],
)])
# 1/cosh and other negative exponents
@example([(
    _one({cosh(u): -1, z1: -2}),
    [(_one({cosh(u): 1, sinh(u): -1}), _one({cosh(u): -1, z0: -1})),
     (_one({cosh(z1): -1, a: -2}), _one({cosh(z1): 1, sinh(z1): -2}))],
)])
# an exponent past the 8-bit field
@example([(_one({z1: 45}), [(_one({z1: 45}), _one({z1: 45}))])])
# exponents that fit 8 bits, but the sinh(u)^2 of a cosh reduction does not
@example([(
    _one({sinh(u): 40, cosh(u): 1}),
    [(_one({sinh(u): 43, cosh(u): 1}), _one({sinh(u): 44, cosh(u): 1}))],
)])
# complex coefficients over different denominators
@example([(
    {_reference_monomial({z0: 1}): ComplexRational(Fraction(1, 2), Fraction(1, 3)),
     (): ComplexRational(0, 1)},
    [({_reference_monomial({cosh(u): 1}): ComplexRational(Fraction(2, 7), -1)},
      {_reference_monomial({cosh(u): 1, z1: 2}): ComplexRational(0, Fraction(1, 6))})],
)])
# a row that cancels, and two rows that cancel each other: the result is {}
@example([
    (_one({z0: 1}), [(_one({cosh(u): 1}), _one({z1: 1})), (_one({cosh(u): 1}), _one({z1: 1}, -1))]),
    (_one({z0: 1}), [(_one({sinh(u): 1}), _one({cosh(u): 1}, Fraction(1, 3)))]),
    (_one({z0: 1}), [(_one({sinh(u): 1}), _one({cosh(u): 1}, Fraction(-1, 3)))]),
])
def test_the_packed_and_the_merged_sum_of_products_agree(rows):
    assert _packed_sum_of_products(rows) == _merged_sum_of_products(rows)


def test_every_interned_atom_carries_its_structural_key():
    keep = (cosh(z0 + z1), exp(1 / z0), tanh(2 * z1 * sinh(u)), sinh(3))
    atoms = list(Sym._live.values()) + list(Fn._live.values())
    assert all(atom in atoms for atom in keep)
    for atom in atoms:
        want = (1, atom.name) if isinstance(atom, Sym) else (2, atom.fname, _skey(atom.arg))
        assert atom._key == _skey(atom) == want


def test_a_product_of_one_factor_is_that_factor():
    e = z1 * sinh(u) + 2
    assert mul(e) is e and mul(z0) is z0
    assert mul(3) == integer(3) and mul(0) == ZERO and mul(ComplexRational(0, 1)) == I
