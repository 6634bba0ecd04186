import hashlib
import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given

from starwedge.diffop import (
    MINKOWSKI,
    RINDLER,
    BidiffOp,
    ChartMismatchError,
    DiffOp,
    lorentz_generator,
    lowered_coordinate,
    momentum_generator,
    wedge,
)
from starwedge.expr import (
    CR_ONE,
    I,
    ONE,
    ZERO,
    add,
    cosh,
    equality_probe,
    mul,
    sinh,
    substitute,
    sym,
)
from starwedge.rindler import STANDARD_MAP

from starwedge.verification import _recipe_to_expr
from test_expr import recipes
from test_starprod import _leg_by_leg, _readme_twists

a, z0, z1, z2, z3 = (sym(n) for n in ("a", "z0", "z1", "z2", "z3"))
xs = [sym(f"x{k}") for k in range(4)]
zs = [z0, z1, z2, z3]


def hand_built_time_leg() -> DiffOp:
    """The transported time-translation generator, assembled leg by leg."""
    u = a * z0
    return DiffOp.partial(RINDLER, 1, mul(-1, I, sinh(u))) + DiffOp.partial(
        RINDLER, 0, mul(I, cosh(u) / (a * z1))
    )


def hand_built_radial_leg() -> DiffOp:
    u = a * z0
    return DiffOp.partial(RINDLER, 1, mul(I, cosh(u))) + DiffOp.partial(
        RINDLER, 0, mul(-1, I, sinh(u) / (a * z1))
    )


# --- apply -----------------------------------------------------------------------

def test_translation_on_own_coordinate():
    assert momentum_generator(RINDLER, 2).apply(z2) == I


def test_time_leg_on_time_coordinate():
    f0 = momentum_generator(RINDLER, 0)
    assert f0.apply(z0) == I * cosh(a * z0) / (a * z1)
    assert f0 == hand_built_time_leg()


def test_radial_leg_on_time_coordinate():
    f1 = momentum_generator(RINDLER, 1)
    assert f1.apply(z0) == -I * sinh(a * z0) / (a * z1)
    assert f1 == hand_built_radial_leg()


def test_apply_is_linear_in_the_function():
    rng = random.Random(5)
    d = momentum_generator(MINKOWSKI, 0) + lorentz_generator(MINKOWSKI, 0, 1)
    for _ in range(10):
        f = xs[rng.randrange(4)] ** rng.randint(1, 3)
        g = xs[rng.randrange(4)] * xs[rng.randrange(4)]
        assert d.apply(3 * f - 2 * g) == 3 * d.apply(f) - 2 * d.apply(g)


def test_apply_is_linear_in_the_operator():
    p0 = momentum_generator(MINKOWSKI, 0)
    m01 = lorentz_generator(MINKOWSKI, 0, 1)
    f = xs[0] ** 2 * xs[1]
    assert (p0 + m01).apply(f) == p0.apply(f) + m01.apply(f)
    assert (p0 - m01).apply(f) == p0.apply(f) - m01.apply(f)
    assert p0.scale(xs[2]).apply(f) == xs[2] * p0.apply(f)


def test_wedge_is_bilinear():
    p0 = momentum_generator(MINKOWSKI, 0)
    p1 = momentum_generator(MINKOWSKI, 1)
    m23 = lorentz_generator(MINKOWSKI, 2, 3)
    f, g = xs[0] * xs[2], xs[1] * xs[3]
    lhs = wedge(p0 + p1, m23).apply(f, g)
    rhs = wedge(p0, m23).apply(f, g) + wedge(p1, m23).apply(f, g)
    assert lhs == rhs


def test_apply_rejects_foreign_coordinates():
    with pytest.raises(ChartMismatchError):
        momentum_generator(MINKOWSKI, 0).apply(z1)
    with pytest.raises(ChartMismatchError):
        momentum_generator(RINDLER, 0).apply(xs[0])


# --- wedge and pair application ----------------------------------------------------

def test_wedge_with_itself_vanishes():
    p0 = momentum_generator(MINKOWSKI, 0)
    assert wedge(p0, p0).is_zero


def test_wedge_is_antisymmetric():
    p0 = momentum_generator(MINKOWSKI, 0)
    m12 = lorentz_generator(MINKOWSKI, 1, 2)
    assert wedge(p0, m12) == wedge(m12, p0).scale(-CR_ONE)


def test_translation_pair_on_coordinates():
    # (P_mu x_rho)(P_nu x_sigma) = (i delta)(i delta) = -delta delta
    for mu in range(4):
        for nu in range(4):
            pair = BidiffOp.from_terms(
                MINKOWSKI,
                [(CR_ONE, momentum_generator(MINKOWSKI, mu), momentum_generator(MINKOWSKI, nu))],
            )
            for rho in range(4):
                for sigma in range(4):
                    want = mul(-1) if (mu == rho and nu == sigma) else ZERO
                    assert pair.apply(xs[rho], xs[sigma]) == want


def test_wedge_of_translations_on_coordinate_pair():
    # expanding the two tensor legs by hand:
    # (P0 x0)(P1 x1) - (P1 x0)(P0 x1) = (i)(i) - 0 = -1
    w = wedge(momentum_generator(MINKOWSKI, 0), momentum_generator(MINKOWSKI, 1))
    assert w.apply(xs[0], xs[1]) == mul(-1)
    assert w.apply(xs[1], xs[0]) == mul(1)


def test_derivative_legs_annihilate_constants():
    w = wedge(momentum_generator(MINKOWSKI, 0), lorentz_generator(MINKOWSKI, 2, 3))
    f = xs[0] * xs[2]
    assert w.apply(f, ONE) == ZERO
    assert w.apply(ONE, f) == ZERO


def test_bidiff_rejects_mixed_charts():
    with pytest.raises(ChartMismatchError):
        wedge(momentum_generator(MINKOWSKI, 0), momentum_generator(RINDLER, 1))


# --- pullback ----------------------------------------------------------------------

def test_pullback_of_time_translation():
    assert momentum_generator(MINKOWSKI, 0).pullback() == hand_built_time_leg()


def test_pullback_of_transverse_translation():
    got = momentum_generator(MINKOWSKI, 2).pullback()
    assert got == DiffOp.partial(RINDLER, 2, I)


def test_pullback_of_boost_is_time_derivative():
    # the 0-1 boost collapses to -(i/a) d/dz0 on the accelerated chart; the
    # sign follows the lowered-index realization of the generator
    got = lorentz_generator(MINKOWSKI, 0, 1).pullback()
    assert got == DiffOp.partial(RINDLER, 0, -I / a)
    assert lorentz_generator(RINDLER, 0, 1) == got


def test_pullback_requires_flat_chart():
    with pytest.raises(ChartMismatchError):
        momentum_generator(RINDLER, 0).pullback()


@pytest.mark.parametrize(
    "generator",
    [lambda: momentum_generator(MINKOWSKI, mu) for mu in range(4)]
    + [
        lambda a_=al, b_=be: lorentz_generator(MINKOWSKI, a_, b_)
        for al in range(4)
        for be in range(al + 1, 4)
    ],
)
def test_chain_rule_property(generator):
    d = generator()
    coord_map = STANDARD_MAP
    rng = random.Random(11)
    f = add(
        *(
            mul(rng.randint(-3, 3), xs[rng.randrange(4)] ** rng.randint(1, 2), xs[rng.randrange(4)])
            for _ in range(3)
        )
    )
    lhs = d.pullback().apply(substitute(f, coord_map))
    rhs = substitute(d.apply(f), coord_map)
    assert equality_probe(lhs, rhs, trials=20, tol=1e-9)


# --- shared generators -------------------------------------------------------------

LORENTZ_PAIRS = [(al, be) for al in range(4) for be in range(4) if al != be]


@pytest.mark.parametrize("chart", [MINKOWSKI, RINDLER])
def test_generators_are_built_once(chart):
    for mu in range(4):
        assert momentum_generator(chart, mu) is momentum_generator(chart, mu)
    for al, be in LORENTZ_PAIRS:
        assert lorentz_generator(chart, al, be) is lorentz_generator(chart, al, be)


def test_shared_rindler_generators_equal_a_fresh_pullback():
    for mu in range(4):
        assert momentum_generator(RINDLER, mu) == DiffOp.partial(MINKOWSKI, mu, I).pullback()
    for al, be in LORENTZ_PAIRS:
        flat = DiffOp.partial(MINKOWSKI, be, mul(I, lowered_coordinate(MINKOWSKI, al))) + DiffOp.partial(
            MINKOWSKI, al, mul(-1, I, lowered_coordinate(MINKOWSKI, be))
        )
        assert lorentz_generator(RINDLER, al, be) == flat.pullback()


@pytest.mark.parametrize("chart", [MINKOWSKI, RINDLER])
def test_invalid_generator_indices_raise_on_every_call(chart):
    for _ in range(2):
        with pytest.raises(ValueError):
            lorentz_generator(chart, 2, 2)
        with pytest.raises(ValueError):
            momentum_generator(chart, 4)


def test_operator_text_survives_pickle_and_leaves_equality_alone():
    # a fresh pullback, so the text is not computed yet on either operator
    shown = lorentz_generator(MINKOWSKI, 0, 1).pullback()
    unshown = lorentz_generator(MINKOWSKI, 0, 1).pullback()
    text = shown.pretty()
    assert shown == unshown and hash(shown) == hash(unshown)
    for proto in range(pickle.HIGHEST_PROTOCOL + 1):
        for op in (shown, unshown):
            back = pickle.loads(pickle.dumps(op, proto))
            assert back.pretty() == text
            assert back == shown and hash(back) == hash(shown)
    assert unshown.pretty() == text


def test_pickled_operator_keys_a_dict_in_an_interpreter_with_other_string_hashes(tmp_path):
    op = lorentz_generator(RINDLER, 0, 2)
    hash(op), op.pretty()  # store the hash and the text before pickling
    path = tmp_path / "op.pickle"
    path.write_bytes(pickle.dumps(op))
    seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
    script = (
        "import pickle, sys\n"
        "from starwedge.diffop import RINDLER, lorentz_generator\n"
        "loaded = pickle.loads(open(sys.argv[1], 'rb').read())\n"
        "table = {loaded: 'hit'}\n"
        "sys.exit(0 if table.get(lorentz_generator(RINDLER, 0, 2)) == 'hit' else 1)\n"
    )
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(sys.path)}
    run = subprocess.run(
        [sys.executable, "-c", script, str(path)], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr


# --- structure ---------------------------------------------------------------------

def test_lowered_coordinate_signs():
    assert lowered_coordinate(MINKOWSKI, 0) == -xs[0]
    assert lowered_coordinate(MINKOWSKI, 1) == xs[1]


def test_lorentz_algebra_on_coordinates():
    # [M_01, M_12] acting on coordinates matches i eta_11 M_02
    m01 = lorentz_generator(MINKOWSKI, 0, 1)
    m12 = lorentz_generator(MINKOWSKI, 1, 2)
    m02 = lorentz_generator(MINKOWSKI, 0, 2)
    for rho in range(4):
        f = xs[rho]
        lhs = m01.apply(m12.apply(f)) - m12.apply(m01.apply(f))
        rhs = mul(I, m02.apply(f))
        assert lhs == rhs


_OPERATOR_TEXT_SHA256 = {
    "minkowski": "0c2ad1bc59cccb09a9123faf237ce5747ea77c8bc33b46d5067307674b9f5ccf",
    "rindler": "7ced03d0c3f66dee481d66f70639210c698357bdc8075cef3c891af71fdd98cb",
}


@pytest.mark.parametrize("chart", [MINKOWSKI, RINDLER])
def test_generator_and_twist_texts_are_pinned(chart):
    # the 4 + 12 generators and the three README twist operators of the chart;
    # the text orders the legs of every tensor-leg operator
    texts = [momentum_generator(chart, mu).pretty() for mu in range(4)]
    texts += [lorentz_generator(chart, al, be).pretty() for al, be in LORENTZ_PAIRS]
    texts += [tw.operator.pretty() for tw in _readme_twists(chart).values()]
    digest = hashlib.sha256("\n".join(texts).encode("utf-8")).hexdigest()
    assert digest == _OPERATOR_TEXT_SHA256[chart.name]


def test_zero_coefficient_terms_are_dropped():
    # a component that sums to zero is the zero expression: the operator equals
    # one built without it, and neither its action nor its text shows it
    d = DiffOp.partial(MINKOWSKI, 0, xs[2]) + DiffOp.partial(MINKOWSKI, 1)
    d = d - DiffOp.partial(MINKOWSKI, 0, xs[2])
    assert d.coeffs == (ZERO, ONE, ZERO, ZERO)
    assert d == DiffOp.partial(MINKOWSKI, 1) and hash(d) == hash(DiffOp.partial(MINKOWSKI, 1))
    assert d.apply(xs[0] * xs[1]) == xs[0]
    assert d.pretty() == "1*d/dx1"
    assert (d - d).is_zero and (d - d).pretty() == "0"


def test_pretty_printer_shows_leg_structure():
    f0 = momentum_generator(RINDLER, 0)
    assert f0.pretty() == "-i*sinh(a*z0)*d/dz1 + i*cosh(a*z0)/(a*z1)*d/dz0"


# --- the pair action against its composition from single legs ----------------------

def _on_chart(chart, recipe):
    # the recipes are written in z0, z1, z2; the flat chart takes them as x0, x1, x2
    e = _recipe_to_expr(recipe)
    if chart == MINKOWSKI:
        e = substitute(e, {f"z{k}": xs[k] for k in range(3)})
    return e


@pytest.mark.parametrize("kind", ["canonical", "lie", "quadratic"])
@pytest.mark.parametrize("chart", [MINKOWSKI, RINDLER])
@given(r1=recipes, r2=recipes)
def test_pair_action_is_the_sum_of_leg_products(chart, kind, r1, r2):
    op = _readme_twists(chart)[kind].operator
    f, g = _on_chart(chart, r1), _on_chart(chart, r2)
    assert op.apply(f, g) == _leg_by_leg(op, f, g)
