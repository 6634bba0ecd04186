import random
import sys
from fractions import Fraction

import pytest

from starwedge import twists, verification
from starwedge.diffop import MINKOWSKI, RINDLER, DiffOp, lorentz_generator, momentum_generator
from starwedge.expr import ComplexRational, ONE, ZERO, cosh, mul, sym
from starwedge.twists import (
    CanonicalTwist,
    LieTwist,
    QuadraticTwist,
    TwistSpecError,
    WEDGE_NORMALIZATION,
    build_linear_twist,
    spec_from_config,
    spec_to_config,
)

THETA = {(0, 1): Fraction(3, 7), (2, 3): Fraction(-1, 2)}


def test_normalization_constant_value():
    assert WEDGE_NORMALIZATION == ComplexRational(Fraction(0), Fraction(-1, 2))


# --- parameter validation -----------------------------------------------------

def test_theta_matrix_antisymmetry_enforced():
    rows = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    with pytest.raises(TwistSpecError):
        CanonicalTwist(rows)


def test_theta_sparse_components_fill_both_triangles():
    spec = CanonicalTwist(THETA)
    assert spec.theta[0][1] == Fraction(3, 7)
    assert spec.theta[1][0] == Fraction(-3, 7)


def test_theta_rejects_diagonal_component():
    with pytest.raises(TwistSpecError):
        CanonicalTwist({(1, 1): Fraction(1)})


def test_lie_vector_support_constraint():
    with pytest.raises(TwistSpecError):
        LieTwist(Fraction(1, 2), (Fraction(1), 0, 0, 0), 0, 1)
    with pytest.raises(TwistSpecError):
        LieTwist(Fraction(1, 2), (0, 0, 1, 0), 2, 2)


def test_quadratic_indices_pairwise_distinct():
    with pytest.raises(TwistSpecError):
        QuadraticTwist(Fraction(1), (0, 1, 2, 2))


# --- classical limits at the constructor ----------------------------------------

def test_zero_theta_gives_zero_operator():
    assert build_linear_twist(CanonicalTwist({}), MINKOWSKI).operator.is_zero
    assert build_linear_twist(CanonicalTwist({(0, 1): 0}), RINDLER).operator.is_zero


def test_infinite_kappa_gives_zero_operator():
    assert build_linear_twist(LieTwist(0, (0, 0, 1, 0), 0, 1), RINDLER).operator.is_zero


def test_zero_xi_gives_zero_operator():
    assert build_linear_twist(QuadraticTwist(0, (0, 1, 2, 3)), MINKOWSKI).operator.is_zero


# --- operator structure ------------------------------------------------------------

@pytest.mark.parametrize("chart", [MINKOWSKI, RINDLER])
def test_twists_annihilate_constants(chart):
    g = sym(chart.coords[1]) * cosh(sym(chart.coords[0]))
    for tw in (
        build_linear_twist(CanonicalTwist(THETA), chart),
        build_linear_twist(LieTwist(Fraction(1, 4), (0, 0, Fraction(2, 3), 0), 0, 1), chart),
        build_linear_twist(QuadraticTwist(Fraction(1, 6), (0, 1, 2, 3)), chart),
    ):
        assert tw.operator.apply(ONE, g) == ZERO
        assert tw.operator.apply(g, ONE) == ZERO


def test_chart_consistency_canonical():
    flat = build_linear_twist(CanonicalTwist(THETA), MINKOWSKI)
    curved = build_linear_twist(CanonicalTwist(THETA), RINDLER)
    assert flat.operator.pullback() == curved.operator


def test_chart_consistency_lie_and_quadratic():
    flat = build_linear_twist(LieTwist(Fraction(1, 4), (0, 0, 1, 0), 0, 1), MINKOWSKI)
    curved = build_linear_twist(LieTwist(Fraction(1, 4), (0, 0, 1, 0), 0, 1), RINDLER)
    assert flat.operator.pullback() == curved.operator
    flat_q = build_linear_twist(QuadraticTwist(Fraction(1, 6), (0, 1, 2, 3)), MINKOWSKI)
    curved_q = build_linear_twist(QuadraticTwist(Fraction(1, 6), (0, 1, 2, 3)), RINDLER)
    assert flat_q.operator.pullback() == curved_q.operator


def _drop_one_chain_rule_term(pullback):
    def broken(self):
        # zero the highest-index nonzero component, the leading term of the text
        moved = pullback(self)
        coeffs = list(moved.coeffs)
        top = max((nu for nu, c in enumerate(coeffs) if c != ZERO), default=None)
        if top is not None:
            coeffs[top] = ZERO
        return DiffOp(moved.chart, tuple(coeffs))

    return broken


def test_chart_consistency_check_catches_a_broken_pullback(monkeypatch):
    # the accelerated-chart generators are shared values built by the true
    # pullback; the flat twist must still be transported afresh, so a pullback
    # broken afterwards shows as a difference, not as a value equal to itself
    rng = random.Random(0)
    assert verification._check_twist_chart_consistency(rng, None).passed
    with monkeypatch.context() as m:
        m.setattr(DiffOp, "pullback", _drop_one_chain_rule_term(DiffOp.pullback))
        assert not verification._check_twist_chart_consistency(rng, None).passed
        assert not verification._check_chain_rule(rng, 1e-9).passed
    momentum_generator.cache_clear()
    lorentz_generator.cache_clear()


def test_chart_consistency_check_catches_a_pullback_broken_from_the_start(monkeypatch):
    # with the generator caches empty, the accelerated-chart generators are
    # built by the broken pullback too, so the twist and the fresh transport
    # of the flat twist agree; the action on substituted flat functions,
    # which uses no pullback, must still show the fault
    momentum_generator.cache_clear()
    lorentz_generator.cache_clear()
    try:
        with monkeypatch.context() as m:
            m.setattr(DiffOp, "pullback", _drop_one_chain_rule_term(DiffOp.pullback))
            assert not verification._check_twist_chart_consistency(random.Random(0), None).passed
    finally:
        momentum_generator.cache_clear()
        lorentz_generator.cache_clear()
    assert verification._check_twist_chart_consistency(random.Random(0), None).passed


def test_parameter_scaling_is_exact():
    s = Fraction(7, 2)
    f, g = sym("z0") * sym("z2"), sym("z1") ** 2
    base = build_linear_twist(LieTwist(Fraction(1, 4), (0, 0, 1, 0), 0, 1), RINDLER)
    scaled = build_linear_twist(LieTwist(Fraction(1, 4) * s, (0, 0, 1, 0), 0, 1), RINDLER)
    assert scaled.operator.apply(f, g) == mul(s, base.operator.apply(f, g))


def test_lie_sums_over_vector_support():
    two = build_linear_twist(
        LieTwist(Fraction(1, 2), (0, 0, Fraction(1, 3), Fraction(2, 5)), 0, 1), MINKOWSKI
    )
    only2 = build_linear_twist(LieTwist(Fraction(1, 2), (0, 0, Fraction(1, 3), 0), 0, 1), MINKOWSKI)
    only3 = build_linear_twist(LieTwist(Fraction(1, 2), (0, 0, 0, Fraction(2, 5)), 0, 1), MINKOWSKI)
    assert two.operator == only2.operator + only3.operator


# --- dispatch and serialization -------------------------------------------------------

def test_build_linear_twist_dispatch():
    for spec in (
        CanonicalTwist(THETA),
        LieTwist(Fraction(1, 3), (0, 0, 1, 0), 0, 1),
        QuadraticTwist(Fraction(1, 6), (0, 1, 2, 3)),
    ):
        tw = build_linear_twist(spec, RINDLER)
        assert tw.spec == spec
        assert tw.chart == RINDLER


def test_verify_builds_every_twist_with_build_linear_twist(monkeypatch):
    # rebind build_linear_twist in every starwedge module that holds it, as
    # the benchmark's tracer does; the suite makes 44 twists, all through it
    built = []
    original = twists.build_linear_twist

    def counted(spec, chart):
        built.append(spec.kind)
        return original(spec, chart)

    for name, module in list(sys.modules.items()):
        if name.startswith("starwedge") and getattr(module, "build_linear_twist", None) is original:
            monkeypatch.setattr(module, "build_linear_twist", counted)
    assert all(r.passed for r in verification.run_all_checks(seed=1))
    assert len(built) == 44
    assert set(built) == {"canonical", "lie", "quadratic"}


@pytest.mark.parametrize(
    "spec",
    [
        CanonicalTwist(THETA),
        LieTwist(Fraction(1, 3), (0, Fraction(-2, 7), 0, 0), 0, 2),
        QuadraticTwist(Fraction(5, 9), (1, 3, 0, 2)),
    ],
)
def test_config_round_trip(spec):
    assert spec_from_config(spec_to_config(spec)) == spec


def test_config_rejects_unknown_keys():
    with pytest.raises(TwistSpecError):
        spec_from_config({"kind": "lie", "inv_kappa": "1", "zeta": "0 0 1 0",
                          "alpha": "0", "beta": "1", "gamma": "2"})
    with pytest.raises(TwistSpecError):
        spec_from_config({"kind": "nonsense"})
    with pytest.raises(TwistSpecError):
        spec_from_config({"kind": "canonical", "theta99": "1"})
