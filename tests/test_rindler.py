import random

import pytest

from starwedge.expr import ONE, eval_numeric, exp, sym
from starwedge.rindler import (
    MetricPullback,
    RindlerMap,
    inverse_map_numeric,
    partial_transport,
    standard_map,
)

a, z0, z1, z2, z3 = (sym(n) for n in ("a", "z0", "z1", "z2", "z3"))
ZS = (z0, z1, z2, z3)


def test_forward_at_zero_rapidity():
    xs = RindlerMap().forward(ZS)
    vals = [eval_numeric(x, {"a": 1.0, "z0": 0.0, "z1": 1.0, "z2": 0.0, "z3": 0.0}) for x in xs]
    assert vals == [0.0, 1.0, 0.0, 0.0]


def test_interval_reduces_to_squared_lapse():
    m = RindlerMap()
    xs = m.forward(ZS)
    assert xs[1] ** 2 - xs[0] ** 2 == z1 ** 2

    quadratic = RindlerMap(lapse=z1 ** 2)
    xq = quadratic.forward(ZS)
    assert xq[1] ** 2 - xq[0] ** 2 == z1 ** 4


def test_transverse_passthrough():
    xs = RindlerMap().forward(ZS)
    assert xs[2] == z2
    assert xs[3] == z3


def test_standard_map_matches_default_profile():
    assert standard_map() == RindlerMap().as_substitution()


def test_metric_pullback_standard_profile():
    mp = RindlerMap().metric_pullback()
    assert isinstance(mp, MetricPullback)
    assert mp.computed == (-(a ** 2) * z1 ** 2, ONE, ONE, ONE)
    # the single-power-of-a variant is reported, never used in checks
    assert mp.printed_alternative == (-a * z1 ** 2, ONE, ONE, ONE)


def test_metric_pullback_general_profile():
    mp = RindlerMap(lapse=exp(z1)).metric_pullback()
    assert mp.computed == (-(a ** 2) * exp(z1) ** 2, exp(z1) ** 2, ONE, ONE)


def test_roundtrip_identity_on_wedge_box():
    rng = random.Random(3)
    m = RindlerMap()
    xs = m.forward(ZS)
    for _ in range(100):
        acc = rng.uniform(0.5, 2.0)
        z = tuple(rng.uniform(0.5, 2.0) for _ in range(4))
        b = {"a": acc, "z0": z[0], "z1": z[1], "z2": z[2], "z3": z[3]}
        x_num = tuple(eval_numeric(x, b).real for x in xs)
        back = inverse_map_numeric(x_num, acc)
        assert max(abs(p - q) for p, q in zip(z, back)) < 1e-12


def test_inverse_rejects_points_outside_wedge():
    with pytest.raises(ValueError):
        inverse_map_numeric((2.0, 1.0, 0.0, 0.0), 1.0)


def test_transport_is_consistent_with_map():
    # numeric Jacobian check of the hand-written derivative transport
    coord_map = standard_map()
    rng = random.Random(9)
    for mu in range(4):
        rules = partial_transport(mu)
        for _ in range(5):
            b = {n: rng.uniform(0.5, 2.0) for n in ("a", "z0", "z1", "z2", "z3")}
            # d x_mu / d z_k entries contracted against the transport must give
            # the identity on coordinate functions
            for name, mapped in coord_map.items():
                from starwedge.expr import differentiate

                got = sum(
                    eval_numeric(c, b) * eval_numeric(differentiate(mapped, f"z{k}"), b)
                    for c, k in rules
                )
                want = 1.0 if name == f"x{mu}" else 0.0
                assert abs(got - want) < 1e-12


def test_transport_is_built_once():
    for mu in range(4):
        assert partial_transport(mu) is partial_transport(mu)
    for _ in range(2):
        with pytest.raises(ValueError):
            partial_transport(4)
