import random

import pytest

from starwedge.expr import ONE, eval_numeric, sym
from starwedge.rindler import (
    STANDARD_MAP,
    MetricPullback,
    RindlerMap,
    inverse_map_numeric,
    partial_transport,
)

a, z0, z1, z2, z3 = (sym(n) for n in ("a", "z0", "z1", "z2", "z3"))
XS = tuple(STANDARD_MAP.values())


def test_forward_at_zero_rapidity():
    vals = [eval_numeric(x, {"a": 1.0, "z0": 0.0, "z1": 1.0, "z2": 0.0, "z3": 0.0}) for x in XS]
    assert vals == [0.0, 1.0, 0.0, 0.0]


def test_interval_reduces_to_squared_lapse():
    assert XS[1] ** 2 - XS[0] ** 2 == z1 ** 2


def test_transverse_passthrough():
    assert XS[2] == z2
    assert XS[3] == z3


def test_standard_map_matches_default_profile():
    # one read-only map, built at import and shared
    assert RindlerMap().as_substitution() is STANDARD_MAP
    assert list(STANDARD_MAP) == ["x0", "x1", "x2", "x3"]
    with pytest.raises(TypeError):
        STANDARD_MAP["x0"] = z1


def test_metric_pullback_standard_profile():
    mp = RindlerMap().metric_pullback()
    assert isinstance(mp, MetricPullback)
    assert mp.computed == (-(a ** 2) * z1 ** 2, ONE, ONE, ONE)
    # the single-power-of-a variant is reported, never used in checks
    assert mp.printed_alternative == (-a * z1 ** 2, ONE, ONE, ONE)


def test_roundtrip_identity_on_wedge_box():
    rng = random.Random(3)
    for _ in range(100):
        acc = rng.uniform(0.5, 2.0)
        z = tuple(rng.uniform(0.5, 2.0) for _ in range(4))
        b = {"a": acc, "z0": z[0], "z1": z[1], "z2": z[2], "z3": z[3]}
        x_num = tuple(eval_numeric(x, b).real for x in XS)
        back = inverse_map_numeric(x_num, acc)
        assert max(abs(p - q) for p, q in zip(z, back)) < 1e-12


def test_inverse_rejects_points_outside_wedge():
    with pytest.raises(ValueError):
        inverse_map_numeric((2.0, 1.0, 0.0, 0.0), 1.0)


def test_transport_is_consistent_with_map():
    # numeric Jacobian check of the transport derived from the map
    rng = random.Random(9)
    for mu in range(4):
        rules = partial_transport(mu)
        for _ in range(5):
            b = {n: rng.uniform(0.5, 2.0) for n in ("a", "z0", "z1", "z2", "z3")}
            # d x_mu / d z_k entries contracted against the transport must give
            # the identity on coordinate functions
            for name, mapped in STANDARD_MAP.items():
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
