"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a single PASS line (run with -s to see them); tolerances and
runtime budgets are pinned here, not configurable.
"""

import io
import json
import math
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import numpy as np
import pytest

from starwedge.cli import main as cli_main
from starwedge.diffop import MINKOWSKI, RINDLER
from starwedge.expr import (
    I,
    ONE,
    ZERO,
    equality_probe,
    eval_numeric,
    mul,
    sym,
)
from starwedge.gammafn import complex_gamma
from starwedge.grammar import parse
from starwedge.rindler import STANDARD_MAP, RindlerMap, inverse_map_numeric
from starwedge.spectrum import (
    ModeParams,
    deformed_f_theta,
    deformed_power,
    f_closed,
    f_quadrature,
    hawking_temperature,
    planck_power,
)
from starwedge.starprod import build_table, expected_flat_table
from starwedge.twists import CanonicalTwist, LieTwist, QuadraticTwist, build_linear_twist

a, z1 = sym("a"), sym("z1")


def _report(num: int, name: str, started: float) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({time.perf_counter() - started:.2f} s)")


def _random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def test_criterion_01_flat_constant_commutators():
    """20 random antisymmetric parameter matrices give exactly i*theta, < 1 s."""
    started = time.perf_counter()
    rng = random.Random(20251)
    for _ in range(20):
        comps = {
            (mu, nu): _random_fraction(rng) for mu in range(4) for nu in range(mu + 1, 4)
        }
        spec = CanonicalTwist(comps)
        table = build_table(build_linear_twist(spec, MINKOWSKI))
        for (mu, nu), entry in table.entries.items():
            assert entry == mul(I, spec.theta[mu][nu])
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"runtime budget exceeded: {elapsed:.2f} s"
    _report(1, "flat constant commutators equal i*theta symbolically", started)


def test_criterion_02_flat_linear_commutators():
    """Linear-deformation tables match the structure-coefficient closed form, < 5 s."""
    started = time.perf_counter()
    rng = random.Random(20252)
    cases = []
    for alpha, beta in ((0, 1), (0, 2), (1, 3), (2, 3)):
        zeta = [Fraction(0)] * 4
        for lam in range(4):
            if lam not in (alpha, beta):
                zeta[lam] = _random_fraction(rng)
        cases.append((Fraction(rng.randint(1, 9), rng.randint(1, 9)), tuple(zeta), alpha, beta))
    for inv_kappa, zeta, alpha, beta in cases:
        tw = build_linear_twist(LieTwist(inv_kappa, zeta, alpha, beta), MINKOWSKI)
        table = build_table(tw)
        expected = expected_flat_table(tw.spec)
        for key, want in expected.items():
            assert table.entries[key] == want, f"entry {key} mismatch"
            assert equality_probe(table.entries[key], want, trials=50, tol=1e-12)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"runtime budget exceeded: {elapsed:.2f} s"
    _report(2, "flat linear commutators match structure coefficients", started)


def test_criterion_03_flat_quadratic_commutators():
    """Linearized quadratic constraint holds symbolically for three index choices, < 5 s."""
    started = time.perf_counter()
    for indices in ((0, 1, 2, 3), (0, 2, 1, 3), (1, 3, 0, 2)):
        tw = build_linear_twist(QuadraticTwist(Fraction(2, 5), indices), MINKOWSKI)
        table = build_table(tw)
        expected = expected_flat_table(tw.spec)
        for key, want in expected.items():
            assert table.entries[key] == want, f"{indices} entry {key} mismatch"
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"runtime budget exceeded: {elapsed:.2f} s"
    _report(3, "linearized quadratic constraint holds symbolically", started)


_HAND_LEG_ACTIONS = {
    (0, 0): "i*cosh(a*z0)/(a*z1)",
    (0, 1): "-i*sinh(a*z0)",
    (1, 0): "-i*sinh(a*z0)/(a*z1)",
    (1, 1): "i*cosh(a*z0)",
    (2, 2): "i",
    (3, 3): "i",
}


def test_criterion_04_accelerated_chart_structure():
    """Accelerated-chart table equals the hand-applied leg formula; limits vanish."""
    started = time.perf_counter()
    spec = CanonicalTwist(
        {(0, 1): Fraction(3, 7), (0, 2): Fraction(-2, 5), (1, 3): Fraction(1, 2),
         (2, 3): Fraction(5, 6)}
    )
    engine = build_table(build_linear_twist(spec, RINDLER))
    legs = {(r, m): parse(_HAND_LEG_ACTIONS.get((r, m), "0")) for r in range(4) for m in range(4)}
    c = mul(Fraction(1, 2), I)  # the constant forced by the flat normalization
    for mu in range(4):
        for nu in range(mu + 1, 4):
            acc = ZERO
            for rho in range(4):
                for tau in range(4):
                    th = spec.theta[rho][tau]
                    if th == 0:
                        continue
                    acc = acc + mul(
                        th,
                        legs[(rho, mu)] * legs[(tau, nu)] - legs[(tau, mu)] * legs[(rho, nu)],
                    )
            hand = -c * acc
            assert engine.entries[(mu, nu)] == hand, f"entry ({mu},{nu}) mismatch"
    assert engine.entries[(2, 3)] == mul(I, Fraction(5, 6))

    for chart in (MINKOWSKI, RINDLER):
        for spec in (
            CanonicalTwist({}),
            LieTwist(0, (0, 0, 1, 0), 0, 1),
            QuadraticTwist(0, (0, 1, 2, 3)),
        ):
            table = build_table(build_linear_twist(spec, chart))
            assert all(e == ZERO for e in table.entries.values())
    _report(4, "accelerated-chart table and classical limits", started)


def test_criterion_05_gamma_modulus_identity():
    """| |Gamma(iy)|^2 - pi/(y sinh(pi y)) | <= 1e-12 relative on the 20-point grid."""
    started = time.perf_counter()
    for y in np.geomspace(0.1, 5.0, 20):
        lhs = abs(complex_gamma(1j * float(y))) ** 2
        rhs = math.pi / (float(y) * math.sinh(math.pi * float(y)))
        assert abs(lhs - rhs) <= 1e-12 * rhs
    _report(5, "gamma modulus identity at 1e-12", started)


def test_criterion_06_planck_spectrum():
    """omega |f(-omega)|^2 equals the Planck form to 1e-10, independent of omega_hat z."""
    started = time.perf_counter()
    for y in np.geomspace(0.1, 5.0, 20):
        values = []
        for wz in (0.5, 1.0, 3.0):
            m = ModeParams(omega_hat=wz, z=1.0, a=1.0, omega=float(y))
            p = deformed_power(m, 0.0)
            assert abs(p.power - p.planck) <= 1e-10 * p.planck
            values.append(p.power)
        assert max(values) - min(values) <= 1e-10 * max(values)
    _report(6, "Planck spectrum equivalence at 1e-10", started)


def test_criterion_07_quadrature_oracle():
    """Damped quadrature matches the closed amplitude to 1e-6 relative, < 30 s."""
    started = time.perf_counter()
    for s in (0.5, 1.0, 2.0):
        m = ModeParams(omega_hat=1.0, z=1.0, a=1.0, omega=s)
        q = f_quadrature(m)
        c = f_closed(m)
        assert q.converged
        assert abs(q.value - c) <= 1e-6 * abs(c)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"runtime budget exceeded: {elapsed:.2f} s"
    _report(7, "quadrature oracle agreement at 1e-6", started)


def test_criterion_08_deformed_spectrum():
    """Relative deviation equals -2 theta01 omega/(pi T z^2): closed 1e-6, f.d. 1e-4."""
    started = time.perf_counter()
    acc = 2.0 * math.pi
    t = hawking_temperature(acc)
    for theta01 in (1e-4, -1e-4):
        for w in (0.5, 1.0, 2.0):
            m = ModeParams(omega_hat=1.0, z=1.0, a=acc, omega=w)
            want = -2.0 * theta01 * w / (math.pi * t * 1.0)

            dp = deformed_power(m, theta01)
            dev_closed = dp.closed_form / planck_power(acc, w) - 1.0
            assert abs(dev_closed - want) <= 1e-6 * abs(want)

            neg = m._replace(omega=-w)
            base = w * abs(f_closed(neg)) ** 2
            h = 1e-4

            def dev_sq(th: float) -> float:
                return w * abs(deformed_f_theta(neg, th)) ** 2 / base - 1.0

            fd = (dev_sq(h) - dev_sq(-h)) / (2.0 * h) * theta01
            assert abs(fd - want) <= 1e-4 * abs(want)
    _report(8, "deformed spectrum deviation, closed and finite-difference", started)


def test_criterion_09_geometry():
    """Round-trip map identity at 1e-12 and symbolic metric pullback equality."""
    started = time.perf_counter()
    rng = random.Random(20259)
    xs = tuple(STANDARD_MAP.values())
    for _ in range(100):
        acc = rng.uniform(0.5, 2.0)
        z = tuple(rng.uniform(0.5, 2.0) for _ in range(4))
        b = {"a": acc, "z0": z[0], "z1": z[1], "z2": z[2], "z3": z[3]}
        x_num = tuple(eval_numeric(x, b).real for x in xs)
        back = inverse_map_numeric(x_num, acc)
        assert max(abs(p - q) for p, q in zip(z, back)) < 1e-12
    mp = RindlerMap().metric_pullback()
    assert mp.computed == (-(a ** 2) * z1 ** 2, ONE, ONE, ONE)
    _report(9, "geometry round trip and metric pullback", started)


def test_criterion_10_deterministic_verification(tmp_path):
    """Two verify runs with one config and seed produce byte-identical reports."""
    started = time.perf_counter()
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nseed = 11\n", encoding="utf-8")
    blobs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        # captured here rather than by capsys, which would also swallow the PASS line under -s
        stdout, stderr = io.StringIO(), io.StringIO()
        with pytest.raises(SystemExit) as exit, redirect_stdout(stdout), redirect_stderr(stderr):
            cli_main(["verify", "--config", str(cfg), "--out", str(out)])
        assert exit.value.code == 0, stdout.getvalue() + stderr.getvalue()
        blobs.append((out / "report.json").read_bytes())
    assert blobs[0] == blobs[1]
    assert json.loads(blobs[0])["all_passed"] is True
    _report(10, "byte-identical verification reports", started)
