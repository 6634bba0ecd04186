"""Correctness checks on a pass's outputs, run outside the timed region.

Each workload has an oracle that does not share the code path it checks:

- spectrum: every row of spectrum.json, from both routes, against the closed
  form evaluated by mpmath at 30 digits (its own gamma function): the
  amplitude f(-omega), the power omega |f|^2 and the deformed power
  omega |f|^2 (1 - 4 theta01 omega / (a z^2)), the first-order deformation
  that both routes reduce to.
- algebra: the flat-chart tables equal ``expected_flat_table`` exactly; the
  canonical accelerated-chart table equals
  ``verification.hand_canonical_rindler_table``; every accelerated-chart
  table equals the flat table transported as a bivector through the
  Jacobian of the inverse wedge map, at seeded points in mpmath.  Each ladder
  result satisfies [f^k, g^k] = k^2 f^(k-1) g^(k-1) [f, g], checked with
  ``equality_probe`` at seeded points, and equals the bivector formula
  sum_{m<n} (d_m f d_n g - d_n f d_m g) [z_m, z_n] built from hand-written
  derivatives of f and g, in mpmath.
- verify: report.json names every check in order, its verdicts agree with its
  own measured residuals and tolerances, and the exit code agrees with it.
  Each measured residual compares two independent routes (closed form and
  quadrature, canonical form and direct evaluation, ...); the fewest digits
  among them is the workload's ``oracle_digits``.

A unit (row, table, ladder result or check) is *good* when its oracle holds.
A *problem* is an output that claims success but is wrong, or an exit code
or report that contradicts the artifacts: any problem makes the run
incorrect.  Rows flagged unconverged and checks reported as failed are
honest results; they lower ``pass_share`` but are not problems.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

from layers import REPORT_CHECKS
from workloads import LADDER_DEGREES, README_TWISTS, CliOp, LadderOp, ladder_pair

DIGITS_CAP = 16.0
SPECTRUM_RTOL = 1e-7
ALGEBRA_RTOL = 1e-12
SAMPLE_POINTS = 3
MP_DIGITS = 30


@dataclass
class Verdict:
    units: int = 0
    good: int = 0
    digits: float = DIGITS_CAP
    problems: list[str] = field(default_factory=list)

    def count(self, good: bool, err) -> None:
        self.units += 1
        self.good += bool(good)
        self.digits = min(self.digits, digits_of(err))


def digits_of(err) -> float:
    """Digits of agreement for a relative error, capped at DIGITS_CAP."""
    err = float(err)
    if err == 0.0:
        return DIGITS_CAP
    if not math.isfinite(err):
        return 0.0
    return max(0.0, min(DIGITS_CAP, -math.log10(err)))


def _mp():
    from mpmath import mp

    mp.dps = MP_DIGITS
    return mp


# --- spectrum ---------------------------------------------------------------------


def check_spectrum(ops, outcomes, seed: int) -> Verdict:
    mp = _mp()
    v = Verdict()
    for op, oc in zip(ops, outcomes):
        data = json.loads((op.out_dir / "spectrum.json").read_text(encoding="utf-8"))
        p = data["parameters"]
        a, z, theta01 = mp.mpf(p["a"]), mp.mpf(p["z"]), mp.mpf(p["theta01"])
        log_wz = mp.log(mp.mpf(p["omega_hat"]) * z)
        rows = data["rows"]
        for row in rows:
            omega = mp.mpf(row["omega"])
            s = omega / a
            # f(-omega) = (1/a) (wz)^(-i s) Gamma(i s) e^(-pi s / 2)
            ref = mp.exp(-1j * s * log_wz) * mp.gamma(1j * s) * mp.exp(-mp.pi * s / 2) / a
            got = mp.mpc(row["re_f"], row["im_f"])
            power_ref = omega * abs(ref) ** 2
            deformed_ref = power_ref * (1 - 4 * theta01 * omega / (a * z**2))
            err = max(
                abs(got - ref) / abs(ref),
                abs(mp.mpf(row["power"]) - power_ref) / power_ref,
                abs(mp.mpf(row["power_deformed"]) - deformed_ref) / abs(deformed_ref),
            )
            good = row["converged"] and err <= SPECTRUM_RTOL
            v.count(good, err)
            if row["converged"] and not good:
                v.problems.append(
                    f"{op.name}: {row['method']} row at omega={row['omega']!r} is flagged "
                    f"converged but is off by {float(err):.3e}"
                )
        want_code = 0 if all(r["converged"] for r in rows) else 4
        if oc.code != want_code:
            v.problems.append(f"{op.name}: exit {oc.code}, but the rows imply exit {want_code}")
    return v


# --- algebra ----------------------------------------------------------------------


def _mp_eval(e, bindings, mp):
    """Evaluate an engine expression tree in mpmath, independently of eval_numeric."""
    from starwedge.expr import Add, Const, Fn, Mul, Pow, Sym

    memo: dict[int, object] = {}
    fns = {"sinh": mp.sinh, "cosh": mp.cosh, "exp": mp.exp, "tanh": mp.tanh}

    def walk(node):
        key = id(node)
        if key in memo:
            return memo[key]
        if isinstance(node, Const):
            re, im = node.value.re, node.value.im
            val = mp.mpc(mp.mpf(re.numerator) / re.denominator, mp.mpf(im.numerator) / im.denominator)
        elif isinstance(node, Sym):
            val = bindings[node.name]
        elif isinstance(node, Add):
            val = mp.fsum(walk(t) for t in node.terms)
        elif isinstance(node, Mul):
            val = mp.fprod(walk(f) for f in node.factors)
        elif isinstance(node, Pow):
            val = walk(node.base) ** node.exponent
        elif isinstance(node, Fn):
            val = fns[node.fname](walk(node.arg))
        else:
            raise TypeError(type(node))
        memo[key] = val
        return val

    return walk(e)


def _rel(got, want):
    """Error relative to 1 + |want|, the measure equality_probe uses."""
    return abs(got - want) / (1 + abs(want))


def _points(rng: random.Random, mp) -> list[dict]:
    names = ("z0", "z1", "z2", "z3", "a")
    return [{n: mp.mpf(rng.uniform(0.5, 2.0)) for n in names} for _ in range(SAMPLE_POINTS)]


def _jacobian(b, mp):
    """d z_mu / d x_alpha of the inverse wedge map, at the point b."""
    ch, sh = mp.cosh(b["a"] * b["z0"]), mp.sinh(b["a"] * b["z0"])
    az1 = b["a"] * b["z1"]
    return [
        [ch / az1, -sh / az1, 0, 0],
        [-sh, ch, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ]


def _antisym(entries) -> dict:
    full = dict(entries)
    full.update({(nu, mu): -e for (mu, nu), e in entries.items()})
    return full


def _read_table(op: CliOp, coords) -> dict:
    from starwedge.grammar import parse

    data = json.loads((op.out_dir / "table.json").read_text(encoding="utf-8"))
    index = {c: i for i, c in enumerate(coords)}
    out = {}
    for key, text in data["entries"].items():
        a, b = key.split(",")
        out[(index[a], index[b])] = parse(text)
    return out


def _check_table(op: CliOp, v: Verdict, rng: random.Random, mp):
    from starwedge import diffop, starprod, twists, verification

    chart = diffop.MINKOWSKI if op.meta["chart"] == "minkowski" else diffop.RINDLER
    spec = twists.spec_from_config(dict(README_TWISTS[op.meta["kind"]]))
    table = _read_table(op, chart.coords)
    flat = starprod.expected_flat_table(spec)
    pairs = sorted(flat)
    exact = True
    if chart is diffop.MINKOWSKI:
        exact = sorted(table) == pairs and all(table[k] == flat[k] for k in pairs)
    elif op.meta["kind"] == "canonical":
        hand = verification.hand_canonical_rindler_table(spec)
        exact = sorted(table) == pairs and all(table[k] == hand[k] for k in pairs)
    err = 0 if exact else 1
    flat_full = _antisym(flat)
    for b in _points(rng, mp) if chart is diffop.RINDLER else ():
        xb = {
            "x0": b["z1"] * mp.sinh(b["a"] * b["z0"]),
            "x1": b["z1"] * mp.cosh(b["a"] * b["z0"]),
            "x2": b["z2"],
            "x3": b["z3"],
        }
        jac = _jacobian(b, mp)
        flat_vals = {k: _mp_eval(e, xb, mp) for k, e in flat_full.items()}
        for mu, nu in pairs:
            want = mp.fsum(
                jac[mu][al] * jac[nu][be] * val
                for (al, be), val in flat_vals.items()
                if jac[mu][al] and jac[nu][be]
            )
            err = max(err, _rel(_mp_eval(table[(mu, nu)], b, mp), want))
    good = exact and err <= ALGEBRA_RTOL
    v.count(good, err)
    if not good:
        v.problems.append(f"{op.name}: table disagrees with its oracle (exact={exact}, err={float(err):.3e})")
    return table


def _f_g_grad(b, mp):
    """f, g and their z-gradients from the hand-written formulas of the ladder pair."""
    a, z0, z1, z2, z3 = b["a"], b["z0"], b["z1"], b["z2"], b["z3"]
    sh, ch = mp.sinh(a * z0), mp.cosh(a * z0)
    f = z0 + z1 * sh + z2
    g = z3 + z1 * ch + z0 * z2
    df = [1 + a * z1 * ch, sh, 1, 0]
    dg = [a * z1 * sh + z2, ch, z0, 1]
    return f, g, df, dg


def _check_ladder(op: LadderOp, results, rindler_table, v: Verdict, rng: random.Random, mp):
    from starwedge import expr

    f, g = ladder_pair()
    pairs = sorted(rindler_table)
    c1 = results[0]
    for k, r in zip(LADDER_DEGREES, results):
        rhs = expr.mul(k * k, f ** (k - 1), g ** (k - 1), c1)
        probe = expr.equality_probe(r, rhs, trials=8, seed=rng.randrange(2**30))
        err = 0
        for b in _points(rng, mp):
            fv, gv, df, dg = _f_g_grad(b, mp)
            bracket = mp.fsum(
                (df[m] * dg[n] - df[n] * dg[m]) * _mp_eval(rindler_table[(m, n)], b, mp)
                for m, n in pairs
            )
            want = k * k * fv ** (k - 1) * gv ** (k - 1) * bracket
            err = max(err, _rel(_mp_eval(r, b, mp), want))
        good = probe and err <= ALGEBRA_RTOL
        v.count(good, err)
        if not good:
            v.problems.append(
                f"{op.name}: k={k} result fails its oracle (probe={probe}, err={float(err):.3e})"
            )


def check_algebra(ops, outcomes, seed: int) -> Verdict:
    mp = _mp()
    rng = random.Random(seed)
    v = Verdict()
    rindler_tables = {}
    for op, oc in zip(ops, outcomes):
        if isinstance(op, CliOp):
            table = _check_table(op, v, rng, mp)
            if op.meta["chart"] == "rindler":
                rindler_tables[op.meta["kind"]] = table
            if oc.code != 0:
                v.problems.append(f"{op.name}: exit {oc.code}")
    for op, oc in zip(ops, outcomes):
        if isinstance(op, LadderOp):
            kind = op.twist_items["kind"]
            _check_ladder(op, oc.results, rindler_tables[kind], v, rng, mp)
    return v


# --- verify -----------------------------------------------------------------------


def check_verify(ops, outcomes, seed: int) -> Verdict:
    v = Verdict()
    for op, oc in zip(ops, outcomes):
        report = json.loads((op.out_dir / "report.json").read_text(encoding="utf-8"))
        checks = report["checks"]
        names = tuple(c["name"] for c in checks)
        if names != REPORT_CHECKS:
            v.problems.append(f"{op.name}: report names {names} differ from the documented checks")
        if report["seed"] != seed:
            v.problems.append(f"{op.name}: report seed {report['seed']} is not {seed}")
        for c in checks:
            measured, tol = c["measured"], c["tolerance"]
            err = 0.0 if measured is None else measured
            v.count(c["passed"], err)
            if c["passed"] and measured is not None and tol is not None and not measured <= tol:
                v.problems.append(f"{op.name}: {c['name']} passed with {measured!r} > {tol!r}")
        all_passed = all(c["passed"] for c in checks)
        if report["all_passed"] != all_passed:
            v.problems.append(f"{op.name}: all_passed disagrees with the checks")
        if oc.code != (0 if all_passed else 1):
            v.problems.append(f"{op.name}: exit {oc.code} disagrees with the report")
    return v


CHECKS = {"spectrum": check_spectrum, "algebra": check_algebra, "verify": check_verify}


# --- negative test ----------------------------------------------------------------


def _edit_json(path, edit) -> str:
    data = json.loads(path.read_text(encoding="utf-8"))
    what = edit(data)
    path.write_text(json.dumps(data), encoding="utf-8")
    return what


def _scale_re_f(data) -> str:
    row = next(r for r in data["rows"] if r["converged"] and r["method"] == "quadrature")
    row["re_f"] *= 1.001
    return f"re_f of the quadrature row at omega={row['omega']!r} scaled by 1.001"


def _flip_deformation(data) -> str:
    row = max((r for r in data["rows"] if r["method"] == "closed-form"), key=lambda r: r["omega"])
    row["power_deformed"] = 2 * row["power"] - row["power_deformed"]
    return f"sign of the deformation flipped in power_deformed of the closed-form row at omega={row['omega']!r}"


def _replace_entry(data) -> str:
    key = sorted(data["entries"])[0]
    data["entries"][key] = "2*i"
    return f"entry {key} replaced by 2*i"


def _overshoot_tolerance(data) -> str:
    check = next(c for c in data["checks"] if c["passed"] and c["tolerance"] is not None)
    check["measured"] = 2.0 * check["tolerance"]
    return f"measured of {check['name']} set to twice its tolerance"


# workload -> {target: (artifact of the first op, edit)}
CORRUPTIONS = {
    "spectrum": {"re_f": ("spectrum.json", _scale_re_f), "power_deformed": ("spectrum.json", _flip_deformation)},
    "algebra": {"table_entry": ("table.json", _replace_entry)},
    "verify": {"measured": ("report.json", _overshoot_tolerance)},
}


def corrupt(workload: str, target: str, ops) -> str:
    """Damage one output of the last pass on purpose; the oracle must notice."""
    if target not in CORRUPTIONS[workload]:
        raise ValueError(f"{workload} has no corruption {target!r}; it has {sorted(CORRUPTIONS[workload])}")
    artifact, edit = CORRUPTIONS[workload][target]
    return f"{ops[0].name}: " + _edit_json(ops[0].out_dir / artifact, edit)
