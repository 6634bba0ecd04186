"""The three workloads: seeded inputs, config files and op lists.

Each workload is a closed loop with one client: the next op starts when the
previous one ends.  Ops go through the public entry points: the click group
``starwedge.cli.main`` in-process (its exit code is taken from SystemExit)
and plain library calls.

- spectrum: two `starwedge spectrum` runs.  The README config (a = 2 pi,
  geom 0.25 5 20, method both) holds the low-s rows that do not converge
  today; the far-field config (a = 1, omega_hat = 8) is where the quadrature
  cost grows with omega_hat z.  Quadrature is nearly all of the time and the
  symbolic layer is idle.
- algebra: `starwedge commutator` on all six kind x chart configs, plus the
  library ladder commutator(f**k, g**k) for k = 1..4 under the three twists
  on the accelerated chart.  The symbolic layers carry the whole cost and
  quadrature is never called.
- verify: one `starwedge verify` run with the default config.  It uses both
  layers in other shapes: many small random expressions, and quadrature at a
  few fixed s with power shift 0 and 1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

README_TWISTS = {
    "canonical": {"kind": "canonical", "theta01": "3/7", "theta23": "1/3"},
    "lie": {"kind": "lie", "inv_kappa": "1/3", "zeta": "0 0 2/3 0", "alpha": "0", "beta": "1"},
    "quadratic": {"kind": "quadratic", "xi": "1/6", "indices": "0 1 2 3"},
}
CHARTS = ("minkowski", "rindler")
LADDER_DEGREES = (1, 2, 3, 4)

# name: (a, omega_hat, z, theta01, grid start, grid stop, grid count)
SPECTRUM_CONFIGS = {
    "readme": ("6.283185307179586", "1.0", "1.0", "1e-4", 0.25, 5.0, 20),
    "farfield": ("1", "8", "1", "1e-4", 0.5, 4.0, 6),
}
# The seed moves each grid endpoint by at most this share.
GRID_JITTER = 0.02


def ladder_pair():
    """f = z0 + z1 sinh(a z0) + z2 and g = z3 + z1 cosh(a z0) + z0 z2.

    The hyperbolic factors make every power exercise the cosh^2 = 1 + sinh^2
    reduction.
    """
    from starwedge import expr

    z0, z1, z2, z3, a = (expr.sym(n) for n in ("z0", "z1", "z2", "z3", "a"))
    f = z0 + z1 * expr.sinh(a * z0) + z2
    g = z3 + z1 * expr.cosh(a * z0) + z0 * z2
    return f, g


@dataclass
class CliOp:
    """One `starwedge` subcommand run; its artifacts land in ``out_dir``."""

    name: str
    args: list[str]
    out_dir: Path
    ok_codes: tuple[int, ...]
    artifacts: tuple[str, ...]
    meta: dict = field(default_factory=dict)

    @property
    def subcommand(self) -> str:
        return self.args[0]


@dataclass
class LadderOp:
    """commutator(f**k, g**k, twist) for every ladder degree under one twist."""

    name: str
    twist_items: dict[str, str]


@dataclass
class Workload:
    name: str
    ops: list
    config_paths: list[Path]
    kernel: str = "python"  # the reference kernel of reference.py that its passes are divided by


def _write_ini(path: Path, sections: dict[str, dict[str, str]]) -> Path:
    lines = []
    for section, items in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{k} = {v}" for k, v in items.items())
        lines.append("")
    path.write_text("\n".join(lines), encoding="utf-8")
    return path


def _spectrum(seed: int, work: Path) -> Workload:
    rng = random.Random(seed)
    ops, paths = [], []
    for name, (a, omega_hat, z, theta01, start, stop, count) in SPECTRUM_CONFIGS.items():
        start *= 1.0 + rng.uniform(-GRID_JITTER, GRID_JITTER)
        stop *= 1.0 + rng.uniform(-GRID_JITTER, GRID_JITTER)
        ini = _write_ini(
            work / f"spectrum-{name}.ini",
            {
                "spectrum": {
                    "a": a,
                    "omega_hat": omega_hat,
                    "z": z,
                    "theta01": theta01,
                    "omega_grid": f"geom {start!r} {stop!r} {count}",
                    "method": "both",
                }
            },
        )
        out = work / f"out-spectrum-{name}"
        ops.append(
            CliOp(
                f"spectrum-{name}",
                ["spectrum", "--config", str(ini), "--out", str(out), "--seed", str(seed)],
                out,
                ok_codes=(0, 4),
                artifacts=("spectrum.csv", "spectrum.json"),
            )
        )
        paths.append(ini)
    return Workload("spectrum", ops, paths, kernel="numpy")


def _algebra(seed: int, work: Path) -> Workload:
    ops, paths = [], []
    for kind, items in README_TWISTS.items():
        for chart in CHARTS:
            ini = _write_ini(work / f"twist-{kind}-{chart}.ini", {"twist": {**items, "chart": chart}})
            out = work / f"out-commutator-{kind}-{chart}"
            ops.append(
                CliOp(
                    f"commutator-{kind}-{chart}",
                    ["commutator", "--config", str(ini), "--out", str(out)],
                    out,
                    ok_codes=(0,),
                    artifacts=("table.json", "table.txt"),
                    meta={"kind": kind, "chart": chart},
                )
            )
            paths.append(ini)
    ops.extend(LadderOp(f"ladder-{kind}", items) for kind, items in README_TWISTS.items())
    return Workload("algebra", ops, paths)


def _verify(seed: int, work: Path) -> Workload:
    out = work / "out-verify"
    op = CliOp(
        "verify",
        ["verify", "--out", str(out), "--seed", str(seed)],
        out,
        ok_codes=(0, 1),
        artifacts=("report.json",),
    )
    return Workload("verify", [op], [])


BUILDERS = {"spectrum": _spectrum, "algebra": _algebra, "verify": _verify}


def build(name: str, seed: int, work: Path) -> Workload:
    return BUILDERS[name](seed, work)
