"""Command-line front end: commutator tables, spectra and the invariant suite.

Exit codes: 0 success; 1 verification failure; 2 configuration problem
(including a grid frequency whose spectrum overflows);
3 chart or deformation-parameter inconsistency; 4 quadrature non-convergence
(partial results are still written, flagged per row).
"""

from __future__ import annotations

import sys
from pathlib import Path

import click

from .config import ConfigError, RunConfig, atomic_write_text, dump_json, load_config
from .diffop import ChartMismatchError, MINKOWSKI, RINDLER
from .spectrum import compute_spectrum
from .starprod import build_table, table_to_json, table_to_text
from .twists import TwistSpecError, build_linear_twist
from .verification import report_dict, run_all_checks

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_SPEC = 3
EXIT_NONCONVERGED = 4

_CHART_BY_NAME = {"minkowski": MINKOWSKI, "rindler": RINDLER}


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load(config_path: str | None, required: bool) -> RunConfig:
    if config_path is None:
        if required:
            _fail(EXIT_CONFIG, "--config is required for this command")
        return RunConfig()
    try:
        return load_config(config_path)
    except TwistSpecError as err:
        _fail(EXIT_SPEC, f"twist parameters: {err}")
    except ConfigError as err:
        _fail(EXIT_CONFIG, str(err))
    raise AssertionError("unreachable")


def _resolve(cfg: RunConfig, out: str | None, seed: int | None, fmt: str | None):
    out_dir = Path(out or cfg.out_dir or ".")
    seed_val = cfg.seed if seed is None else seed
    fmt_val = fmt or cfg.out_format
    return out_dir, seed_val, fmt_val


_common_options = [
    click.option("--config", "config_path", type=click.Path(), default=None, help="Run configuration file."),
    click.option("--out", type=click.Path(), default=None, help="Output directory."),
    click.option("--seed", type=int, default=None, help="Seed override."),
    click.option("--format", "fmt", type=click.Choice(["csv", "json", "text"]), default=None, help="Stdout format."),
]


def _with_common(fn):
    for opt in reversed(_common_options):
        fn = opt(fn)
    return fn


@click.group()
def main() -> None:
    """Twist-deformed coordinate algebras on the accelerated wedge and their spectra."""


@main.command()
@_with_common
def commutator(config_path, out, seed, fmt) -> None:
    """Build the coordinate commutator table of the configured twist."""
    cfg = _load(config_path, required=True)
    if cfg.twist is None:
        _fail(EXIT_CONFIG, "config has no [twist] section")
    out_dir, _, fmt_val = _resolve(cfg, out, seed, fmt)
    try:
        twist = build_linear_twist(cfg.twist, _CHART_BY_NAME[cfg.chart])
        table = build_table(twist)
    except (TwistSpecError, ChartMismatchError) as err:
        _fail(EXIT_SPEC, str(err))
    text = table_to_text(table)
    js = table_to_json(table)
    atomic_write_text(out_dir / "table.json", js)
    atomic_write_text(out_dir / "table.txt", text)
    click.echo(js if fmt_val == "json" else text, nl=False)


@main.command()
@_with_common
def spectrum(config_path, out, seed, fmt) -> None:
    """Evaluate the detected thermal spectrum on the configured grid."""
    cfg = _load(config_path, required=True)
    if cfg.spectrum is None:
        _fail(EXIT_CONFIG, "config has no [spectrum] section")
    out_dir, seed_val, fmt_val = _resolve(cfg, out, seed, fmt)
    sc = cfg.spectrum
    try:
        result = compute_spectrum(
            list(sc.omegas),
            a=sc.a,
            omega_hat=sc.omega_hat,
            z=sc.z,
            theta01=sc.theta01,
            method=sc.method,
            eps0=sc.eps0,
            levels=sc.levels,
            panel_factor=sc.panel_factor,
            rtol=sc.rtol,
        )
    except OverflowError as err:
        _fail(EXIT_CONFIG, f"grid frequency {err}")
    csv_text = result.to_csv()
    json_text = result.to_json(seed=seed_val, tolerances=cfg.tolerances)
    atomic_write_text(out_dir / "spectrum.csv", csv_text)
    atomic_write_text(out_dir / "spectrum.json", json_text)
    click.echo(json_text if fmt_val == "json" else csv_text, nl=False)
    unconverged = [r.omega for r in result.rows if not r.converged]
    if unconverged:
        listed = ", ".join(repr(o) for o in unconverged)
        click.echo(f"warning: quadrature did not converge at omega = {listed}", err=True)
        sys.exit(EXIT_NONCONVERGED)


@main.command()
@_with_common
def verify(config_path, out, seed, fmt) -> None:
    """Run every named invariant check and write a machine-readable report."""
    cfg = _load(config_path, required=False)
    out_dir, seed_val, fmt_val = _resolve(cfg, out, seed, fmt)
    try:
        results = run_all_checks(seed=seed_val, tolerances=cfg.tolerances)
    except ValueError as err:
        _fail(EXIT_CONFIG, str(err))
    report = report_dict(seed_val, results, cfg.tolerances)
    json_text = dump_json(report)
    atomic_write_text(out_dir / "report.json", json_text)
    if fmt_val == "json":
        click.echo(json_text, nl=False)
    else:
        for r in results:
            mark = "PASS" if r.passed else "FAIL"
            extra = ""
            if r.measured is not None and r.tolerance is not None:
                extra = f"  ({r.measured:.3e} <= {r.tolerance:.1e})"
            click.echo(f"{mark}  {r.name}{extra}")
        click.echo("all passed" if report["all_passed"] else "FAILURES present")
    if not report["all_passed"]:
        failing = [r.name for r in results if not r.passed]
        click.echo(f"failing checks: {', '.join(failing)}", err=True)
        sys.exit(EXIT_VERIFY_FAILED)


if __name__ == "__main__":
    main()
