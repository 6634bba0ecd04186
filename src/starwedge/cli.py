"""Command-line front end: commutator tables, spectra and the invariant suite.

Exit codes: 0 success; 1 verification failure; 2 configuration problem
(including a config file that is not UTF-8, a grid frequency whose spectrum
overflows, and an output file that cannot be written);
3 chart or deformation-parameter inconsistency; 4 quadrature non-convergence
(partial results are still written, flagged per row).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import NoReturn

from .config import FORMATS, ConfigError, RunConfig, atomic_write_text, dump_json, load_config
from .diffop import CHARTS, ChartMismatchError
from .spectrum import LINEAR_REGIME_BOUND, compute_spectrum
from .starprod import build_table, table_to_json_dict, table_to_text
from .twists import TwistSpecError, build_linear_twist
from .verification import report_dict, run_all_checks

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_SPEC = 3
EXIT_NONCONVERGED = 4


def _fail(code: int, message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
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


def _write(path: Path, text: str) -> None:
    try:
        atomic_write_text(path, text)
    except OSError as err:
        _fail(EXIT_CONFIG, f"cannot write {path}: {err.strerror or err}")


def _resolve(cfg: RunConfig, out: str | None, seed: int | None, fmt: str | None):
    out_dir = Path(out or cfg.out_dir or ".")
    seed_val = cfg.seed if seed is None else seed
    fmt_val = fmt or cfg.out_format
    return out_dir, seed_val, fmt_val


def commutator(config_path, out, seed, fmt) -> None:
    """Build the coordinate commutator table of the configured twist."""
    cfg = _load(config_path, required=True)
    if cfg.twist is None:
        _fail(EXIT_CONFIG, "config has no [twist] section")
    out_dir, _, fmt_val = _resolve(cfg, out, seed, fmt)
    try:
        twist = build_linear_twist(cfg.twist, CHARTS[cfg.chart])
        table = build_table(twist)
    except (TwistSpecError, ChartMismatchError) as err:
        _fail(EXIT_SPEC, str(err))
    text = table_to_text(table)
    js = dump_json(table_to_json_dict(table))
    _write(out_dir / "table.json", js)
    _write(out_dir / "table.txt", text)
    sys.stdout.write(js if fmt_val == "json" else text)


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
            panel_factor=sc.panel_factor,
            rtol=sc.rtol,
        )
    except OverflowError as err:
        _fail(EXIT_CONFIG, f"grid frequency {err}")
    if result.bound_breaches:
        listed = ", ".join(repr(o) for o in result.bound_breaches)
        print(
            f"warning: first-order deformation bound |deviation| <= {LINEAR_REGIME_BOUND} "
            f"exceeded at omega = {listed}",
            file=sys.stderr,
        )
    csv_text = result.to_csv()
    json_text = dump_json(result.to_json_dict(seed=seed_val, tolerances=cfg.tolerances))
    _write(out_dir / "spectrum.csv", csv_text)
    _write(out_dir / "spectrum.json", json_text)
    sys.stdout.write(json_text if fmt_val == "json" else csv_text)
    unconverged = [r.omega for r in result.rows if not r.converged]
    if unconverged:
        listed = ", ".join(repr(o) for o in unconverged)
        print(f"warning: quadrature did not converge at omega = {listed}", file=sys.stderr)
        sys.exit(EXIT_NONCONVERGED)


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
    _write(out_dir / "report.json", json_text)
    if fmt_val == "json":
        sys.stdout.write(json_text)
    else:
        for r in results:
            mark = "PASS" if r.passed else "FAIL"
            extra = ""
            if r.measured is not None and r.tolerance is not None:
                extra = f"  ({r.measured:.3e} <= {r.tolerance:.1e})"
            print(f"{mark}  {r.name}{extra}")
        print("all passed" if report["all_passed"] else "FAILURES present")
    if not report["all_passed"]:
        failing = [r.name for r in results if not r.passed]
        print(f"failing checks: {', '.join(failing)}", file=sys.stderr)
        sys.exit(EXIT_VERIFY_FAILED)


def _build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False: a prefix such as --conf is a usage error, not --config
    parser = argparse.ArgumentParser(
        prog="starwedge",
        description="Twist-deformed coordinate algebras on the accelerated wedge and their spectra.",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for command in (commutator, spectrum, verify):
        sub = commands.add_parser(
            command.__name__, help=command.__doc__, description=command.__doc__, allow_abbrev=False
        )
        sub.add_argument("--config", dest="config_path", metavar="PATH", help="Run configuration file.")
        sub.add_argument("--out", metavar="PATH", help="Output directory.")
        sub.add_argument("--seed", type=int, metavar="INTEGER", help="Seed override.")
        sub.add_argument("--format", dest="fmt", choices=sorted(FORMATS), help="Stdout format.")
        sub.set_defaults(run=command)
    return parser


_PARSER = _build_parser()


def main(args: list[str] | None = None, prog_name: str | None = None) -> NoReturn:
    """Run the subcommand named in ``args`` (default ``sys.argv[1:]``) and exit with its code.

    Always raises SystemExit: 2 on a usage error, the subcommand's code otherwise.
    ``prog_name`` is ignored; it is accepted because ``perfbench/run.py`` passes it
    by keyword.
    """
    ns = _PARSER.parse_args(args)
    ns.run(ns.config_path, ns.out, ns.seed, ns.fmt)
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()
