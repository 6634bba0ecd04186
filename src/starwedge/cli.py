"""Command-line front end: commutator tables, spectra and the invariant suite.

Exit codes, as ``_EXIT_CODES`` and the subcommands give them (``main`` prints
a mapped error as one ``error:`` line):

- 0 success; 1 a verification check failed;
- 2 a usage error, a ``ConfigError`` or a ``GridFrequencyError``;
- 3 a ``TwistSpecError``;
- 4 quadrature non-convergence (the rows are written, flagged per row);
- any other exception is a traceback.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path
from typing import NoReturn

from .config import FORMATS, ConfigError, RunConfig, atomic_write_text, check_writable, dump_json, load_config
from .diffop import CHARTS
from .spectrum import LINEAR_REGIME_BOUND, GridFrequencyError, compute_spectrum
from .starprod import build_table, table_to_json_dict, table_to_text
from .twists import TwistSpecError, build_linear_twist
from .verification import report_dict, run_all_checks

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_NONCONVERGED = 4

# the errors a run can raise, each with its exit code
_EXIT_CODES = {ConfigError: 2, GridFrequencyError: 2, TwistSpecError: 3}


def _load(config_path: str | None, required: bool) -> RunConfig:
    if config_path is None:
        if required:
            raise ConfigError("--config is required for this command")
        return RunConfig()
    return load_config(config_path)


def _resolve(cfg: RunConfig, out: str | None, seed: int | None, fmt: str | None, first_artifact: str):
    """The output directory, checked before any computation, the seed and the stdout format."""
    out_dir = Path(out or cfg.out_dir or ".")
    check_writable(out_dir / first_artifact)
    seed_val = cfg.seed if seed is None else seed
    fmt_val = fmt or cfg.out_format
    return out_dir, seed_val, fmt_val


def commutator(config_path, out, seed, fmt) -> int:
    """Build the coordinate commutator table of the configured twist."""
    cfg = _load(config_path, required=True)
    if cfg.twist is None:
        raise ConfigError("config has no [twist] section")
    out_dir, _, fmt_val = _resolve(cfg, out, seed, fmt, "table.json")
    table = build_table(build_linear_twist(cfg.twist, CHARTS[cfg.chart]))
    text = table_to_text(table)
    js = dump_json(table_to_json_dict(table))
    atomic_write_text(out_dir / "table.json", js)
    atomic_write_text(out_dir / "table.txt", text)
    sys.stdout.write(js if fmt_val == "json" else text)
    return EXIT_OK


def spectrum(config_path, out, seed, fmt) -> int:
    """Evaluate the detected thermal spectrum on the configured grid."""
    cfg = _load(config_path, required=True)
    if cfg.spectrum is None:
        raise ConfigError("config has no [spectrum] section")
    out_dir, seed_val, fmt_val = _resolve(cfg, out, seed, fmt, "spectrum.csv")
    # the fields of SpectrumConfig are the parameters of compute_spectrum
    result = compute_spectrum(**asdict(cfg.spectrum))
    if result.bound_breaches:
        listed = ", ".join(repr(o) for o in result.bound_breaches)
        print(
            f"warning: first-order deformation bound |deviation| <= {LINEAR_REGIME_BOUND} "
            f"exceeded at omega = {listed}",
            file=sys.stderr,
        )
    csv_text = result.to_csv()
    json_text = dump_json(result.to_json_dict(seed=seed_val, tolerances=cfg.tolerances))
    atomic_write_text(out_dir / "spectrum.csv", csv_text)
    atomic_write_text(out_dir / "spectrum.json", json_text)
    sys.stdout.write(json_text if fmt_val == "json" else csv_text)
    unconverged = [r.omega for r in result.rows if not r.converged]
    if unconverged:
        listed = ", ".join(repr(o) for o in unconverged)
        print(f"warning: quadrature did not converge at omega = {listed}", file=sys.stderr)
        return EXIT_NONCONVERGED
    return EXIT_OK


def verify(config_path, out, seed, fmt) -> int:
    """Run every named invariant check and write a machine-readable report."""
    cfg = _load(config_path, required=False)
    out_dir, seed_val, fmt_val = _resolve(cfg, out, seed, fmt, "report.json")
    results = run_all_checks(seed=seed_val, tolerances=cfg.tolerances)
    report = report_dict(seed_val, results, cfg.tolerances)
    json_text = dump_json(report)
    atomic_write_text(out_dir / "report.json", json_text)
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
        return EXIT_VERIFY_FAILED
    return EXIT_OK


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

    Always raises SystemExit: 2 on a usage error, the code of ``_EXIT_CODES`` on
    a mapped error, the subcommand's code otherwise.  ``prog_name`` is ignored;
    it is accepted because ``perfbench/run.py`` passes it by keyword.
    """
    ns = _PARSER.parse_args(args)
    try:
        code = ns.run(ns.config_path, ns.out, ns.seed, ns.fmt)
    except tuple(_EXIT_CODES) as err:
        print(f"error: {err}", file=sys.stderr)
        code = next(c for cls, c in _EXIT_CODES.items() if isinstance(err, cls))
    sys.exit(code)


if __name__ == "__main__":
    main()
