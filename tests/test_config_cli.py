import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from starwedge.cli import main
from starwedge.config import ConfigError, atomic_write_text, load_config
from starwedge.grammar import to_text
from starwedge.twists import CanonicalTwist, LieTwist

FULL_CONFIG = """\
[run]
seed = 7
format = text

[twist]
kind = canonical
chart = rindler
theta01 = 3/7
theta23 = 1/3

[spectrum]
a = 6.283185307179586
omega_hat = 1.0
z = 1.0
theta01 = 1e-4
omega_grid = 0.5 1 2
method = closed-form

[tolerances]
quadrature_agreement = 1e-6
"""


def _write(tmp_path: Path, text: str, name: str = "run.ini") -> Path:
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def _cli(capsys, *argv):
    """Run the command line in process: (exit code, stdout, stderr)."""
    with pytest.raises(SystemExit) as exit:
        main(list(argv))
    out, err = capsys.readouterr()
    return exit.value.code, out, err


# --- config parsing ---------------------------------------------------------------

def test_full_config_parses(tmp_path):
    cfg = load_config(_write(tmp_path, FULL_CONFIG))
    assert cfg.seed == 7
    assert cfg.chart == "rindler"
    assert isinstance(cfg.twist, CanonicalTwist)
    assert cfg.twist.theta[0][1] == Fraction(3, 7)
    assert cfg.spectrum.omegas == (0.5, 1.0, 2.0)
    assert cfg.spectrum.theta01 == pytest.approx(1e-4)
    assert cfg.tolerances == {"quadrature_agreement": 1e-6}


def _readme_block(lang: str) -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_readme_library_block_runs():
    # the "Library in one minute" block runs as printed, and its table
    # comment shows the entry the engine builds
    namespace: dict = {}
    exec(_readme_block("python"), namespace)
    assert to_text(namespace["table"].entries[(0, 1)]) == "3/7*i/(a*z1)"


def test_readme_config_parses_and_rejects_removed_keys(tmp_path, capsys):
    # the README's configuration block is valid as printed
    text = _readme_block("ini")
    cfg = load_config(_write(tmp_path, text))
    assert cfg.spectrum.method == "both"
    assert cfg.spectrum.panel_factor == 1
    # the oracle takes no damping: eps0 is an unknown key, named in the message
    bad = _write(tmp_path, text.replace("[spectrum]\n", "[spectrum]\neps0 = auto\n"), "bad.ini")
    out = tmp_path / "out"
    code, stdout, stderr = _cli(capsys, "spectrum", "--config", str(bad), "--out", str(out))
    assert code == 2
    assert "unknown keys in [spectrum]: ['eps0']" in stderr
    assert not out.exists()


def test_lie_config_parses(tmp_path):
    text = "[twist]\nkind = lie\nchart = minkowski\ninv_kappa = 1/3\nzeta = 0 0 2/3 0\nalpha = 0\nbeta = 1\n"
    cfg = load_config(_write(tmp_path, text))
    assert isinstance(cfg.twist, LieTwist)
    assert cfg.twist.zeta[2] == Fraction(2, 3)


def test_inline_comments_are_stripped(tmp_path):
    text = (
        "[twist]\n"
        "kind = canonical        ; canonical | lie | quadratic\n"
        "chart = rindler         # trailing note\n"
        "theta01 = 3/7\n"
    )
    cfg = load_config(_write(tmp_path, text))
    assert cfg.chart == "rindler"
    assert cfg.twist.theta[0][1] == Fraction(3, 7)


def test_grid_specs(tmp_path):
    cfg = load_config(_write(tmp_path, "[spectrum]\na=1\nomega_hat=1\nz=1\nomega_grid = geom 1/2 2 3\n"))
    assert cfg.spectrum.omegas == pytest.approx((0.5, 1.0, 2.0))
    cfg = load_config(_write(tmp_path, "[spectrum]\na=1\nomega_hat=1\nz=1\nomega_grid = lin 1 2 3\n"))
    assert cfg.spectrum.omegas == pytest.approx((1.0, 1.5, 2.0))


@pytest.mark.parametrize(
    "text",
    [
        "[bogus]\nx = 1\n",
        "[run]\nbogus = 1\n",
        "[run]\nformat = yaml\n",
        "[twist]\nkind = nonsense\n",
        "[twist]\nkind = canonical\nchart = schwarzschild\n",
        "[twist]\nkind = canonical\ntheta99 = 1\n",
        "[spectrum]\na = 1\n",
        "[spectrum]\na=1\nomega_hat=1\nz=1\nomega_grid =\n",
        "[spectrum]\na=1\nomega_hat=1\nz=1\nomega_grid = -1 2\n",
        "[spectrum]\na=0\nomega_hat=1\nz=1\nomega_grid = 1\n",
        "[spectrum]\na=1\nomega_hat=1\nz=1\nomega_grid = 1\nmethod = magic\n",
        "[tolerances]\nnot_a_check = 1e-9\n",
        "top = level\n[run]\nseed = 1\n",
        "[spectrum]\na=one\nomega_hat=1\nz=1\nomega_grid = 1\n",
    ],
)
def test_malformed_configs_rejected(tmp_path, text):
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, text))


def test_missing_file_is_config_error():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/run.ini")


def test_atomic_write(tmp_path):
    target = tmp_path / "deep" / "file.txt"
    atomic_write_text(target, "payload")
    assert target.read_text() == "payload"
    assert not list(target.parent.glob("*.tmp"))


# --- CLI ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bogus"],
        ["commutator", "--format", "xml"],
        ["verify", "--seed", "x"],
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    code, stdout, stderr = _cli(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert "usage" in stderr.lower()


def test_abbreviated_option_is_a_usage_error(tmp_path, capsys):
    # a prefix of --config is not --config: the run exits 2 and writes nothing
    cfg = _write(tmp_path, FULL_CONFIG)
    out = tmp_path / "out"
    code, _, stderr = _cli(capsys, "commutator", "--conf", str(cfg), "--out", str(out))
    assert code == 2
    assert "--conf" in stderr
    assert not out.exists()


@pytest.mark.parametrize("subcommand", [None, "commutator", "spectrum", "verify"])
def test_help_exits_0_and_names_the_options(capsys, subcommand):
    argv = ["--help"] if subcommand is None else [subcommand, "--help"]
    code, stdout, _ = _cli(capsys, *argv)
    assert code == 0
    if subcommand is None:
        assert all(name in stdout for name in ("commutator", "spectrum", "verify"))
    else:
        assert all(opt in stdout for opt in ("--config", "--out", "--seed", "--format"))


def test_commutator_command_writes_table(tmp_path, capsys):
    cfg = _write(tmp_path, FULL_CONFIG)
    out = tmp_path / "out"
    code, stdout, stderr = _cli(capsys, "commutator", "--config", str(cfg), "--out", str(out))
    assert code == 0, stderr
    assert "[z0, z1] = 3/7*i/(a*z1)" in stdout
    table = json.loads((out / "table.json").read_text())
    assert table["chart"] == "rindler"
    assert (out / "table.txt").exists()


def test_commutator_json_format_flag(tmp_path, capsys):
    cfg = _write(tmp_path, FULL_CONFIG)
    out = tmp_path / "out"
    code, stdout, stderr = _cli(
        capsys, "commutator", "--config", str(cfg), "--out", str(out), "--format", "json"
    )
    assert code == 0
    assert json.loads(stdout)["twist"]["kind"] == "canonical"


def test_spectrum_command_csv(tmp_path, capsys):
    cfg = _write(tmp_path, FULL_CONFIG)
    out = tmp_path / "out"
    code, stdout, stderr = _cli(capsys, "spectrum", "--config", str(cfg), "--out", str(out))
    assert code == 0, stderr
    lines = (out / "spectrum.csv").read_text().strip().splitlines()
    assert lines[0] == "omega,re_f,im_f,power,power_deformed,method,eps"
    assert len(lines) == 4
    # at T = 1 the power column is the Planck factor 1/(e^omega - 1)
    import math

    row1 = lines[2].split(",")
    assert float(row1[3]) == pytest.approx(1.0 / (math.e - 1.0), rel=1e-10)
    payload = json.loads((out / "spectrum.json").read_text())
    assert payload["seed"] == 7


def test_missing_config_exits_2(tmp_path, capsys):
    code, stdout, stderr = _cli(capsys, "commutator", "--out", str(tmp_path))
    assert code == 2


def test_malformed_config_exits_2_without_outputs(tmp_path, capsys):
    cfg = _write(tmp_path, "[run]\nbogus = 1\n")
    out = tmp_path / "out"
    code, stdout, stderr = _cli(capsys, "commutator", "--config", str(cfg), "--out", str(out))
    assert code == 2
    assert not out.exists()


def test_spec_violation_exits_3(tmp_path, capsys):
    text = "[twist]\nkind = lie\nchart = minkowski\ninv_kappa = 1\nzeta = 1 0 0 0\nalpha = 0\nbeta = 1\n"
    cfg = _write(tmp_path, text)
    code, stdout, stderr = _cli(capsys, "commutator", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert code == 3


def test_nonconverged_quadrature_exits_4_with_flagged_rows(tmp_path, capsys):
    text = (
        "[spectrum]\na = 1\nomega_hat = 1\nz = 1\nomega_grid = 1\n"
        "method = quadrature\nrtol = 1e-15\n"
    )
    cfg = _write(tmp_path, text)
    out = tmp_path / "out"
    code, stdout, stderr = _cli(capsys, "spectrum", "--config", str(cfg), "--out", str(out))
    assert code == 4
    assert "did not converge at omega = 1.0" in stderr
    payload = json.loads((out / "spectrum.json").read_text())
    assert payload["rows"][0]["converged"] is False


def test_spectrum_past_planck_overflow_writes_zero_power(tmp_path, capsys):
    # omega / a = 120: e^(2 pi omega / a) overflows a double, the power does not
    text = "[spectrum]\na = 1\nomega_hat = 1\nz = 1\nomega_grid = 120\nmethod = closed-form\n"
    cfg = _write(tmp_path, text)
    out = tmp_path / "out"
    code, stdout, stderr = _cli(capsys, "spectrum", "--config", str(cfg), "--out", str(out))
    assert code == 0, stderr
    row = json.loads((out / "spectrum.json").read_text())["rows"][0]
    assert row["power"] == 0.0
    assert row["power_deformed"] == 0.0


def test_spectrum_out_of_range_frequency_exits_2_naming_omega(tmp_path, capsys):
    # omega / a = 400: the gamma reflection itself overflows
    text = "[spectrum]\na = 1\nomega_hat = 1\nz = 1\nomega_grid = 1 400\nmethod = closed-form\n"
    cfg = _write(tmp_path, text)
    out = tmp_path / "out"
    code, stdout, stderr = _cli(capsys, "spectrum", "--config", str(cfg), "--out", str(out))
    assert code == 2
    assert "omega = 400.0" in stderr


@pytest.mark.parametrize("method", ["closed-form", "both"])
@pytest.mark.parametrize("omega", ["1e-309", "1e-320", "5e-324"])
def test_spectrum_subnormal_frequency_exits_2_naming_omega(tmp_path, method, omega, capsys):
    # a subnormal omega / a: Gamma(i omega / a) overflows to inf, which once
    # wrote nan rows (closed-form) or a "converged" closed-form row beside an
    # unconverged quadrature row (both)
    text = f"[spectrum]\na = 1\nomega_hat = 1\nz = 1\nomega_grid = 1 {omega}\nmethod = {method}\n"
    cfg = _write(tmp_path, text)
    out = tmp_path / "out"
    code, stdout, stderr = _cli(capsys, "spectrum", "--config", str(cfg), "--out", str(out))
    assert code == 2, stderr
    assert f"omega = {float(omega)!r}" in stderr
    assert "out of range" in stderr
    assert not out.exists()


@pytest.mark.parametrize("method", ["closed-form", "quadrature", "both"])
@pytest.mark.parametrize("omega_hat, z", [("1e-300", "1e-30"), ("1e-320", "1e-10")])
def test_spectrum_underflowing_omega_hat_z_exits_2_naming_both(tmp_path, capsys, omega_hat, z, method):
    # valid values whose product is 0.0: the closed form's log(omega_hat * z)
    # once escaped as a ValueError traceback, exit 1
    keys = {"a": "1", "omega_hat": omega_hat, "z": z, "omega_grid": "0.5 1", "method": method}
    cfg = _write(tmp_path, "[spectrum]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()))
    out = tmp_path / "out"
    code, stdout, stderr = _cli(capsys, "spectrum", "--config", str(cfg), "--out", str(out))
    assert code == 2, stderr
    assert "omega = 0.5" in stderr
    assert f"omega_hat = {float(omega_hat)!r}" in stderr and f"z = {float(z)!r}" in stderr
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("method", ["quadrature", "both"])
def test_spectrum_quadrature_overflow_at_subnormal_omega_hat_z_names_omega(tmp_path, capsys, method):
    # omega_hat * z = 1e-320: the closed form is finite, but the quadrature's
    # w^-c overflows; its error once escaped the handler that names omega
    text = f"[spectrum]\na = 1\nomega_hat = 1e-320\nz = 1\nomega_grid = 0.5 1\nmethod = {method}\n"
    cfg = _write(tmp_path, text)
    out = tmp_path / "out"
    code, stdout, stderr = _cli(capsys, "spectrum", "--config", str(cfg), "--out", str(out))
    assert code == 2, stderr
    assert stderr == (
        "error: grid frequency omega = 0.5 (omega / a = 0.5) is out of range: math range error\n"
    )
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("panel_factor", "-1"),
        ("panel_factor", "0"),
        ("omega_grid", "nan"),
        ("omega_grid", "1 nan"),
        ("omega_grid", "lin 0.5 nan 3"),
        ("rtol", "0"),
        ("rtol", "nan"),
        ("theta01", "nan"),
        ("theta01", "inf"),
    ],
)
def test_spectrum_rejects_bad_numbers_at_load_time(tmp_path, key, value, capsys):
    # each once escaped as a traceback (exit 1), wrote nan or unconverged rows
    # (exit 4), or exited 2 blaming omega
    keys = {"a": "1", "omega_hat": "1", "z": "1", "omega_grid": "1 2", "method": "both", key: value}
    cfg = _write(tmp_path, "[spectrum]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()))
    out = tmp_path / "out"
    code, stdout, stderr = _cli(capsys, "spectrum", "--config", str(cfg), "--out", str(out))
    assert code == 2, stderr
    assert key in stderr
    assert not out.exists()


def test_spectrum_panel_factor_above_16_exits_2_naming_the_key(tmp_path, capsys):
    # the node count and memory of the quadrature grow linearly with
    # panel_factor; a fuzz run at 100000 was killed for its memory
    text = "[spectrum]\na = 1\nomega_hat = 1\nz = 1\nomega_grid = 1 2\nmethod = both\n"
    assert load_config(_write(tmp_path, text + "panel_factor = 16\n")).spectrum.panel_factor == 16
    cfg = _write(tmp_path, text + "panel_factor = 17\n")
    out = tmp_path / "out"
    code, stdout, stderr = _cli(capsys, "spectrum", "--config", str(cfg), "--out", str(out))
    assert code == 2, stderr
    assert "panel_factor must be at most 16" in stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "key, twist",
    [
        ("theta01", "kind = canonical\ntheta01 = 1/0\n"),
        ("inv_kappa", "kind = lie\ninv_kappa = x\nzeta = 0 0 1 0\nalpha = 0\nbeta = 1\n"),
        ("zeta", "kind = lie\ninv_kappa = 1\nzeta = 0 0 1/0 0\nalpha = 0\nbeta = 1\n"),
        ("alpha", "kind = lie\ninv_kappa = 1\nzeta = 0 0 1 0\nalpha = x\nbeta = 1\n"),
        ("xi", "kind = quadratic\nxi = x\nindices = 0 1 2 3\n"),
        ("indices", "kind = quadratic\nxi = 1\nindices = 0 1 2 y\n"),
    ],
)
def test_bad_twist_number_exits_2_naming_key(tmp_path, capsys, key, twist):
    # each once exited 2 with only the parser's complaint, such as
    # "Fraction(1, 0)" or "Invalid literal for Fraction: 'x'"
    cfg = _write(tmp_path, "[twist]\n" + twist)
    out = tmp_path / "out"
    code, _, stderr = _cli(capsys, "commutator", "--config", str(cfg), "--out", str(out))
    assert code == 2, stderr
    assert f"cannot parse {key}: " in stderr
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("a", "5e-324"), ("z", "1e-200")])
def test_spectrum_underflowing_deviation_scale_exits_2(tmp_path, capsys, key, value):
    # pi T z^2 underflows to 0 (theta01 is 0 here): each once escaped as a
    # ZeroDivisionError traceback, exit 1
    keys = {"a": "1", "omega_hat": "1", "z": "1", "omega_grid": "1", "method": "both", key: value}
    cfg = _write(tmp_path, "[spectrum]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()))
    out = tmp_path / "out"
    code, _, stderr = _cli(capsys, "spectrum", "--config", str(cfg), "--out", str(out))
    assert code == 2, stderr
    assert "omega = 1.0" in stderr
    assert f"{key} = {float(value)!r}" in stderr
    assert not out.exists()


def test_spectrum_names_every_bound_breach_in_one_warning_line(tmp_path):
    # theta01 = 0.1 takes |deviation| past 0.1 at omega = 2 and 4 only; a fresh
    # interpreter, so that Python's own warning display, not pytest's, is what
    # the command line replaces
    cfg = _write(tmp_path, FULL_CONFIG.replace("theta01 = 1e-4", "theta01 = 0.1").replace(
        "omega_grid = 0.5 1 2", "omega_grid = 0.5 1 2 4"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    run = subprocess.run(
        [sys.executable, "-m", "starwedge.cli", "spectrum", "--config", str(cfg), "--out", str(tmp_path / "s")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stderr == (
        "warning: first-order deformation bound |deviation| <= 0.1 exceeded at omega = 2.0, 4.0\n"
    )
    assert "spectrum.py:" not in run.stderr
    assert (tmp_path / "s" / "spectrum.csv").read_text() == run.stdout


def test_spectrum_prints_the_bound_line_before_the_nonconvergence_line(tmp_path, capsys):
    # the README config at theta01 = 0.1: the bound is breached at omega = 2,
    # 4 and 300, and the quadrature row at omega = 300 does not converge
    text = _readme_block("ini").replace("theta01 = 1e-4 ", "theta01 = 0.1 ").replace(
        "omega_grid = 0.5 1 2 ", "omega_grid = 0.5 1 2 4 300 ")
    cfg = _write(tmp_path, text)
    assert load_config(cfg).spectrum.omegas == (0.5, 1.0, 2.0, 4.0, 300.0)
    out = tmp_path / "out"
    code, stdout, stderr = _cli(capsys, "spectrum", "--config", str(cfg), "--out", str(out))
    assert code == 4
    assert stderr == (
        "warning: first-order deformation bound |deviation| <= 0.1 exceeded at omega = 2.0, 4.0, 300.0\n"
        "warning: quadrature did not converge at omega = 300.0\n"
    )
    assert (out / "spectrum.csv").read_text() == stdout


def test_spectrum_out_of_range_run_prints_only_its_error(tmp_path, capsys):
    # at a = 1e-320 the deviation at omega = 0.5 is -inf, past the bound, and
    # its closed form is not finite; no row is written, so no bound line either
    text = _readme_block("ini").replace("a = 6.283185307179586\n", "a = 1e-320\n")
    cfg = _write(tmp_path, text)
    assert load_config(cfg).spectrum.a == 1e-320
    out = tmp_path / "out"
    code, stdout, stderr = _cli(capsys, "spectrum", "--config", str(cfg), "--out", str(out))
    assert code == 2
    assert stderr == (
        "error: grid frequency omega = 0.5 (omega / a = inf) is out of range: the closed form is not finite\n"
    )
    assert stdout == ""
    assert not out.exists()


def test_commutator_never_imports_numpy(tmp_path):
    # a fresh interpreter, since other test modules have imported numpy here:
    # the command line loads no click, the exact algebra no numpy, and the
    # first quadrature call loads numpy
    cfg = _write(tmp_path, _readme_block("ini"))
    script = (
        "import sys\n"
        "import starwedge.cli\n"
        "assert 'click' not in sys.modules, 'the command line imported click'\n"
        "cfg, out = sys.argv[1:]\n"
        "try:\n"
        "    starwedge.cli.main(['commutator', '--config', cfg, '--out', out + '/c'])\n"
        "except SystemExit as exit:\n"
        "    assert exit.code == 0, exit.code\n"
        "assert 'numpy' not in sys.modules, 'commutator imported numpy'\n"
        "try:\n"
        "    starwedge.cli.main(['spectrum', '--config', cfg, '--out', out + '/s'])\n"
        "except SystemExit as exit:\n"
        "    assert exit.code in (0, 4), exit.code\n"
        "assert 'numpy' in sys.modules, 'spectrum did not import numpy'\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    run = subprocess.run(
        [sys.executable, "-c", script, str(cfg), str(tmp_path)], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "c" / "table.json").exists()
    assert (tmp_path / "s" / "spectrum.json").exists()


def test_verify_passes_and_is_deterministic(tmp_path, capsys):
    cfg = _write(tmp_path, FULL_CONFIG)
    outs = []
    for name in ("v1", "v2"):
        out = tmp_path / name
        code, stdout, stderr = _cli(capsys, "verify", "--config", str(cfg), "--out", str(out))
        assert code == 0, stderr
        outs.append((out / "report.json").read_bytes())
    assert outs[0] == outs[1]
    report = json.loads(outs[0])
    assert report["all_passed"] is True
    assert report["seed"] == 7


def test_verify_seed_change_same_outcomes(tmp_path, capsys):
    outcomes = []
    # seeds 12 and 609 once failed expr_simplify_preserves_eval on cancellation
    # in the double evaluation of an exact canonical form
    for seed in ("1", "2", "12", "609"):
        out = tmp_path / f"s{seed}"
        code, stdout, stderr = _cli(capsys, "verify", "--seed", seed, "--out", str(out))
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        outcomes.append([(c["name"], c["passed"]) for c in report["checks"]])
    assert all(o == outcomes[0] for o in outcomes)


def test_verify_unattainable_tolerance_fails_controlled(tmp_path, capsys):
    cfg = _write(tmp_path, "[tolerances]\nquadrature_agreement = 1e-20\n")
    out = tmp_path / "out"
    code, stdout, stderr = _cli(capsys, "verify", "--config", str(cfg), "--out", str(out))
    assert code == 1
    report = json.loads((out / "report.json").read_text())
    failing = [c for c in report["checks"] if not c["passed"]]
    assert [c["name"] for c in failing] == ["quadrature_agreement"]
    assert failing[0]["measured"] > failing[0]["tolerance"]


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_verify_rejects_bad_tolerances_at_load_time(tmp_path, value, capsys):
    # each once ran the suite and exited 1, a verification failure; nan also
    # wrote "tolerance": NaN
    cfg = _write(tmp_path, f"[tolerances]\nquadrature_agreement = {value}\n")
    out = tmp_path / "out"
    code, stdout, stderr = _cli(capsys, "verify", "--config", str(cfg), "--out", str(out))
    assert code == 2, stderr
    assert "quadrature_agreement" in stderr
    assert not (out / "report.json").exists()
