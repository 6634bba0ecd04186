"""The runs of the command line that its console-script smoke test leaves to this suite.

CI runs the installed ``starwedge`` entry point only for what needs it: the
import set, ``--help``, a usage error and one README ``commutator`` and
``spectrum`` run.  The six tables of the README's twists, the two routes of
the README spectrum and ``verify`` under two hash seeds run here.  Each runs
in process through ``main(argv)``, except where the process is the point:
the hash seed of a fresh interpreter.
"""

import json
import os
import subprocess
import sys

import pytest

from starwedge.config import load_config
from test_cli_property import _reject_constant
from test_config_cli import _cli, _readme_block, _write
from test_starprod import _README_TABLE_TXT_SHA256, _sha256

# the README's commented lie and quadratic [twist] values
_TWISTS = {
    "lie": "kind = lie\ninv_kappa = 1/3\nzeta = 0 0 2/3 0\nalpha = 0\nbeta = 1\n",
    "quadratic": "kind = quadratic\nxi = 1/6\nindices = 0 1 2 3\n",
}


@pytest.mark.parametrize("kind", ["canonical", "lie", "quadratic"])
@pytest.mark.parametrize("chart", ["minkowski", "rindler"])
def test_each_readme_twist_writes_its_pinned_table(tmp_path, capsys, chart, kind):
    # the pins hold under the random hash seed of each test process: atoms
    # hash by identity and strings by that seed, so a table whose order read
    # a hash would change from run to run
    if kind == "canonical":
        text = _readme_block("ini").replace("chart = rindler ", f"chart = {chart} ")
    else:
        text = f"[twist]\nchart = {chart}\n{_TWISTS[kind]}"
    cfg = _write(tmp_path, text)
    assert load_config(cfg).chart == chart
    out = tmp_path / "out"
    code, stdout, stderr = _cli(capsys, "commutator", "--config", str(cfg), "--out", str(out))
    assert code == 0, stderr
    table_text = (out / "table.txt").read_text(encoding="utf-8")
    assert stdout == table_text
    assert _sha256(table_text) == _README_TABLE_TXT_SHA256[(chart, kind)]
    table = json.loads((out / "table.json").read_text(encoding="utf-8"), parse_constant=_reject_constant)
    assert (table["chart"], table["twist"]["kind"]) == (chart, kind)
    # the entries of table.json are the pinned lines of table.txt
    entries = [f"[{key.replace(',', ', ')}] = {text}" for key, text in table["entries"].items()]
    assert entries == [line for line in table_text.splitlines() if line.startswith("[")]


@pytest.mark.parametrize("knobs", [False, True])
def test_the_readme_spectrum_routes_agree_on_the_deformed_power(tmp_path, capsys, knobs):
    # each grid point is a closed-form row and a quadrature row, each squaring
    # the first-order correction summed over its own J_p; with knobs, the
    # README's commented panel_factor and rtol set, which the config passes
    # through f_quadrature to mode_integral
    text = _readme_block("ini")
    if knobs:
        text = text.replace("; panel_factor = 1 ", "panel_factor = 2 ").replace("; rtol = 1e-7 ", "rtol = 1e-7 ")
        assert "\nrtol = 1e-7 " in text
    cfg = _write(tmp_path, text)
    assert load_config(cfg).spectrum.panel_factor == (2 if knobs else 1)
    out = tmp_path / "out"
    code, _, stderr = _cli(capsys, "spectrum", "--config", str(cfg), "--out", str(out))
    assert code == 0, stderr
    assert stderr == ""
    rows = json.loads((out / "spectrum.json").read_text(encoding="utf-8"), parse_constant=_reject_constant)["rows"]
    pairs = list(zip(rows[0::2], rows[1::2]))
    assert len(pairs) == 3
    for closed, quad in pairs:
        assert (closed["method"], quad["method"]) == ("closed-form", "quadrature")
        assert abs(quad["power_deformed"] - closed["power_deformed"]) <= 1e-9 * abs(closed["power_deformed"])


# verify seeds 1 and 12, and 81, whose recipes nest cosh(cosh(x))
_VERIFY_SEEDS = ("1", "12", "81")


@pytest.fixture(scope="module")
def reports_by_hash_seed(tmp_path_factory):
    """report.json of ``verify`` at each of _VERIFY_SEEDS, from one fresh interpreter per PYTHONHASHSEED."""
    script = (
        "import sys\n"
        "from starwedge.cli import main\n"
        "out, *seeds = sys.argv[1:]\n"
        "for seed in seeds:\n"
        "    try:\n"
        "        main(['verify', '--seed', seed, '--out', f'{out}/{seed}'])\n"
        "    except SystemExit as exit:\n"
        "        assert exit.code == 0, (seed, exit.code)\n"
    )
    reports = {}
    for hash_seed in ("1", "2"):
        out = tmp_path_factory.mktemp(f"hash-seed-{hash_seed}")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "PYTHONHASHSEED": hash_seed}
        run = subprocess.run(
            [sys.executable, "-c", script, str(out), *_VERIFY_SEEDS], env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert run.returncode == 0, run.stderr
        reports[hash_seed] = {seed: (out / seed / "report.json").read_bytes() for seed in _VERIFY_SEEDS}
    return reports


@pytest.mark.parametrize("seed", _VERIFY_SEEDS)
def test_a_verify_report_does_not_depend_on_the_hash_seed(reports_by_hash_seed, seed):
    # a sum hashes by the set of its terms, so by atom identities, and keeps
    # its terms in the order they were made until its order is first read
    first, second = (reports_by_hash_seed[hash_seed][seed] for hash_seed in ("1", "2"))
    assert first == second
    report = json.loads(first, parse_constant=_reject_constant)
    assert report["all_passed"] is True
    assert report["seed"] == int(seed)
