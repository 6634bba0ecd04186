"""Every config file and command line ends in a documented exit code (a property).

Each example writes a config file drawn from the whole config space, runs one
subcommand in process through ``main(argv)`` and checks the contract of the
command line: the exit code is 0 to 4 and only SystemExit escapes; a run that
exits 2 or 3 prints one ``error:`` line naming a key, a path or the grid
frequency at fault, and writes nothing; and every JSON artifact written is
strict JSON.  Hypothesis rejects function-scoped fixtures, so each example
makes its own temporary directory and captures its own output.
"""

import contextlib
import io
import json
import re
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

from starwedge.cli import main
from starwedge.config import _RUN_KEYS, _SPECTRUM_KEYS, _TWIST_COMMON_KEYS
from starwedge.twists import CONFIG_KEYS
from starwedge.verification import DEFAULT_TOLERANCES

# a valid config, with valid numbers that include subnormals and 1e+-300 so
# that tiny and huge values meet across keys (a large a with a tiny omega)
NORMAL = ["1", "0.5", "2", "1/3", "6.283185307179586", "1e-4"]
POSITIVE = [*NORMAL * 2, "5e-324", "1e-309", "1e-300", "1e300", "1.7976931348623157e308"]
SIGNED = [*POSITIVE, "0", "-0", "-3/7", "-1e300", "-5e-324"]
# then up to two keys set to anything: zero, negatives, non-finite values, bad
# fractions, out-of-range indices, bad grid specs, junk and the empty value
ANY = [*SIGNED, "-1", "1e400", "nan", "inf", "-inf", "1/0", "1//2", "1 2", "4", "x", "",
       "lin 1 2", "geom 2 1 3", "lin 1 2 0"]

positive, signed, anything = (st.sampled_from(pool) for pool in (POSITIVE, SIGNED, ANY))
# a grid COUNT is drawn small or past the limit of 10^6, which exits 2 before the grid is built
count = st.sampled_from(["1", "2", "3", "1000001", "100000000000000000000"])
ends = st.lists(positive, min_size=2, max_size=2, unique=True).map(lambda p: sorted(p, key=Fraction))
grid = st.one_of(
    st.lists(positive, min_size=1, max_size=3).map(" ".join),
    st.tuples(st.sampled_from(["lin", "geom"]), ends, count).map(lambda t: " ".join([t[0], *t[1], t[2]])),
)


def _keys(**draws):
    """One section: each key drawn, and dropped where it draws None."""
    return st.fixed_dictionaries(draws).map(lambda d: {k: v for k, v in d.items() if v is not None})


chart = st.sampled_from(["minkowski", "rindler", None])


def _lie_twist(pair):
    # zeta vanishes on the generator pair, except now and then
    zeta = st.tuples(*(signed if k not in pair else st.sampled_from(["0", "0", "0", "1"]) for k in range(4)))
    return _keys(kind=st.just("lie"), chart=chart, inv_kappa=signed, zeta=zeta.map(" ".join),
                 alpha=st.just(str(pair[0])), beta=st.just(str(pair[1])))


indices = st.permutations(range(4)).map(lambda p: " ".join(map(str, p)))
twist = st.one_of(
    _keys(kind=st.just("canonical"), chart=chart, theta01=signed, theta13=st.one_of(st.none(), signed)),
    st.permutations(range(4)).flatmap(lambda p: _lie_twist(p[:2])),
    _keys(kind=st.just("quadratic"), chart=chart, xi=signed, indices=indices),
)
spectrum = _keys(
    a=positive, omega_hat=positive, z=positive, omega_grid=grid,
    theta01=st.one_of(st.none(), signed),
    method=st.sampled_from(["closed-form", "quadrature", "both", None]),
    panel_factor=st.sampled_from(["1", "2", "16", None]),
    rtol=st.one_of(st.none(), positive),
)
tolerances = st.dictionaries(st.sampled_from(sorted(DEFAULT_TOLERANCES)), st.sampled_from(["0", *POSITIVE]),
                             max_size=2)
run = _keys(
    seed=st.sampled_from(["1", "7", "-3", "123456789012345678901234567890", None]),
    format=st.sampled_from(["text", "json", "csv", None]),
    out=st.sampled_from(["RUN_OUT", "BLOCKER/x", None]),
)
sections = {"run": run, "twist": twist, "spectrum": spectrum, "tolerances": tolerances}
known_keys = {
    "run": sorted(_RUN_KEYS),
    "twist": sorted(_TWIST_COMMON_KEYS | set().union(*CONFIG_KEYS.values())),
    "spectrum": sorted(_SPECTRUM_KEYS),
    "tolerances": sorted(DEFAULT_TOLERANCES),
}
mutation = st.sampled_from(sorted(sections)).flatmap(
    lambda name: st.tuples(st.just(name), st.sampled_from([*known_keys[name], "bogus"]), anything)
)


def _mutated(base: dict, mutations: list) -> dict:
    cfg = {name: dict(keys) for name, keys in base.items()}
    for name, key, value in mutations:
        cfg.setdefault(name, {})[key] = value
    return cfg


# the section a subcommand reads is there nine times in ten
NEEDS = {"commutator": "twist", "spectrum": "spectrum", "verify": "tolerances"}


def _config(command: str):
    needed = NEEDS[command]
    base = st.fixed_dictionaries(
        {needed: sections[needed], "drop": st.sampled_from([False] * 9 + [True])},
        optional={name: sections[name] for name in sections if name != needed},
    ).map(lambda cfg: {k: v for k, v in cfg.items() if k != "drop" and not (k == needed and cfg["drop"])})
    return st.builds(_mutated, base, st.lists(mutation, max_size=2))


command_line = st.fixed_dictionaries(
    {
        "command": st.sampled_from(["commutator", "commutator", "spectrum", "spectrum", "spectrum", "verify"]),
        "out": st.sampled_from(["CLI_OUT", "CLI_OUT", "BLOCKER/out", "BLOCKER", None]),
        "seed": st.one_of(st.none(), st.integers(-(2**70), 2**70)),
        "format": st.sampled_from([None, "text", "json", "csv"]),
        "encoding": st.sampled_from(["utf-8"] * 8 + ["utf-16", "latin-1"]),
    }
)
case = command_line.flatmap(lambda cli: st.tuples(_config(cli["command"]), st.just(cli)))


def _text(cfg: dict) -> str:
    return "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) for name, keys in cfg.items()
    )


def _names(cfg: dict) -> set[str]:
    """Every key the file holds or its sections could hold: the key at fault is one of them."""
    return {k for name, keys in cfg.items() for k in (*keys, *known_keys[name])}


def _reject_constant(token):
    raise ValueError(f"non-JSON constant {token}")


def run_case(tmp: Path, cfg: dict, cli: dict) -> tuple[int, str, str, dict]:
    """Run one drawn case in the directory ``tmp``: (exit code, stdout, stderr, the config run)."""
    (tmp / "blocker").write_text("")
    subst = {"RUN_OUT": str(tmp / "run-out"), "BLOCKER": str(tmp / "blocker"), "CLI_OUT": str(tmp / "cli-out")}

    def path(value: str) -> str:
        for token, real in subst.items():
            value = value.replace(token, real)
        return value

    cfg = {name: {k: path(v) if k == "out" and name == "run" else v for k, v in keys.items()}
           for name, keys in cfg.items()}
    cfg_path = tmp / "run.ini"
    cfg_path.write_bytes(_text(cfg).encode(cli["encoding"]))
    argv = [cli["command"], "--config", str(cfg_path)]
    # unless [run] out is a path in tmp, --out keeps the run out of the working directory
    out = cli["out"] or (None if cfg.get("run", {}).get("out", "").startswith(str(tmp)) else "CLI_OUT")
    if out:
        argv += ["--out", path(out)]
    if cli["seed"] is not None:
        argv += ["--seed", str(cli["seed"])]
    if cli["format"]:
        argv += ["--format", cli["format"]]
    stdout, stderr = io.StringIO(), io.StringIO()
    code = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            main(argv)
        except SystemExit as exit:
            code = exit.code
    return code, stdout.getvalue(), stderr.getvalue(), cfg


@settings(max_examples=200)
@given(case)
def test_every_config_and_command_line_ends_in_a_documented_exit_code(drawn):
    cfg, cli = drawn
    with tempfile.TemporaryDirectory() as d:
        check_case(Path(d), cfg, cli)


def check_case(tmp: Path, cfg: dict, cli: dict) -> None:
    code, stdout, stderr, ran = run_case(tmp, cfg, cli)
    artifacts = [p for p in tmp.rglob("*") if p.is_file() and p.name not in ("run.ini", "blocker")]
    assert code in (0, 1, 2, 3, 4), (code, stderr)
    if code in (2, 3):
        assert stderr.startswith("error: ") and stderr.count("\n") == 1, stderr
        assert stdout == ""
        assert artifacts == []
        # loose: the line names a path, omega, a missing section or a key the
        # drawn sections hold or could hold, not necessarily the one at fault
        named = [str(tmp), "omega = ", "[twist]", "[spectrum]"]
        assert any(s in stderr for s in named) or any(
            re.search(rf"\b{re.escape(k)}\b", stderr) for k in _names(ran)
        ), stderr
    for p in artifacts:
        if p.suffix == ".json":
            json.loads(p.read_text(encoding="utf-8"), parse_constant=_reject_constant)
    if cli["format"] == "json" and code in (0, 1, 4):
        json.loads(stdout, parse_constant=_reject_constant)
