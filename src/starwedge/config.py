"""Run configuration: a strict key = value sections file, plus artifact output.

The file parses completely before any computation starts; unknown sections or
keys are errors.  Outputs are written atomically (temp file then rename) so a
failed run never leaves partial artifacts.
"""

from __future__ import annotations

import configparser
import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .diffop import CHARTS
from .twists import CONFIG_KEYS, TwistSpec, TwistSpecError, spec_from_config
from .verification import DEFAULT_TOLERANCES

__all__ = ["ConfigError", "SpectrumConfig", "RunConfig", "load_config", "atomic_write_text"]


class ConfigError(ValueError):
    """The configuration file is malformed or carries unknown keys."""


_RUN_KEYS = {"seed", "format", "out"}
_TWIST_COMMON_KEYS = {"kind", "chart"}
_SPECTRUM_KEYS = {
    "a",
    "omega_hat",
    "z",
    "theta01",
    "omega_grid",
    "method",
    "panel_factor",
    "rtol",
}
_FORMATS = ("text", "json", "csv")
_METHODS = ("closed-form", "quadrature", "both")


@dataclass(frozen=True)
class SpectrumConfig:
    a: float
    omega_hat: float
    z: float
    theta01: float
    omegas: tuple[float, ...]
    method: str
    panel_factor: int
    rtol: float


@dataclass(frozen=True)
class RunConfig:
    seed: int = 1
    out_format: str = "text"
    out_dir: str | None = None
    chart: str = "minkowski"
    twist: TwistSpec | None = None
    spectrum: SpectrumConfig | None = None
    tolerances: dict[str, float] = field(default_factory=dict)


def _number(text: str, key: str) -> float:
    """Accept plain floats and exact fractions like 1/10."""
    try:
        if "/" in text:
            return float(Fraction(text))
        return float(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"cannot parse number for {key}: {text!r}") from None


def _int(text: str, key: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"cannot parse integer for {key}: {text!r}") from None


def _parse_grid(text: str) -> tuple[float, ...]:
    parts = text.split()
    if parts and parts[0] in ("geom", "lin"):
        if len(parts) != 4:
            raise ConfigError(f"grid spec needs: {parts[0]} START STOP COUNT")
        start = _number(parts[1], "omega_grid start")
        stop = _number(parts[2], "omega_grid stop")
        count = _int(parts[3], "omega_grid count")
        if count < 1 or start <= 0 or stop <= start:
            raise ConfigError("grid spec needs 0 < START < STOP and COUNT >= 1")
        if parts[0] == "geom":
            ratio = (stop / start) ** (1.0 / max(count - 1, 1))
            return tuple(start * ratio**k for k in range(count))
        step = (stop - start) / max(count - 1, 1)
        return tuple(start + step * k for k in range(count))
    omegas = tuple(_number(p, "omega_grid") for p in parts)
    if not omegas:
        raise ConfigError("omega_grid is empty")
    if any(w <= 0 for w in omegas):
        raise ConfigError("grid frequencies must be positive")
    return omegas


def _check_keys(section: str, present: set[str], allowed: set[str]) -> None:
    unknown = present - allowed
    if unknown:
        raise ConfigError(f"unknown keys in [{section}]: {sorted(unknown)}")


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a configuration file; no computation happens here."""
    cp = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=(";", "#")
    )
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from None
    except configparser.Error as err:
        raise ConfigError(f"config syntax error: {err}") from None

    known_sections = {"run", "twist", "spectrum", "tolerances"}
    sections = set(cp.sections())
    if cp.defaults():
        raise ConfigError("top-level keys outside a section are not allowed")
    unknown = sections - known_sections
    if unknown:
        raise ConfigError(f"unknown sections: {sorted(unknown)}")

    seed, out_format, out_dir = 1, "text", None
    if "run" in sections:
        items = dict(cp.items("run"))
        _check_keys("run", set(items), _RUN_KEYS)
        if "seed" in items:
            seed = _int(items["seed"], "seed")
        if "format" in items:
            out_format = items["format"].strip()
            if out_format not in _FORMATS:
                raise ConfigError(f"format must be one of {_FORMATS}")
        if "out" in items:
            out_dir = items["out"].strip()

    chart, twist = "minkowski", None
    if "twist" in sections:
        items = dict(cp.items("twist"))
        kind = items.get("kind")
        if kind not in CONFIG_KEYS:
            raise ConfigError(f"twist kind must be one of {sorted(CONFIG_KEYS)}")
        _check_keys("twist", set(items), _TWIST_COMMON_KEYS | CONFIG_KEYS[kind])
        chart = items.pop("chart", "minkowski").strip()
        if chart not in CHARTS:
            raise ConfigError(f"chart must be one of {tuple(CHARTS)}")
        try:
            twist = spec_from_config(items)
        except TwistSpecError:
            raise
        except ValueError as err:
            raise ConfigError(f"bad twist parameter: {err}") from None

    spectrum = None
    if "spectrum" in sections:
        items = dict(cp.items("spectrum"))
        _check_keys("spectrum", set(items), _SPECTRUM_KEYS)
        missing = {"a", "omega_hat", "z", "omega_grid"} - set(items)
        if missing:
            raise ConfigError(f"missing spectrum keys: {sorted(missing)}")
        method = items.get("method", "closed-form").strip()
        if method not in _METHODS:
            raise ConfigError(f"method must be one of {_METHODS}")
        spectrum = SpectrumConfig(
            a=_number(items["a"], "a"),
            omega_hat=_number(items["omega_hat"], "omega_hat"),
            z=_number(items["z"], "z"),
            theta01=_number(items.get("theta01", "0"), "theta01"),
            omegas=_parse_grid(items["omega_grid"]),
            method=method,
            panel_factor=_int(items.get("panel_factor", "1"), "panel_factor"),
            rtol=_number(items.get("rtol", "1e-7"), "rtol"),
        )
        for name in ("a", "omega_hat", "z", "rtol"):
            val = getattr(spectrum, name)
            if not (val > 0 and math.isfinite(val)):
                raise ConfigError(f"spectrum {name} must be positive and finite")
        if not math.isfinite(spectrum.theta01):
            raise ConfigError("spectrum theta01 must be finite")
        if not all(map(math.isfinite, spectrum.omegas)):
            raise ConfigError(f"spectrum omega_grid frequencies must be finite: {spectrum.omegas}")
        if spectrum.panel_factor < 1:
            raise ConfigError("spectrum panel_factor must be at least 1")
        if spectrum.panel_factor > 16:
            # node count and memory grow linearly with it; rounding error grows too
            raise ConfigError("spectrum panel_factor must be at most 16")

    tolerances: dict[str, float] = {}
    if "tolerances" in sections:
        items = dict(cp.items("tolerances"))
        for key, val in items.items():
            if key not in DEFAULT_TOLERANCES:
                raise ConfigError(f"unknown tolerance name: {key}")
            tol = _number(val, key)
            if not (tol >= 0 and math.isfinite(tol)):
                raise ConfigError(f"tolerance {key} must be nonnegative and finite")
            tolerances[key] = tol

    return RunConfig(
        seed=seed,
        out_format=out_format,
        out_dir=out_dir,
        chart=chart,
        twist=twist,
        spectrum=spectrum,
        tolerances=tolerances,
    )


def atomic_write_text(path: Path, text: str) -> None:
    """Write-then-rename so outputs appear all at once or not at all."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _finite_or_null(obj):
    """``obj`` with every non-finite float, at any depth, replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def dump_json(obj) -> str:
    """The text of every JSON artifact: strict JSON (a non-finite float is null),
    two-space indent, sorted keys, a final newline."""
    return json.dumps(_finite_or_null(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"
