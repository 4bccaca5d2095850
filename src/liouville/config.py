"""Problem-instance configuration: JSON in, validated domain objects out.

Every parse failure raises ConfigError anchored to the offending field
(dotted path), so a bad config names its own problem.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .degree import ProblemInstance, SurfaceSpec
from .errors import ConfigError
from .matrix import InteractionMatrix
from .solver import DEFAULT_RESOLUTION, MAX_RESOLUTION, MAX_STEPS, SolverOptions
from .spectrum import SingularitySet

__all__ = ["InstanceConfig", "load_config"]


@dataclass(frozen=True)
class InstanceConfig:
    """Validated configuration; optional sections are None when absent."""

    matrix: InteractionMatrix
    rho: np.ndarray | None
    surface: SurfaceSpec | None
    singularities: SingularitySet
    resolution: int
    solver: SolverOptions
    exponent_cap: float | None
    critical_tol: float | None
    sigma: np.ndarray | None
    mu: float | None
    direction: np.ndarray | None

    def require_rho(self) -> np.ndarray:
        if self.rho is None:
            raise ConfigError("rho", "this command needs the mass vector")
        return self.rho

    def require_surface(self) -> SurfaceSpec:
        if self.surface is None:
            raise ConfigError("surface", "this command needs the topology")
        return self.surface

    def instance(self) -> ProblemInstance:
        return ProblemInstance(
            self.require_surface(),
            self.singularities,
            self.matrix,
            self.require_rho(),
        )


def load_config(path: str | Path) -> InstanceConfig:
    """Parse and validate a JSON config file.

    Raises
    ------
    ConfigError
        On unreadable files, malformed JSON (with line anchor), or any
        field failing validation.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read config: {exc}") from exc

    def reject_constant(name: str):
        raise ConfigError(str(path), f"{name} is not a finite number")

    try:
        raw = json.loads(text, parse_constant=reject_constant)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}", f"invalid JSON: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise ConfigError(str(path), "top-level config must be an object")
    known = {
        "matrix",
        "rho",
        "surface",
        "singularities",
        "solver",
        "caps",
        "sigma",
        "mu",
        "direction",
    }
    for key in raw:
        if key not in known:
            raise ConfigError(key, "unknown config field")
    matrix = _parse_matrix(raw)
    n = matrix.n
    resolution, solver = _parse_solver(raw)
    return InstanceConfig(
        matrix=matrix,
        rho=_parse_vector(raw, "rho", n),
        surface=_parse_surface(raw),
        singularities=_parse_singularities(raw),
        resolution=resolution,
        solver=solver,
        **_parse_caps(raw),
        sigma=_parse_vector(raw, "sigma", n),
        mu=_parse_mu(raw),
        direction=_parse_vector(raw, "direction", n),
    )


def _parse_matrix(raw: dict) -> InteractionMatrix:
    if "matrix" not in raw:
        raise ConfigError("matrix", "missing required field")
    rows = raw["matrix"]
    if not isinstance(rows, list) or not rows:
        raise ConfigError("matrix", "expected a nonempty list of rows")
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise ConfigError(f"matrix[{i}]", "expected a list of numbers")
        for j, x in enumerate(row):
            _require_number(x, f"matrix[{i}][{j}]")
    try:
        return InteractionMatrix(rows)
    except ValueError as exc:
        raise ConfigError("matrix", str(exc)) from exc


def _parse_vector(raw: dict, field: str, n: int) -> np.ndarray | None:
    if field not in raw:
        return None
    items = raw[field]
    if not isinstance(items, list):
        raise ConfigError(field, "expected a list of numbers")
    if len(items) != n:
        raise ConfigError(
            field, f"expected {n} entries to match the matrix, got {len(items)}"
        )
    for i, x in enumerate(items):
        _require_number(x, f"{field}[{i}]")
    return np.array(items, dtype=np.float64)


# The integer field of each typed surface form, and the constructor it feeds.
_SURFACE_TYPES = {
    "closed": ("genus", SurfaceSpec.closed_surface),
    "domain": ("holes", SurfaceSpec.planar_domain),
}


def _parse_surface(raw: dict) -> SurfaceSpec | None:
    if "surface" not in raw:
        return None
    s = raw["surface"]
    if not isinstance(s, dict):
        raise ConfigError("surface", "expected an object")
    if "chi" in s:
        _require_int(s["chi"], "surface.chi")
        _require_object(s, "surface", {"chi"})
        return SurfaceSpec.from_chi(s["chi"])
    kind = s.get("type")
    if not isinstance(kind, str) or kind not in _SURFACE_TYPES:
        raise ConfigError(
            "surface.type", 'expected "closed" or "domain" (or a raw "chi")'
        )
    field, build = _SURFACE_TYPES[kind]
    _require_int(s.get(field), f"surface.{field}")
    if s[field] < 0:
        raise ConfigError(f"surface.{field}", "must be nonnegative")
    _require_object(s, "surface", {"type", field})
    return build(s[field])


def _parse_singularities(raw: dict) -> SingularitySet:
    if "singularities" not in raw:
        return SingularitySet.empty()
    items = raw["singularities"]
    if not isinstance(items, list):
        raise ConfigError("singularities", "expected a list")
    gammas: list[float] = []
    positions: list[tuple[float, float]] = []
    with_position = 0
    for l, item in enumerate(items):
        if not isinstance(item, dict) or "gamma" not in item:
            raise ConfigError(
                f"singularities[{l}]", 'expected an object with "gamma"'
            )
        _require_number(item["gamma"], f"singularities[{l}].gamma")
        gammas.append(float(item["gamma"]))
        if "position" in item:
            pos = item["position"]
            if not isinstance(pos, list) or len(pos) != 2:
                raise ConfigError(
                    f"singularities[{l}].position", "expected [x, y]"
                )
            for k, x in enumerate(pos):
                _require_number(x, f"singularities[{l}].position[{k}]")
            positions.append((float(pos[0]), float(pos[1])))
            with_position += 1
    if with_position and with_position != len(items):
        raise ConfigError(
            "singularities", "either all sources have positions or none do"
        )
    try:
        return SingularitySet(
            tuple(gammas), tuple(positions) if with_position else None
        )
    except ValueError as exc:
        raise ConfigError("singularities", str(exc)) from exc


def _parse_solver(raw: dict) -> tuple[int, SolverOptions]:
    defaults = SolverOptions()
    if "solver" not in raw:
        return DEFAULT_RESOLUTION, defaults
    s = raw["solver"]
    _require_object(s, "solver", {"resolution", "tol", "steps"})
    resolution = s.get("resolution", DEFAULT_RESOLUTION)
    _require_int(resolution, "solver.resolution")
    if not 0 < int(resolution) <= MAX_RESOLUTION or int(resolution) % 2:
        raise ConfigError(
            "solver.resolution",
            f"must be a positive even integer at most {MAX_RESOLUTION}",
        )
    tol = s.get("tol", defaults.tol)
    _require_number(tol, "solver.tol")
    if float(tol) <= 0:
        raise ConfigError("solver.tol", "must be positive")
    steps = s.get("steps", defaults.steps)
    _require_int(steps, "solver.steps")
    if not 1 <= int(steps) <= MAX_STEPS:
        raise ConfigError(
            "solver.steps", f"must be at least 1 and at most {MAX_STEPS}"
        )
    return int(resolution), SolverOptions(tol=float(tol), steps=int(steps))


def _parse_caps(raw: dict) -> dict[str, float | None]:
    """The config's exponent_cap and critical_tol, each None when absent."""
    caps = raw.get("caps", {})
    _require_object(caps, "caps", {"exponent_cap", "tolerance"})
    return {
        "exponent_cap": _parse_cap(caps, "exponent_cap"),
        "critical_tol": _parse_cap(caps, "tolerance"),
    }


def _parse_cap(caps: dict, key: str) -> float | None:
    if key not in caps:
        return None
    _require_number(caps[key], f"caps.{key}")
    value = float(caps[key])
    # A critical tolerance of 0 counts only exact hits; a cap must be positive.
    if key == "exponent_cap" and value <= 0:
        raise ConfigError("caps.exponent_cap", "must be positive")
    if value < 0:
        raise ConfigError("caps.tolerance", "must be nonnegative")
    return value


def _parse_mu(raw: dict):
    if "mu" not in raw:
        return None
    _require_number(raw["mu"], "mu")
    if float(raw["mu"]) <= 0:
        raise ConfigError("mu", "must be positive")
    return float(raw["mu"])


def _require_object(value, field: str, allowed: set[str]) -> None:
    if not isinstance(value, dict):
        raise ConfigError(field, "expected an object")
    extra = set(value) - allowed
    if extra:
        raise ConfigError(field, f"unexpected fields {sorted(extra)}")


def _require_number(value, field: str) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(field, f"expected a number, got {value!r}")
    # Also catches literals that overflow a double, such as 1e999.
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(field, f"expected a finite number, got {value!r}")


def _require_int(value, field: str) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(field, f"expected an integer, got {value!r}")
