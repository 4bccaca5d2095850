"""Problem-instance configuration: JSON in, validated domain objects out.

Every parse failure raises ConfigError anchored to the offending field
(dotted path), so a bad config names its own problem. This module checks
JSON shapes and types; each value bound belongs to the type a field builds.
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
from .solver import DEFAULT_RESOLUTION, SolverOptions, check_resolution
from .spectrum import SingularitySet, check_real

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

    def require_surface(self) -> SurfaceSpec:
        if self.surface is None:
            raise ConfigError("surface", "this command needs the topology")
        return self.surface

    def instance(self) -> ProblemInstance:
        surface = self.require_surface()
        if self.rho is None:
            raise ConfigError("rho", "this command needs the mass vector")
        return ProblemInstance(surface, self.singularities, self.matrix, self.rho)


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
        mu=_parse_real(raw, "mu", "mu"),
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
        if len(row) != len(rows[0]):
            raise ConfigError(
                f"matrix[{i}]",
                f"has {len(row)} entries, but matrix[0] has {len(rows[0])}",
            )
        for j, x in enumerate(row):
            _require_number(x, f"matrix[{i}][{j}]")
    return _build("matrix", InteractionMatrix, rows)


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
        field, build, allowed = "chi", SurfaceSpec.from_chi, {"chi"}
    else:
        kind = s.get("type")
        if not isinstance(kind, str) or kind not in _SURFACE_TYPES:
            raise ConfigError(
                "surface.type", 'expected "closed" or "domain" (or a raw "chi")'
            )
        field, build = _SURFACE_TYPES[kind]
        allowed = {"type", field}
    surface = _build(f"surface.{field}", build, s.get(field))
    _require_object(s, "surface", allowed)
    return surface


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
    where = tuple(positions) if with_position else None
    return _build("singularities", SingularitySet, tuple(gammas), where)


def _parse_solver(raw: dict) -> tuple[int, SolverOptions]:
    defaults = SolverOptions()
    if "solver" not in raw:
        return DEFAULT_RESOLUTION, defaults
    s = raw["solver"]
    _require_object(s, "solver", {"resolution", "tol", "steps"})
    resolution = s.get("resolution", DEFAULT_RESOLUTION)
    resolution = _build("solver.resolution", check_resolution, resolution)
    # The tol is checked with the default steps, so each error names its field.
    tol = _build("solver.tol", SolverOptions, s.get("tol", defaults.tol)).tol
    steps = s.get("steps", defaults.steps)
    return resolution, _build("solver.steps", SolverOptions, tol, steps)


def _parse_caps(raw: dict) -> dict[str, float | None]:
    """The config's exponent_cap and critical_tol, each None when absent."""
    caps = raw.get("caps", {})
    _require_object(caps, "caps", {"exponent_cap", "tolerance"})
    # A critical tolerance of 0 counts only exact hits; a cap must be positive.
    return {
        "exponent_cap": _parse_real(caps, "caps.exponent_cap", "cap"),
        "critical_tol": _parse_real(caps, "caps.tolerance", "critical tolerance", True),
    }


def _parse_real(section: dict, field: str, name: str, closed: bool = False):
    """section's entry for ``field``, or None, checked like the library's ``name``."""
    key = field.rpartition(".")[2]
    if key not in section:
        return None
    return _build(field, check_real, section[key], name, 0.0, closed)


def _build(field: str, make, *args):
    """make(*args), with its ValueError anchored at the config field."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ConfigError(field, str(exc)) from exc


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
