"""Problem-instance configuration: JSON in, validated domain objects out.

Every parse failure raises ConfigError anchored to the offending field
(dotted path), so a bad config names its own problem. This module checks
the keys of JSON objects; each value, number or array, is checked by the
type its field builds or by the library's rule for such a value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .degree import ProblemInstance, SurfaceSpec
from .errors import ConfigError
from .matrix import InteractionMatrix
from .solver import DEFAULT_RESOLUTION, SolverOptions, check_resolution
from .spectrum import SingularitySet, check_real, check_reals

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
    try:
        raw = json.loads(text)
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
    return _build("matrix", InteractionMatrix, raw["matrix"])


def _parse_vector(raw: dict, field: str, n: int) -> np.ndarray | None:
    if field not in raw:
        return None
    return _build(field, check_reals, raw[field], field, (n,))


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
    items = raw.get("singularities", [])
    if not isinstance(items, list):
        raise ConfigError("singularities", "expected a list")
    gammas, positions = [], []
    for l, item in enumerate(items):
        field = f"singularities[{l}]"
        _require_object(item, field, {"gamma", "position"})
        if "gamma" not in item:
            raise ConfigError(field, 'expected an object with "gamma"')
        gammas.append(item["gamma"])
        if "position" in item:
            args = (item["position"], "position", (2,))
            positions.append(_build(f"{field}.position", check_reals, *args))
    if positions and len(positions) != len(items):
        raise ConfigError(
            "singularities", "either all sources have positions or none do"
        )
    where = tuple(positions) if positions else None
    return _build("singularities", SingularitySet, tuple(gammas), where)


def _parse_solver(raw: dict) -> tuple[int, SolverOptions]:
    s = raw.get("solver", {})
    _require_object(s, "solver", {"resolution", "tol", "steps"})
    resolution = s.get("resolution", DEFAULT_RESOLUTION)
    resolution = _build("solver.resolution", check_resolution, resolution)
    # The tol is checked with the default steps, so each error names its field.
    tol = _build("solver.tol", SolverOptions, s.get("tol", SolverOptions.tol)).tol
    steps = s.get("steps", SolverOptions.steps)
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
        expected = f"expected only {sorted(allowed)}"
        raise ConfigError(field, f"unexpected fields {sorted(extra)}, {expected}")
