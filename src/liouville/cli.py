"""Command-line front end.

Subcommands consume a JSON config file and emit either aligned
human-readable text or machine-readable JSON (--json). Exit codes:
0 success, 1 usage, parse/IO or other input errors, 2 hypothesis
violations, 3 on-critical-surface, 4 solver non-convergence.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import fieldio
from .config import InstanceConfig, load_config
from .degree import DEFAULT_CAP, leray_schauder_degree, normalized_energy
from .errors import (
    ConfigError,
    HypothesisViolation,
    LiouvilleError,
    NoConvergence,
    OnCriticalSurface,
    SingularMatrix,
    StepFailure,
)
from .matrix import ConditionReport, check_h1, check_h2
from .pohozaev import (
    MassVector,
    minimal_mass_check,
    pohozaev_residual,
    solve_mass_on_hypersurface,
)
from .series import build_generating_function
from .solver import (
    FieldSet,
    TorusGrid,
    WeightSpec,
    solve_continuation,
    verify_solution,
)
from .spectrum import (
    DEFAULT_CRITICAL_TOL,
    DEFAULT_MERGE_TOL,
    enumerate_spectrum,
)

__all__ = ["main", "run"]

_FLAGS = {
    "--cap": dict(type=float, help="spectrum exponent cap"),
    "--tol-merge": dict(
        type=float, help="tolerance for merging coincident levels"
    ),
    "--tol-critical": dict(
        type=float, help="distance to a level that counts as critical"
    ),
    "--resolution": dict(type=int, help="solver grid resolution override"),
    "--out": dict(help="write solver fields to this path"),
    "--field": dict(required=True, help="field dump produced by solve --out"),
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        payload, code = args.handler(load_config(args.config), args)
    except ConfigError as exc:
        print(f"error[ConfigError]: {exc}", file=sys.stderr)
        return 1
    except HypothesisViolation as exc:
        print(f"error[HypothesisViolation]: {exc}", file=sys.stderr)
        return 2
    except OnCriticalSurface as exc:
        print(f"error[OnCriticalSurface]: {exc}", file=sys.stderr)
        return 3
    except (NoConvergence, StepFailure) as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 4
    except (LiouvilleError, ValueError, OSError) as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1
    _emit(payload, args.json)
    return code


def run(command: str, config_path: str, *flags: str) -> int:
    """Programmatic entry point mirroring the command line."""
    return main([command, config_path, *flags])


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one error line with exit code 1, since
    argparse's own code 2 means a hypothesis violation here."""

    def error(self, message: str):
        self.exit(1, f"error[UsageError]: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="liouville",
        description=(
            "Degree counting and spectral solving for coupled mean field "
            "systems with singular sources"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, flags) in COMMANDS.items():
        p = sub.add_parser(name)
        p.set_defaults(handler=handler)
        p.add_argument("config", help="path to a JSON problem config")
        p.add_argument(
            "--json", action="store_true", help="emit machine-readable JSON"
        )
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def _first_set(*choices):
    """The flag, config value or default that comes first and is set."""
    return next(x for x in choices if x is not None)


def _report_payload(report: ConditionReport) -> dict:
    return {
        "holds": report.holds,
        "violations": [
            {
                "condition": v.condition,
                "indices": list(v.indices),
                "value": float(v.value),
            }
            for v in report.violations
        ],
    }


def _cmd_check_matrix(cfg: InstanceConfig, args) -> tuple[dict, int]:
    h1 = check_h1(cfg.matrix)
    try:
        h2 = check_h2(cfg.matrix)
        h2_payload = _report_payload(h2)
        h2_holds = h2.holds
    except SingularMatrix as exc:
        h2_payload = {
            "holds": False,
            "violations": [
                {"condition": "invertible", "indices": [], "value": None}
            ],
            "error": str(exc),
        }
        h2_holds = False
    payload = {
        "standard_hypothesis": _report_payload(h1),
        "strong_interaction_hypothesis": h2_payload,
    }
    code = 0 if (h1.holds and h2_holds) else 2
    return payload, code


def _cmd_spectrum(cfg: InstanceConfig, args) -> tuple[dict, int]:
    cap = _first_set(args.cap, cfg.exponent_cap, DEFAULT_CAP)
    merge_tol = _first_set(args.tol_merge, DEFAULT_MERGE_TOL)
    spec = enumerate_spectrum(cfg.singularities, cap, merge_tol)
    return {
        "cap": float(cap),
        "levels": [float(v) for v in spec.levels],
    }, 0


def _cmd_series(cfg: InstanceConfig, args) -> tuple[dict, int]:
    surface = cfg.require_surface()
    cap = _first_set(args.cap, cfg.exponent_cap, DEFAULT_CAP)
    merge_tol = _first_set(args.tol_merge, DEFAULT_MERGE_TOL)
    g = build_generating_function(surface.chi, cfg.singularities, cap, merge_tol)
    return {
        "chi": surface.chi,
        "cap": float(cap),
        "terms": [
            {"exponent": float(v), "coefficient": int(c)}
            for v, c in g.sorted_terms()
        ],
    }, 0


def _cmd_degree(cfg: InstanceConfig, args) -> tuple[dict, int]:
    instance = cfg.instance()
    result = leray_schauder_degree(
        instance,
        cap=_first_set(args.cap, cfg.exponent_cap, DEFAULT_CAP),
        tol=_first_set(args.tol_critical, cfg.critical_tol, DEFAULT_CRITICAL_TOL),
        merge_tol=_first_set(args.tol_merge, DEFAULT_MERGE_TOL),
    )
    return {
        "degree": int(result.degree),
        "region": int(result.region_k),
        "q": float(result.q_normalized),
        "level_below": float(result.nearest_levels[0]),
        "level_above": float(result.nearest_levels[1]),
        "partial_coefficients": [int(b) for b in result.partial_coefficients],
    }, 0


def _cmd_pohozaev(cfg: InstanceConfig, args) -> tuple[dict, int]:
    if cfg.sigma is None or cfg.mu is None:
        raise ConfigError("sigma", 'pohozaev needs "sigma" and "mu"')
    masses = MassVector(cfg.sigma, cfg.mu)
    payload: dict = {
        "mu": float(cfg.mu),
        "sigma": [float(x) for x in cfg.sigma],
        "residual": pohozaev_residual(cfg.matrix, masses),
        "minimal_mass": _report_payload(minimal_mass_check(cfg.matrix, masses)),
    }
    if cfg.direction is not None:
        solved = solve_mass_on_hypersurface(cfg.matrix, cfg.mu, cfg.direction)
        payload["hypersurface"] = {
            "sigma": [float(x) for x in solved.sigma],
            "residual": pohozaev_residual(cfg.matrix, solved),
        }
    return payload, 0


def _solver_pieces(cfg: InstanceConfig, resolution: int):
    surface = cfg.require_surface()
    if surface.chi != 0:
        raise ConfigError(
            "surface", "the solver runs on the flat torus only (chi must be 0)"
        )
    if cfg.singularities.count and cfg.singularities.positions is None:
        raise ConfigError(
            "singularities", "the solver needs positions for every source"
        )
    grid = TorusGrid(resolution)
    instance = cfg.instance()
    weights = WeightSpec.uniform(cfg.matrix.n, cfg.singularities)
    return instance, weights, grid


def _cmd_solve(cfg: InstanceConfig, args) -> tuple[dict, int]:
    resolution = _first_set(args.resolution, cfg.resolution)
    instance, weights, grid = _solver_pieces(cfg, resolution)
    result = solve_continuation(instance, weights, grid, cfg.solver)
    if args.out:
        fieldio.write_binary(args.out, result.fields.values)
        fieldio.write_csv(str(args.out) + ".csv", result.fields.values)
    payload = {
        "resolution": grid.resolution,
        "q": normalized_energy(instance.rho, instance.matrix),
        "residual_norm": float(result.residual_norm),
        "max_norm": float(np.max(np.abs(result.fields.values))),
        "steps": [
            {
                "t": float(s.t),
                "newton_iterations": int(s.newton_iterations),
                "final_residual": float(s.residual_history[-1]),
                "max_norm": float(s.max_norm),
            }
            for s in result.steps
        ],
    }
    return payload, 0


def _cmd_verify(cfg: InstanceConfig, args) -> tuple[dict, int]:
    values = fieldio.read_binary(args.field)
    if values.shape[0] != cfg.matrix.n:
        raise ConfigError(
            "--field",
            f"dump has {values.shape[0]} components, config expects "
            f"{cfg.matrix.n}",
        )
    resolution = _first_set(args.resolution, int(values.shape[1]))
    instance, weights, grid = _solver_pieces(cfg, resolution)
    if values.shape[1] != grid.resolution:
        raise ConfigError(
            "--resolution",
            f"dump resolution {values.shape[1]} does not match {grid.resolution}",
        )
    report = verify_solution(FieldSet(values), instance, weights, grid)
    return {
        "residual_l2": [float(x) for x in report.residual_l2],
        "residual_means": [float(x) for x in report.residual_means],
        "field_means": [float(x) for x in report.field_means],
        "normalized_masses": [float(x) for x in report.normalized_masses],
        "functional_value": float(report.functional_value),
        "residual_norm": float(report.residual_norm),
    }, 0


# Each subcommand's handler and the flags it reads besides --json.
COMMANDS = {
    "check-matrix": (_cmd_check_matrix, ()),
    "spectrum": (_cmd_spectrum, ("--cap", "--tol-merge")),
    "series": (_cmd_series, ("--cap", "--tol-merge")),
    "degree": (_cmd_degree, ("--cap", "--tol-merge", "--tol-critical")),
    "pohozaev": (_cmd_pohozaev, ()),
    "solve": (_cmd_solve, ("--resolution", "--out")),
    "verify": (_cmd_verify, ("--resolution", "--field")),
}


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in _human_lines(payload, indent=0):
            print(line)


def _human_lines(value, indent: int) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(value, dict):
        width = max((len(str(k)) for k in value), default=0)
        for key in value:
            item = value[key]
            if isinstance(item, (dict, list)) and item:
                lines.append(f"{pad}{key}:")
                lines.extend(_human_lines(item, indent + 1))
            else:
                rendered = _scalar(item)
                lines.append(f"{pad}{str(key).ljust(width)}  {rendered}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                lines.extend(_human_lines(item, indent))
                lines.append("")
            else:
                lines.append(f"{pad}{_scalar(item)}")
        while lines and lines[-1] == "":
            lines.pop()
    else:
        lines.append(f"{pad}{_scalar(value)}")
    return lines


def _scalar(item) -> str:
    if isinstance(item, float):
        return repr(item)
    if isinstance(item, list) and not item:
        return "[]"
    if isinstance(item, dict) and not item:
        return "{}"
    return str(item)


if __name__ == "__main__":
    sys.exit(main())
