"""The four workloads: how a request runs and how its answer is checked.

Each workload turns a generated request into calls on the package's
public functions (or one CLI process), times the request, and checks the
outcome against the oracle answer the generator attached. ``execute``
returns (latency in seconds, canonical output bytes, outcome); ``check``
returns OK or FAILED (a refusal, crash or wrong typed error) and raises
``Wrong`` on a silently wrong answer. In a traced round ``decompose``
calls the single layers on the same inputs, each in its own span.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import generators
import oracles

OK = "ok"
FAILED = "failed"


class Wrong(Exception):
    """An answer that disagrees with the oracle."""


class Context:
    """What the workloads share: paths, child environment, tracing."""

    def __init__(self, root: Path, workdir: Path, env: dict, tracer, fft) -> None:
        self.root = root
        self.workdir = workdir
        self.env = env
        self.tracer = tracer
        self.fft = fft
        # Per round: the real tracer and counter, or no-op stand-ins.
        self.tr = tracer
        self.counting = nullcontext

    def trace_round(self, on: bool) -> None:
        from spans import NullTracer

        self.tr = self.tracer if on else NullTracer()
        self.counting = self.fft.counting if on else nullcontext


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


def _failure(exc: Exception) -> dict:
    import liouville

    if isinstance(exc, liouville.LiouvilleError):
        return {"error": type(exc).__name__}
    return {"crash": f"{type(exc).__name__}: {exc}"}


def _check_degree_payload(out: dict, e: dict, partial_key: str) -> list[str]:
    problems = []
    if out["degree"] != e["degree"]:
        problems.append(f"degree {out['degree']} != {e['degree']}")
    if out["region"] != e["region"]:
        problems.append(f"region {out['region']} != {e['region']}")
    if not _close(out["q"], e["q"]):
        problems.append(f"q {out['q']!r} != {e['q']!r}")
    for key in ("level_below", "level_above"):
        if abs(out[key] - e[key]) > 1e-9:
            problems.append(f"{key} {out[key]!r} != {e[key]!r}")
    partial = out[partial_key]
    if sum(partial) != out["degree"] or len(partial) != out["region"] + 1:
        problems.append("partial coefficients do not add up to the degree")
    return problems


class DegreeWorkload:
    """In-process leray_schauder_degree / torus_special_degree calls."""

    setup_body = "import liouville"

    def __init__(self, ctx: Context, generate) -> None:
        self.ctx = ctx
        self.generate = generate

    def prepare(self, pool) -> None:
        pass

    def _answer(self, req) -> dict:
        import liouville as L

        s = L.SingularitySet(tuple(req["gammas"]))
        m = L.InteractionMatrix(req["matrix"])
        if req["kind"] == "torus_special":
            t = L.torus_special_degree(s, m)
            return {"degree": int(t.degree), "q": float(t.q),
                    "rho": [float(x) for x in t.rho]}
        p = L.ProblemInstance(L.SurfaceSpec.from_chi(req["chi"]), s, m, req["rho"])
        r = L.leray_schauder_degree(p)
        return {
            "degree": int(r.degree),
            "region": int(r.region_k),
            "q": float(r.q_normalized),
            "level_below": float(r.nearest_levels[0]),
            "level_above": float(r.nearest_levels[1]),
            "partial": [int(b) for b in r.partial_coefficients],
        }

    def execute(self, i, req):
        name = "degree.torus_special" if req["kind"] == "torus_special" else "degree.call"
        start = time.perf_counter()
        with self.ctx.tr.span(name):
            try:
                out = self._answer(req)
            except Exception as exc:  # every outcome is classified by check()
                out = _failure(exc)
        latency = time.perf_counter() - start
        return latency, _canonical(out), out

    def check(self, req, out) -> str:
        if "error" in out or "crash" in out:
            return FAILED
        e = req["expect"]
        if req["kind"] == "torus_special":
            problems = []
            if out["degree"] != e["degree"]:
                problems.append(f"degree {out['degree']} != closed form {e['degree']}")
            if not _close(out["q"], e["q"]):
                problems.append(f"q {out['q']!r} != {e['q']!r}")
        else:
            problems = _check_degree_payload(out, e, "partial")
        if problems:
            raise Wrong("; ".join(problems))
        return OK

    def decompose(self, i, req, out) -> None:
        if req["kind"] == "torus_special" or "q" not in out:
            return
        import liouville as L

        tr = self.ctx.tr
        s = L.SingularitySet(tuple(req["gammas"]))
        with tr.span("matrix.check"):
            m = L.InteractionMatrix(req["matrix"])
            L.check_h1(m)
            L.check_h2(m)
        with tr.span("spectrum.enumerate"):
            spec = L.enumerate_spectrum(s, oracles.CAP)
        with tr.span("series.build"):
            L.build_generating_function(req["chi"], s, oracles.CAP)
        with tr.span("spectrum.locate"):
            L.locate_region(out["q"], spec)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SolveWorkload:
    """The solve --out / verify --field pipeline, in the CLI's order."""

    setup_body = "import liouville; [liouville.TorusGrid(m) for m in (64, 128, 256)]"

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx

    def generate(self, seed, smoke):
        return generators.solve_torus(seed, smoke), []

    def prepare(self, pool) -> None:
        for i, req in enumerate(pool):
            req["path"] = str(self.ctx.workdir / f"solve_{i}.json")
            Path(req["path"]).write_text(json.dumps(req["config"]))

    def execute(self, i, req):
        import liouville as L
        from liouville import fieldio
        from liouville.config import load_config

        tr = self.ctx.tr
        solver = req["config"]["solver"]
        dump = self.ctx.workdir / f"field_{i}.bin"
        csv = Path(str(dump) + ".csv")
        start = time.perf_counter()
        try:
            with tr.span("config.load"):
                cfg = load_config(req["path"])
            with tr.span("solver.grid"):
                grid = L.TorusGrid(solver["resolution"])
            instance = cfg.instance()
            weights = L.WeightSpec.uniform(cfg.matrix.n, cfg.singularities)
            opts = L.SolverOptions(tol=solver["tol"], steps=solver["steps"])
            with tr.span("solver.solve"), self.ctx.counting():
                result = L.solve_continuation(instance, weights, grid, opts)
            with tr.span("fieldio.write_bin"):
                fieldio.write_binary(dump, result.fields.values)
            with tr.span("fieldio.write_csv"):
                fieldio.write_csv(csv, result.fields.values)
            with tr.span("fieldio.read"):
                values = fieldio.read_binary(dump)
            with tr.span("solver.verify"):
                report = L.verify_solution(L.FieldSet(values), instance, weights, grid)
        except Exception as exc:  # every outcome is classified by check()
            out = _failure(exc)
            return time.perf_counter() - start, _canonical(out), out
        latency = time.perf_counter() - start
        raw_bin, raw_csv = dump.read_bytes(), csv.read_bytes()
        summary = {
            "bin_sha256": hashlib.sha256(raw_bin).hexdigest(),
            "csv_sha256": hashlib.sha256(raw_csv).hexdigest(),
            "residual_norm": float(result.residual_norm),
            "newton_iterations": [int(s.newton_iterations) for s in result.steps],
            "report": {
                "residual_l2": [float(x) for x in report.residual_l2],
                "normalized_masses": [float(x) for x in report.normalized_masses],
                "functional_value": float(report.functional_value),
                "residual_norm": float(report.residual_norm),
            },
        }
        out = {
            "summary": summary,
            "values": result.fields.values,
            "read": values,
            "bin": raw_bin,
            "csv": raw_csv,
            "parts": (instance, weights, grid),
        }
        return latency, _canonical(summary), out

    def check(self, req, out) -> str:
        if "error" in out or "crash" in out:
            return FAILED
        cfg = req["config"]
        tol = cfg["solver"]["tol"]
        values = out["values"]
        n = values.shape[0]
        gammas = [s["gamma"] for s in cfg["singularities"]]
        positions = [s["position"] for s in cfg["singularities"]]
        problems = []
        if out["summary"]["residual_norm"] > tol:
            problems.append("solve reported success above its tolerance")
        exact = values.tobytes()
        if oracles.parse_dump(out["bin"]).tobytes() != exact:
            problems.append("binary dump does not hold the solved field bit for bit")
        if out["read"].tobytes() != exact:
            problems.append("read_binary does not return the written field bit for bit")
        csv_values = oracles.parse_csv(out["csv"].decode(), n, values.shape[1])
        if csv_values.tobytes() != exact:
            problems.append("CSV dump does not round-trip the field bit for bit")
        r = oracles.torus_residual(values, cfg["matrix"], cfg["rho"], gammas, positions)
        if not r <= 10.0 * tol:
            problems.append(f"oracle residual {r:.3e} above 10 tol")
        if not out["summary"]["report"]["residual_norm"] <= 10.0 * tol:
            problems.append("verify_solution residual above 10 tol")
        masses = list(out["summary"]["report"]["normalized_masses"])
        masses += list(oracles.normalized_masses(values, gammas, positions))
        if any(abs(x - 1.0) > 1e-10 for x in masses):
            problems.append(f"normalized masses {masses} not within 1e-10 of 1")
        if np.max(np.abs(values.mean(axis=(1, 2)))) > 1e-12:
            problems.append("solved components are not mean-zero")
        if problems:
            raise Wrong("; ".join(problems))
        return OK

    def decompose(self, i, req, out) -> None:
        if "values" not in out:
            return
        import liouville as L

        tr = self.ctx.tr
        instance, weights, grid = out["parts"]
        with tr.span("solver.weights"):
            h = L.build_weights(weights, grid)
        with tr.span("solver.residual"):
            L.residual(L.FieldSet(out["values"]), instance, h, grid)
        u0 = out["values"][0]
        for _ in range(5):
            with tr.span("solver.laplacian"):
                grid.laplacian(u0)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class CliWorkload:
    """One fresh ``python -m liouville.cli <cmd> cfg --json`` per request."""

    setup_body = "import liouville.cli"

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.peak_kb = 0

    def generate(self, seed, smoke):
        return generators.cli_cold(seed, smoke), []

    def prepare(self, pool) -> None:
        for i, req in enumerate(pool):
            req["path"] = str(self.ctx.workdir / f"cli_{i}.json")
            Path(req["path"]).write_text(json.dumps(req["config"]))

    def run_child(self, args):
        """Run one child to completion: (seconds, exit code, stdout, stderr)."""
        out_path = self.ctx.workdir / "child.out"
        err_path = self.ctx.workdir / "child.err"
        with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
            start = time.perf_counter()
            child = subprocess.Popen(args, stdout=fo, stderr=fe, env=self.ctx.env,
                                     cwd=self.ctx.root)
            _, status, usage = os.wait4(child.pid, 0)
            elapsed = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        return elapsed, child.returncode, out_path.read_text(), err_path.read_text()

    def execute(self, i, req):
        args = [sys.executable, "-m", "liouville.cli", req["command"], req["path"], "--json"]
        with self.ctx.tr.span("cli.request"):
            latency, code, stdout, stderr = self.run_child(args)
        first = stderr.splitlines()[0] if stderr else ""
        out = {"exit": code, "stdout": stdout, "stderr": first,
               "traceback": "Traceback" in stderr}
        return latency, _canonical(out), out

    def check(self, req, out) -> str:
        e = req["expect"]
        code = out["exit"]
        if code != e["exit"]:
            if code == 0:
                raise Wrong(f"{req['command']} answered where exit {e['exit']} was expected")
            return FAILED
        if out["traceback"]:
            return FAILED
        if "error" in e and not out["stderr"].startswith(f"error[{e['error']}]"):
            return FAILED
        if code == 0 or req["command"] == "check-matrix":
            problems = self._payload_problems(req, json.loads(out["stdout"]))
            if problems:
                raise Wrong(f"{req['command']}: " + "; ".join(problems))
        return OK

    def _payload_problems(self, req, got: dict) -> list[str]:
        e = req["expect"]
        command = req["command"]
        if command == "degree":
            return _check_degree_payload(got, e, "partial_coefficients")
        if command == "spectrum":
            levels = got["levels"]
            if got["cap"] != e["cap"] or len(levels) != len(e["levels"]):
                return [f"{len(levels)} levels, oracle has {len(e['levels'])}"]
            worst = max((abs(a - b) for a, b in zip(levels, e["levels"])), default=0.0)
            return [f"level off by {worst:.3e}"] if worst > 1e-9 else []
        if command == "series":
            terms = [(t["exponent"], t["coefficient"]) for t in got["terms"]]
            if got["chi"] != e["chi"] or len(terms) != len(e["terms"]):
                return [f"{len(terms)} terms, oracle has {len(e['terms'])}"]
            bad = [
                (a, b) for a, b in zip(terms, e["terms"])
                if a[1] != b[1] or abs(a[0] - b[0]) > 1e-9
            ]
            return [f"term {bad[0][0]} != oracle {bad[0][1]}"] if bad else []
        if command == "check-matrix":
            h1 = got["standard_hypothesis"]
            h2 = got["strong_interaction_hypothesis"]
            problems = []
            if h1["holds"] != e["h1"] or {v["condition"] for v in h1["violations"]} != e["h1_failed"]:
                problems.append("standard hypothesis report differs from the oracle")
            h2_failed = {"invertible"} if e["h2"] is None else e["h2_failed"]
            if h2["holds"] != bool(e["h2"]) or {v["condition"] for v in h2["violations"]} != h2_failed:
                problems.append("strong-interaction report differs from the oracle")
            return problems
        if command == "pohozaev":
            problems = []
            if not _close(got["residual"], e["residual"], 1e-12):
                problems.append(f"residual {got['residual']!r} != {e['residual']!r}")
            bad = {tuple(v["indices"])[0] for v in got["minimal_mass"]["violations"]}
            if bad != {i for i, ok in enumerate(e["minimal_mass"]) if not ok}:
                problems.append("minimal-mass violations differ from the oracle")
            sigma = got["hypersurface"]["sigma"]
            if any(not _close(a, b, 1e-12) for a, b in zip(sigma, e["hypersurface_sigma"])):
                problems.append("hypersurface masses differ from the oracle")
            scale = max(1.0, sum(x * x for x in sigma))
            if abs(got["hypersurface"]["residual"]) > 1e-9 * scale:
                problems.append("hypersurface masses are off the quadric")
            return problems
        raise AssertionError(command)

    def decompose(self, i, req, out) -> None:
        from liouville.config import load_config

        tr = self.ctx.tr
        with tr.span("config.load"):
            cfg = load_config(req["path"])
        if req["command"] == "pohozaev":
            pohozaev_call(cfg, tr)

    def peak_rss_mb(self) -> float:
        return self.peak_kb / 1024.0


def pohozaev_call(cfg, tr) -> None:
    """What the pohozaev command computes, called in-process."""
    import liouville as L

    with tr.span("pohozaev.call"):
        masses = L.MassVector(cfg.sigma, cfg.mu)
        L.pohozaev_residual(cfg.matrix, masses)
        L.minimal_mass_check(cfg.matrix, masses)
        L.solve_mass_on_hypersurface(cfg.matrix, cfg.mu, cfg.direction)


def make(name: str, ctx: Context):
    if name == "cli_cold":
        return CliWorkload(ctx)
    if name == "degree_generic":
        return DegreeWorkload(ctx, generators.degree_generic)
    if name == "degree_lattice":
        return DegreeWorkload(ctx, generators.degree_lattice)
    if name == "solve_torus":
        return SolveWorkload(ctx)
    raise ValueError(name)


IMPORT_PROBE = (
    "import json, sys, time; t = time.perf_counter(); import liouville.cli; "
    "t = time.perf_counter() - t; "
    "print(json.dumps({'s': t, 'modules': len(sys.modules), "
    "'scipy': int('scipy' in sys.modules)}))"
)
PROBE_RESOLUTIONS = (64, 128, 256)


def probe(ctx: Context) -> dict:
    """Fixed, seed-independent inputs that touch every layer once.

    Timings land as spans under request ids "probe:..."; the exact
    counts are returned. Raises Wrong if an answer is wrong.
    """
    import liouville as L
    from liouville.config import load_config

    ctx.trace_round(True)
    tr = ctx.tracer
    counts: dict = {}

    cli = CliWorkload(ctx)
    interp, imports = [], []
    for _ in range(3):
        interp.append(cli.run_child([sys.executable, "-c", "pass"])[0])
        _, code, stdout, _ = cli.run_child([sys.executable, "-c", IMPORT_PROBE])
        if code != 0:
            raise Wrong("import liouville.cli failed in a fresh interpreter")
        imports.append(json.loads(stdout))
    counts["cli.interp_ms"] = 1e3 * sorted(interp)[1]
    counts["cli.import_ms"] = 1e3 * sorted(x["s"] for x in imports)[1]
    counts["cli.modules_loaded"] = imports[-1]["modules"]
    counts["cli.scipy_loaded"] = imports[-1]["scipy"]

    cfg_path = ctx.workdir / "probe_degree.json"
    cfg_path.write_text(json.dumps(generators.PROBE_DEGREE_CONFIG))
    req = {"command": "degree", "path": str(cfg_path), "expect": generators.PROBE_DEGREE_EXPECT}
    tr.request = "probe:cli"
    _, _, out = cli.execute(0, req)
    if cli.check(req, out) != OK:
        raise Wrong(f"probe degree command failed: {out['stderr']}")
    for _ in range(5):
        cli.decompose(0, req, out)
    poh_path = ctx.workdir / "probe_pohozaev.json"
    poh_path.write_text(json.dumps(generators.PROBE_POHOZAEV_CONFIG))
    poh = load_config(poh_path)
    for _ in range(5):
        pohozaev_call(poh, tr)

    degree = DegreeWorkload(ctx, None)
    gammas = generators.PROBE_GENERIC_GAMMAS
    q = generators.PROBE_GENERIC_Q
    generic = {
        "kind": "degree", "chi": 0, "gammas": gammas, "matrix": [[1.0]],
        "rho": [8.0 * math.pi * q],
        "expect": generators.degree_expect(0, gammas, q),
    }
    specials = [
        {"kind": "torus_special", "gammas": g, "matrix": [[0.0, 1.0], [1.0, 0.0]],
         "expect": {"degree": oracles.torus_special_degree(g), "q": sum(g) / 2.0}}
        for g in ([1.0, 2.0], [1.0, 2.0, 4.0])
    ]
    tr.request = "probe:degree"
    for req in [generic] + specials:
        _, _, out = degree.execute(0, req)
        if degree.check(req, out) != OK:
            raise Wrong(f"probe degree request refused: {out}")
        degree.decompose(0, req, out)
    s = L.SingularitySet(tuple(gammas))
    counts["spectrum.candidates"] = (math.ceil(oracles.CAP) + 1) * 2 ** len(gammas)
    counts["spectrum.levels"] = len(L.enumerate_spectrum(s, oracles.CAP).levels)
    counts["series.terms"] = len(L.build_generating_function(0, s, oracles.CAP).sorted_terms())

    solve = SolveWorkload(ctx)
    by_m = {}
    for m in PROBE_RESOLUTIONS:
        req = {"config": generators.probe_solve_config(m)}
        solve.prepare([req])
        tr.request = f"probe:solve{m}"
        ctx.fft.take()
        _, _, out = solve.execute(0, req)
        if solve.check(req, out) != OK:
            raise Wrong(f"probe solve at M={m} failed: {out}")
        calls, nbytes = ctx.fft.take()
        solve.decompose(0, req, out)
        by_m[m] = {
            "newton_iters": sum(out["summary"]["newton_iterations"]),
            "fft_calls": calls,
            "fft_bytes": nbytes,
            "bytes_written": len(out["bin"]) + len(out["csv"]),
        }
    first = by_m[PROBE_RESOLUTIONS[0]]
    counts["solver.newton_iters"] = first["newton_iters"]
    counts["solver.fft_calls"] = first["fft_calls"]
    counts["solver.fft_bytes"] = first["fft_bytes"]
    counts["fieldio.bytes_written"] = first["bytes_written"]
    counts["solve_probe_by_resolution"] = by_m
    return counts
