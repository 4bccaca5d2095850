"""Benchmark for the liouville package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload degree_generic --seed 1 --seconds 20 --trace 0

Workloads: cli_cold, degree_generic, degree_lattice, solve_torus, or
``all``. Each is a closed loop with one client in one process; the
inputs are generated from ``--seed`` and every answer is checked
against the benchmark's own oracles. Requests run in whole rounds of a
fixed pool until ``--seconds`` of request time have been measured.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
plain and traced rounds, runs a fixed probe set, and reports the
per-layer metrics (spans are written to .perfbench_out/). The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 1 if any answer
disagrees with an oracle, 2 if the package cannot be found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

# BLAS/OpenMP pools stay at one thread, so the load is one client on one
# core. main() sets them before numpy is first imported; children inherit them.
THREAD_VARS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}

WORKLOADS = ("cli_cold", "degree_generic", "degree_lattice", "solve_torus")
SETUP_SAMPLES = 5

# (name, unit); must match BENCHMARK.json.
END_TO_END = (
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("throughput_rps", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# Timed per-layer metrics: name -> (span, scale to the unit).
TIMED = {
    "config.load_ms": ("config.load", 1e3),
    "matrix.check_ms": ("matrix.check", 1e3),
    "spectrum.enumerate_ms": ("spectrum.enumerate", 1e3),
    "spectrum.locate_ms": ("spectrum.locate", 1e3),
    "series.build_ms": ("series.build", 1e3),
    "degree.call_ms": ("degree.call", 1e3),
    "degree.torus_special_ms": ("degree.torus_special", 1e3),
    "pohozaev.call_ms": ("pohozaev.call", 1e3),
    "solver.grid_ms": ("solver.grid", 1e3),
    "solver.weights_ms": ("solver.weights", 1e3),
    "solver.residual_ms": ("solver.residual", 1e3),
    "solver.laplacian_us": ("solver.laplacian", 1e6),
    "solver.solve_s": ("solver.solve", 1.0),
    "solver.verify_ms": ("solver.verify", 1e3),
    "fieldio.write_bin_ms": ("fieldio.write_bin", 1e3),
    "fieldio.write_csv_ms": ("fieldio.write_csv", 1e3),
    "fieldio.read_ms": ("fieldio.read", 1e3),
}
PER_LAYER = (
    ("cli.interp_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.modules_loaded", "count"),
    ("cli.scipy_loaded", "count"),
    ("config.load_ms", "ms"),
    ("matrix.check_ms", "ms"),
    ("spectrum.enumerate_ms", "ms"),
    ("spectrum.locate_ms", "ms"),
    ("spectrum.candidates", "count"),
    ("spectrum.levels", "count"),
    ("series.build_ms", "ms"),
    ("series.terms", "count"),
    ("degree.call_ms", "ms"),
    ("degree.self_ms", "ms"),
    ("degree.torus_special_ms", "ms"),
    ("pohozaev.call_ms", "ms"),
    ("solver.grid_ms", "ms"),
    ("solver.weights_ms", "ms"),
    ("solver.residual_ms", "ms"),
    ("solver.laplacian_us", "us"),
    ("solver.solve_s", "s"),
    ("solver.verify_ms", "ms"),
    ("solver.newton_iters", "count"),
    ("solver.fft_calls", "count"),
    ("solver.fft_bytes", "B"),
    ("fieldio.write_bin_ms", "ms"),
    ("fieldio.write_csv_ms", "ms"),
    ("fieldio.read_ms", "ms"),
    ("fieldio.bytes_written", "B"),
    ("trace.overhead_pct", "%"),
)
DEGREE_PARTS = ("matrix.check", "spectrum.enumerate", "series.build", "spectrum.locate")


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(THREAD_VARS)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(body: str, env: dict, root: Path, samples: int) -> list[float]:
    """Seconds for a fresh interpreter to import the package and build
    the workload's program-side state, timed inside the child."""
    code = f"import time; t = time.perf_counter(); {body}; print(repr(time.perf_counter() - t))"
    out = []
    for _ in range(samples):
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=root,
                              capture_output=True, text=True, timeout=120, check=True)
        out.append(float(done.stdout.strip()))
    return out


def environment(root: Path, seed: int) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "liouville").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": THREAD_VARS,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def run_workload(name: str, args, root: Path, tracer, fft) -> dict:
    import workloads as wl

    workdir = root / ".perfbench_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ctx = wl.Context(root, workdir, child_env(root), tracer, fft)
        w = wl.make(name, ctx)
        pool, over_cap = w.generate(args.seed, args.smoke)
        w.prepare(pool)
        setup = measure_setup(w.setup_body, ctx.env, root, 1 if args.smoke else SETUP_SAMPLES)

        plain: dict = {i: [] for i in range(len(pool))}
        traced: dict = {i: [] for i in range(len(pool))}
        canonical: dict = {}
        status: dict = {}
        wrong: list[str] = []
        attempted = failed = 0
        busy = 0.0
        rounds = 0
        while rounds < (2 if args.trace else 1) or busy < args.seconds:
            on = bool(args.trace) and rounds % 2 == 1
            ctx.trace_round(on)
            for i, req in enumerate(pool):
                tracer.request = i
                latency, canon, out = w.execute(i, req)
                busy += latency
                attempted += 1
                if i not in canonical:
                    canonical[i] = canon
                    try:
                        status[i] = w.check(req, out)
                    except wl.Wrong as exc:
                        status[i] = "wrong"
                        wrong.append(f"request {i}: {exc}")
                elif canon != canonical[i]:
                    wrong.append(f"request {i}: output differs from its first run")
                if status[i] == wl.FAILED:
                    failed += 1
                elif status[i] == wl.OK:
                    (traced if on else plain)[i].append(latency)
                if on:
                    w.decompose(i, req, out)
            rounds += 1
        peak_rss = w.peak_rss_mb()

        ctx.trace_round(False)
        over = {"attempted": 0, "refused": 0, "answered": 0, "sources": []}
        for req in over_cap:
            _, _, out = w.execute(-1, req)
            over["attempted"] += 1
            over["sources"].append(req["sources"])
            try:
                if w.check(req, out) == wl.OK:
                    over["answered"] += 1
                else:
                    over["refused"] += 1
            except wl.Wrong as exc:
                wrong.append(f"over-cap request ({req['sources']} sources): {exc}")

        ok_latencies = [x for xs in plain.values() for x in xs]
        digest = hashlib.sha256(b"".join(canonical[i] for i in sorted(canonical)))
        end_to_end = {"setup_s": statistics.median(setup), "peak_rss_mb": peak_rss}
        if ok_latencies:  # none when every answer failed or was wrong
            end_to_end.update(
                latency_ms_p50=1e3 * percentile(ok_latencies, 0.5),
                latency_ms_p90=1e3 * percentile(ok_latencies, 0.9),
                throughput_rps=len(ok_latencies) / sum(ok_latencies),
            )
        result = {
            "workload": name,
            "seed": args.seed,
            "rounds": rounds,
            "pool": len(pool),
            "attempted": attempted,
            "failed": failed,
            "fail_ratio": f"{failed}/{attempted}",
            "wrong": wrong,
            "over_cap": over,
            "digest": digest.hexdigest(),
            "samples": len(ok_latencies),
            "setup_samples": setup,
            "end_to_end": end_to_end,
        }
        if args.trace:
            result["per_layer"] = per_layer(wl.probe(ctx), tracer, plain, traced)
            out_dir = root / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            tracer.dump(out_dir / f"spans-{name}-seed{args.seed}.json")
        return result
    except wl.Wrong as exc:
        return {"workload": name, "wrong": [f"probe: {exc}"], "attempted": 1, "failed": 0}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def per_layer(counts: dict, tracer, plain: dict, traced: dict) -> dict:
    out = {}
    sources = {}
    for metric, (span, scale) in TIMED.items():
        value, sources[metric] = tracer.median(span)
        out[metric] = scale * value
    # Self time of the degree call: the call minus the standalone layer
    # calls on the same inputs, per request, then the median.
    for probe in (False, True):
        calls = tracer.per_request("degree.call", probe)
        if calls:
            parts = [tracer.per_request(p, probe) for p in DEGREE_PARTS]
            selfs = [
                statistics.median(calls[r]) - sum(statistics.median(p[r]) for p in parts)
                for r in calls
                if all(r in p for p in parts)
            ]
            out["degree.self_ms"] = 1e3 * statistics.median(selfs)
            sources["degree.self_ms"] = "probe" if probe else "workload"
            break
    for metric, _ in PER_LAYER:
        if metric in counts:
            out[metric] = counts[metric]
            sources.setdefault(metric, "probe")
    # Tracing overhead: traced against plain latency of the same request.
    ratios = [
        statistics.median(traced[i]) / statistics.median(plain[i])
        for i in plain
        if plain[i] and traced[i]
    ]
    if ratios:  # none when every answer failed
        out["trace.overhead_pct"] = 100.0 * (statistics.median(ratios) - 1.0)
        sources["trace.overhead_pct"] = "workload"
    out["_sources"] = sources
    out["_solve_probe_by_resolution"] = counts["solve_probe_by_resolution"]
    return out


def report(result: dict, trace: int) -> list[str]:
    lines = [
        f"# workload {result['workload']}  seed {result.get('seed')}  "
        f"rounds {result.get('rounds')} x {result.get('pool')} requests  "
        f"samples {result.get('samples')}  fail_ratio {result.get('fail_ratio')}  "
        f"over-cap refused {result.get('over_cap', {}).get('refused')}"
        f"/{result.get('over_cap', {}).get('attempted')}"
    ]
    for key, unit in END_TO_END:
        if key in result.get("end_to_end", {}):
            lines.append(f"#   {key:<16} {result['end_to_end'][key]:14.4f} {unit}")
    if trace and "per_layer" in result:
        for key, unit in PER_LAYER:
            if key in result["per_layer"]:
                lines.append(f"#   {key:<26} {result['per_layer'][key]:16.4f} {unit}")
    for msg in result.get("wrong", []):
        lines.append(f"# WRONG: {msg}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny pools and one set-up sample, for a quick check")
    args = parser.parse_args(argv)
    os.environ.update(THREAD_VARS)

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "liouville" / "__init__.py").is_file():
        print(f"error: no liouville package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    from spans import FftCounter, NullTracer, Tracer

    if args.trace:
        tracer, fft = Tracer(), FftCounter()
        fft.install()  # before the package binds any FFT function
    else:
        tracer, fft = NullTracer(), None
    import liouville

    if not Path(liouville.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: liouville resolved outside {src}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        if args.trace:
            tracer.spans.clear()
        results.append(run_workload(name, args, root, tracer, fft))
    env = environment(root, args.seed)
    for result in results:
        for line in report(result, args.trace):
            print(line)
        print("report: " + json.dumps({**result, "environment": env}, sort_keys=True))

    correct = not any(r.get("wrong") for r in results)
    kind = "per_layer" if args.trace else "end_to_end"
    units = dict(PER_LAYER if args.trace else END_TO_END)
    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else f"{r['workload']}."
        for key, unit in units.items():
            if key in r.get(kind, {}):
                metrics[prefix + key] = {"value": r[kind][key], "unit": unit}
    final = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(final))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
