"""Tests for the benchmark's generators and oracles, and a smoke run.

Run from the root of the repository:

    python -m pytest perfbench -q
"""

import itertools
import json
import math
import random
import subprocess
import sys
from pathlib import Path

import pytest

import generators
import oracles
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(6)


def generalized_binomial(n: int, k: int) -> int:
    return math.prod(n - i for i in range(k)) // math.factorial(k)


@pytest.mark.parametrize("chi", [2, 1, 0, -1, -2, -3])
def test_no_source_degree_is_the_chen_lin_ladder(chi):
    for k in range(12):
        assert oracles.degree(chi, [], k + 0.5) == generalized_binomial(k - chi, k)


def test_torus_closed_form():
    assert oracles.torus_special_degree([1.0, 2.0]) == 3
    assert oracles.torus_special_degree([1.0, 2.0, 4.0]) == 15
    # The DFS route agrees at the forced energy q = (sum gamma) / 2.
    assert oracles.degree(0, [1.0, 2.0], 1.5) == 3
    assert oracles.degree(0, [1.0, 2.0, 4.0], 3.5) == 15


@pytest.mark.parametrize("gammas", [[0.37], [0.5, 0.5, 1.0], [0.31, 0.77, 1.9, 0.5]])
def test_levels_match_itertools_enumeration(gammas):
    values = sorted({
        m + sum(1.0 + g for g in subset)
        for r in range(len(gammas) + 1)
        for subset in itertools.combinations(gammas, r)
        for m in range(21)
    })
    expected = []
    for v in values:
        if 0.0 < v <= 20.0 and (not expected or v - expected[-1] > 1e-9):
            expected.append(v)
    assert oracles.levels(gammas).tolist() == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("chi,gammas", [(2, [0.41, 1.3]), (0, [0.5, 0.5, 2.0]), (-2, [0.2, 0.9, 1.7])])
def test_degree_is_the_partial_sum_of_the_series(chi, gammas):
    terms = oracles.series_terms(chi, gammas)
    for q in (0.7, 2.3, 5.9, 13.1):
        assert oracles.degree(chi, gammas, q) == sum(c for v, c in terms if v < q)


def degree_requests(seed):
    pool, over = generators.degree_generic(seed)
    lattice, lattice_over = generators.degree_lattice(seed)
    return [r for r in pool + over + lattice + lattice_over if r["kind"] == "degree"]


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_q_is_off_every_level(seed):
    for req in degree_requests(seed):
        q = oracles.normalized_energy(req["rho"], req["matrix"])
        assert q == pytest.approx(req["expect"]["q"], rel=1e-12)
        assert oracles.level_gap(req["gammas"], q) > 100 * oracles.CRITICAL_TOL
    gap = oracles.level_gap(generators.PROBE_GENERIC_GAMMAS, generators.PROBE_GENERIC_Q)
    assert gap > 100 * oracles.CRITICAL_TOL


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_matrices_are_labelled_correctly(seed):
    rng = random.Random(seed)
    for n in (1, 2, 3, 4):
        for _ in range(20):
            h = oracles.hypotheses(generators.passing_matrix(rng, n))
            assert h["h1"] and h["h2"]
    for kind, (h1, h2) in generators.FAILING_KINDS.items():
        h = oracles.hypotheses(generators.failing_matrix(rng, kind))
        assert (h["h1"], h["h2"]) == (h1, h2)
    for req in generators.cli_cold(seed):
        if req["command"] == "check-matrix":
            both = req["expect"]["h1"] and req["expect"]["h2"]
            assert req["expect"]["exit"] == (0 if both else 2)


@pytest.mark.parametrize("seed", SEEDS)
def test_torus_special_inputs_meet_the_preconditions(seed):
    pool, _ = generators.degree_lattice(seed)
    for req in pool:
        if req["kind"] == "torus_special":
            assert all(g >= 1 and g == int(g) for g in req["gammas"])
            assert int(sum(req["gammas"])) % 2 == 1


def test_generators_are_deterministic():
    assert generators.degree_generic(4) == generators.degree_generic(4)
    assert generators.solve_torus(4) == generators.solve_torus(4)
    assert generators.cli_cold(4) == generators.cli_cold(4)
    assert generators.solve_torus(4) != generators.solve_torus(5)


def test_round_mix_does_not_depend_on_the_seed():
    def sizes(seed):
        pool, _ = generators.degree_generic(seed)
        return sorted(r["sources"] for r in pool)

    assert sizes(1) == sizes(2)
    solve = [sorted((r["resolution"], r["components"]) for r in generators.solve_torus(s))
             for s in (1, 2)]
    assert solve[0] == solve[1]


def test_a_wrong_degree_is_caught():
    req = degree_requests(0)[0]
    e = req["expect"]
    answer = {
        "degree": e["degree"], "region": e["region"], "q": e["q"],
        "level_below": e["level_below"], "level_above": e["level_above"],
        "partial": [e["degree"]] + [0] * e["region"],
    }
    check = workloads.DegreeWorkload(None, None).check
    assert check(req, answer) == workloads.OK
    with pytest.raises(workloads.Wrong):
        check(req, {**answer, "degree": e["degree"] + 1})
    assert check(req, {"error": "TooManyLevels"}) == workloads.FAILED


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS


def run_bench(*args):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1", "--smoke", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_smoke_all_workloads():
    final = run_bench("--workload", "all", "--trace", "0")
    assert final["correct"] and final["failed"] == 0
    for workload in run.WORKLOADS:
        for name, unit in run.END_TO_END:
            assert final["metrics"][f"{workload}.{name}"]["unit"] == unit


def test_smoke_traced_reports_every_layer():
    final = run_bench("--workload", "degree_lattice", "--trace", "1")
    assert final["correct"] and final["failed"] == 0
    assert sorted(final["metrics"]) == sorted(name for name, _ in run.PER_LAYER)
