"""Seeded input generators for the benchmark workloads.

Every generator draws from ``random.Random(seed)`` only, so a seed fixes
the inputs. The seed changes the values (strengths, matrices, energies,
positions); the mix of request sizes in a round is fixed per workload,
so the cost profile of a round and the percentiles it yields stay put
from seed to seed. Expected outcomes come from ``oracles``, never from
the package under test.
"""

from __future__ import annotations

import math
import random

import oracles

# q stays this far from every candidate exponent: far beyond the
# critical tolerance, far below the spacing of any generated spectrum.
Q_MARGIN = 1e-6

# (surface config, Euler characteristic).
SURFACES = (
    ({"type": "closed", "genus": 0}, 2),
    ({"type": "domain", "holes": 0}, 1),
    ({"type": "closed", "genus": 1}, 0),
    ({"chi": -1}, -1),
    ({"type": "closed", "genus": 2}, -2),
)
TORUS = {"type": "closed", "genus": 1}

# Largest d_max/d_min for which D (J - I) D keeps inverse row sums >= 0:
# (n - 1) / (n - 2), taken with a margin.
_SPREAD = {2: 3.0, 3: 1.9, 4: 1.4}


def passing_matrix(rng: random.Random, n: int) -> list[list[float]]:
    """A matrix satisfying both hypotheses by construction."""
    if n == 1:
        return [[rng.uniform(0.5, 2.0)]]
    if n == 2:
        b = rng.uniform(0.5, 2.0)
        return [[rng.uniform(0.0, 0.8) * b, b], [b, 0.0]] if rng.random() < 0.5 else \
            [[0.0, b], [b, rng.uniform(0.0, 0.8) * b]]
    c = rng.uniform(0.5, 2.0)
    d = [rng.uniform(1.0, _SPREAD[n]) for _ in range(n)]
    return [[0.0 if i == j else c * d[i] * d[j] for j in range(n)] for i in range(n)]


# kind -> (h1 holds, h2 holds or None when the matrix is singular).
FAILING_KINDS = {
    "diagonal-dominant": (True, False),
    "reducible": (False, False),
    "negative": (False, False),
    "asymmetric": (False, True),
    "singular": (False, None),
}


def failing_matrix(rng: random.Random, kind: str) -> list[list[float]]:
    """A 2x2 matrix breaking the hypotheses as FAILING_KINDS labels it."""
    b = rng.uniform(0.5, 2.0)
    if kind == "diagonal-dominant":
        a = b * rng.uniform(1.5, 3.0)
        return [[a, b], [b, a]]
    if kind == "reducible":
        return [[b, 0.0], [0.0, rng.uniform(0.5, 2.0)]]
    if kind == "negative":
        return [[0.0, b], [b, -rng.uniform(0.5, 2.0)]]
    if kind == "asymmetric":
        return [[0.0, b], [b + rng.uniform(0.5, 1.0), 0.0]]
    if kind == "singular":
        return [[b, b], [b, b]]
    raise ValueError(kind)


def rho_for(rng: random.Random, a, q: float) -> list[float]:
    """Masses along a random positive direction with normalized energy q."""
    n = len(a)
    d = [rng.uniform(0.5, 1.5) for _ in range(n)]
    quad = sum(a[i][j] * d[i] * d[j] for i in range(n) for j in range(n))
    t = 8.0 * math.pi * q * sum(d) / quad
    return [t * x for x in d]


def pick_q(rng: random.Random, gammas, lo: float, hi: float) -> float:
    while True:
        q = rng.uniform(lo, hi)
        if oracles.level_gap(gammas, q) > Q_MARGIN:
            return q


def degree_expect(chi: int, gammas, q: float) -> dict:
    k, below, above = oracles.region(gammas, q)
    return {
        "degree": oracles.degree(chi, gammas, q),
        "region": k,
        "q": q,
        "level_below": below,
        "level_above": above,
    }


def degree_case(rng: random.Random, n_sources: int, gammas, chi=None) -> dict:
    """A leray_schauder_degree request with its oracle answer."""
    surface, drawn = rng.choice(SURFACES)
    if chi is None:
        chi = drawn
    else:
        surface = {"chi": chi}
    a = passing_matrix(rng, rng.randint(1, 4))
    q = pick_q(rng, gammas, 0.5, 19.5)
    return {
        "kind": "degree",
        "sources": n_sources,
        "chi": chi,
        "surface": surface,
        "gammas": list(gammas),
        "matrix": a,
        "rho": rho_for(rng, a, q),
        "expect": degree_expect(chi, gammas, q),
    }


def torus_special_case(rng: random.Random, n_sources: int) -> dict:
    """A torus_special_degree request: positive integer strengths, odd sum."""
    gammas = [float(rng.choice((1, 2, 3))) for _ in range(n_sources)]
    if int(sum(gammas)) % 2 == 0:
        gammas[-1] += 1.0
    return {
        "kind": "torus_special",
        "sources": n_sources,
        "gammas": gammas,
        "matrix": passing_matrix(rng, rng.randint(1, 4)),
        "expect": {
            "degree": oracles.torus_special_degree(gammas),
            "q": sum(gammas) / 2.0,
        },
    }


def generic_gammas(rng: random.Random, n: int) -> list[float]:
    return [rng.uniform(0.3, 0.7) for _ in range(n)]


# Candidates below the cap, m + mu_S <= cap, vary eightfold with the
# palette at a fixed N, and the merge work grows with them; a slot of N
# sources keeps its count within 10% of this target.
LATTICE_CANDIDATES = {10: 8_000, 12: 20_000, 13: 33_000, 15: 100_000}


def lattice_gammas(rng: random.Random, n: int) -> list[float]:
    """Integers and half-integers from a small palette, so values repeat."""
    target = LATTICE_CANDIDATES.get(n)
    while True:
        # One half-integer in the palette puts the levels on the half-integer
        # grid, so every instance has about the same number of levels.
        palette = [rng.choice((0.5, 1.5, 2.5))] + rng.sample((0.0, 1.0, 2.0, 3.0), 2)
        gammas = [rng.choice(palette) for _ in range(n)]
        if target is None or abs(oracles.candidate_count(gammas) / target - 1.0) <= 0.1:
            return gammas


# Source counts per round. Sorted by cost, the median falls inside the
# N = 10 block and the 90th percentile inside the N = 11 block, away from
# block edges; each block is large enough that its percentile rests on
# dozens of samples per run.
GENERIC_SIZES = [6] * 3 + [7] * 3 + [8] * 3 + [9] * 3 + [10] * 14 + [11] * 14
# Refused at the parent (TooManyLevels): run once per run, outside the timed loop.
GENERIC_OVER_CAP = [16, 16]


def degree_generic(seed: int, smoke: bool = False):
    rng = random.Random(seed)
    sizes = [6, 8, 10] if smoke else GENERIC_SIZES
    pool = [degree_case(rng, n, generic_gammas(rng, n)) for n in sizes]
    over = [degree_case(rng, n, generic_gammas(rng, n)) for n in GENERIC_OVER_CAP]
    rng.shuffle(pool)
    return pool, over


# Sorted by cost: the torus_special calls and small instances, then ten
# N = 10 instances holding the median, then N = 12/13, then six N = 15
# instances holding the 90th percentile. torus_special stays at N <= 8 so
# its cap (which grows with the total strength) cannot push it into the
# expensive blocks.
LATTICE_DEGREE_SIZES = [4, 5, 6, 7, 7] + [10] * 10 + [12, 13] * 4 + [13] + [15] * 6
LATTICE_SPECIAL_SIZES = [2, 3, 4, 5, 5, 6, 6, 7, 8, 8]
# (sources, chi): chi stays high enough that every coefficient fits in
# int64 once these are answered, since |coefficient| <= 2^N C(cap+K-1, K-1).
LATTICE_OVER_CAP = [(16, 0), (20, 1), (24, 2)]


def degree_lattice(seed: int, smoke: bool = False):
    rng = random.Random(seed)
    degree_sizes = [4, 9] if smoke else LATTICE_DEGREE_SIZES
    special_sizes = [3] if smoke else LATTICE_SPECIAL_SIZES
    pool = [degree_case(rng, n, lattice_gammas(rng, n)) for n in degree_sizes]
    pool += [torus_special_case(rng, n) for n in special_sizes]
    over = [degree_case(rng, n, lattice_gammas(rng, n), chi) for n, chi in LATTICE_OVER_CAP]
    rng.shuffle(pool)
    return pool, over


def _sources(rng: random.Random, count: int, integer: bool) -> list[dict]:
    out = []
    for _ in range(count):
        g = float(rng.randint(0, 3)) if integer else round(rng.uniform(0.1, 2.5), 6)
        out.append({"gamma": g})
    return out


def cli_cold(seed: int, smoke: bool = False) -> list[dict]:
    """One fresh CLI process per request: (command, config, expectation)."""
    rng = random.Random(seed)
    pool = []

    def add(command, config, expect):
        pool.append({"command": command, "config": config, "expect": expect})

    def instance_config(n_src, integer):
        surface, chi = rng.choice(SURFACES)
        sources = _sources(rng, n_src, integer)
        gammas = [s["gamma"] for s in sources]
        a = passing_matrix(rng, rng.randint(1, 3))
        return {"matrix": a, "surface": surface, "singularities": sources}, chi, gammas

    # Degree, answered.
    cfg, chi, gammas = instance_config(rng.randint(0, 4), rng.random() < 0.5)
    q = pick_q(rng, gammas, 0.5, 19.5)
    cfg["rho"] = rho_for(rng, cfg["matrix"], q)
    add("degree", cfg, {"exit": 0, **degree_expect(chi, gammas, q)})
    # Degree on a matrix breaking the hypotheses.
    cfg, _, _ = instance_config(rng.randint(0, 4), True)
    kind = rng.choice(sorted(FAILING_KINDS))
    cfg["matrix"] = failing_matrix(rng, kind)
    cfg["rho"] = [rng.uniform(5.0, 40.0) for _ in range(2)]
    add("degree", cfg, {"exit": 2, "error": "HypothesisViolation"})
    # Degree exactly on an integer level.
    a = rng.uniform(0.5, 2.0)
    level = float(rng.randint(1, 5))
    cfg = {"matrix": [[a]], "surface": rng.choice(SURFACES)[0],
           "singularities": _sources(rng, rng.randint(0, 4), False),
           "rho": [8.0 * math.pi * level / a]}
    add("degree", cfg, {"exit": 3, "error": "OnCriticalSurface"})
    if smoke:
        return pool
    for _ in range(2):
        cfg, _, gammas = instance_config(rng.randint(0, 4), rng.random() < 0.5)
        cap = rng.choice((None, 8.0, 12.0))
        if cap is not None:
            cfg["caps"] = {"exponent_cap": cap}
        levels = oracles.levels(gammas, cap or oracles.CAP)
        add("spectrum", cfg, {"exit": 0, "cap": cap or oracles.CAP,
                              "levels": [float(v) for v in levels]})
    for _ in range(2):
        cfg, chi, gammas = instance_config(rng.randint(0, 4), rng.random() < 0.5)
        add("series", cfg, {"exit": 0, "chi": chi,
                            "terms": oracles.series_terms(chi, gammas)})
    a = passing_matrix(rng, rng.randint(2, 4))
    add("check-matrix", {"matrix": a}, {"exit": 0, **oracles.hypotheses(a)})
    a = failing_matrix(rng, rng.choice(sorted(FAILING_KINDS)))
    add("check-matrix", {"matrix": a}, {"exit": 2, **oracles.hypotheses(a)})
    a = passing_matrix(rng, rng.randint(2, 4))
    n = len(a)
    mu = rng.uniform(1.0, 3.0)
    sigma = [rng.uniform(0.5, 5.0) for _ in range(n)]
    direction = [rng.uniform(0.5, 1.5) for _ in range(n)]
    # The multiple of direction on the quadric: t = 4 mu sum(d) / d^T A d.
    t = 4.0 * mu * sum(direction) / sum(
        a[i][j] * direction[i] * direction[j] for i in range(n) for j in range(n))
    add("pohozaev", {"matrix": a, "sigma": sigma, "mu": mu, "direction": direction},
        {"exit": 0, "residual": oracles.pohozaev_residual(a, sigma, mu),
         "minimal_mass": [sum(a[i][j] * sigma[j] for j in range(n)) > 2.0 * mu
                          for i in range(n)],
         "hypersurface_sigma": [t * x for x in direction]})
    rng.shuffle(pool)
    return pool


# (resolution, components) per request in a round. Sorted by cost, the
# median falls inside the six M = 128 single-component requests and the
# 90th percentile inside the six M = 256 ones, away from block edges.
SOLVE_CLASSES = (
    [(64, 1)] * 3 + [(64, 2)] * 3 + [(128, 1)] * 6 + [(128, 2)] * 2 + [(256, 1)] * 6
)
SOLVE_TOL = 1e-8
SOLVE_STEPS = 3


def solve_torus(seed: int, smoke: bool = False) -> list[dict]:
    """Subcritical torus solves.

    Within a class, q is stratified over [0.2, 0.8] and every request has
    as many sources as components, so a class costs about the same for
    every seed.
    """
    rng = random.Random(seed)
    classes = [(32, 1), (32, 2)] if smoke else SOLVE_CLASSES
    counts = {c: classes.count(c) for c in classes}
    seen = {c: 0 for c in classes}
    pool = []
    for cls in classes:
        m, n = cls
        j = seen[cls]
        seen[cls] += 1
        q = 0.2 + 0.6 * (j + rng.uniform(0.3, 0.7)) / counts[cls]
        a = passing_matrix(rng, n)
        sources = []
        positions = set()
        while len(sources) < n:
            p = (round(rng.random(), 6), round(rng.random(), 6))
            if p not in positions:
                positions.add(p)
                sources.append({"gamma": round(rng.uniform(0.8, 1.2), 6),
                                "position": list(p)})
        config = {
            "matrix": a,
            "surface": TORUS,
            "singularities": sources,
            "rho": rho_for(rng, a, q),
            "solver": {"resolution": m, "tol": SOLVE_TOL, "steps": SOLVE_STEPS},
        }
        pool.append({"resolution": m, "components": n, "config": config})
    rng.shuffle(pool)
    return pool


# Fixed, seed-independent probe inputs (the README examples).
PROBE_DEGREE_CONFIG = {
    "matrix": [[0.0, 1.0], [1.0, 0.0]],
    "surface": {"type": "closed", "genus": 1},
    "singularities": [
        {"gamma": 1.0, "position": [0.5, 0.5]},
        {"gamma": 2.0, "position": [0.25, 0.75]},
    ],
    "rho": [37.69911184307752, 37.69911184307752],
    "solver": {"resolution": 64, "tol": 1e-8, "steps": 10},
    "caps": {"exponent_cap": 20.0, "tolerance": 1e-8},
}
PROBE_DEGREE_EXPECT = {"exit": 0, **degree_expect(0, [1.0, 2.0], 1.5)}


def probe_solve_config(resolution: int) -> dict:
    return {
        "matrix": [[1.0]],
        "surface": {"chi": 0},
        "singularities": [{"gamma": 1.0, "position": [0.5, 0.5]}],
        "rho": [12.566370614359172],
        "solver": {"resolution": resolution, "tol": 1e-8, "steps": 10},
    }


# Fractional parts of square roots of primes: rationally independent,
# so no two subset sums coincide.
PROBE_GENERIC_GAMMAS = [
    math.sqrt(p) % 1.0 for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
]
PROBE_GENERIC_Q = 7.25
PROBE_POHOZAEV_CONFIG = {
    "matrix": [[0.0, 1.0], [1.0, 0.0]],
    "sigma": [4.0, 4.0],
    "mu": 2.0,
    "direction": [1.0, 2.0],
}
