"""Independent oracles for the benchmark.

Nothing here imports the package under test. Each oracle recomputes an
answer from its mathematical definition by a different route than the
package takes:

- degree: a DFS over source sub-multisets S with mu_S < q, summing
  (-1)^|S| times the partial binomial sum of (1-x)^(chi-N) below q - mu_S;
- torus-special degree: the closed form (1/2) prod (1 + gamma_l);
- spectrum and series: brute-force candidate exponents m + mu_S, sorted
  and merged with the package's documented anchor rule;
- matrix hypotheses: sign checks on a numpy inverse;
- Pohozaev: the quadric sigma^T A sigma - 4 mu sum(sigma);
- solver: an FFT residual written here, plus a dump parser written here.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

CAP = 20.0
MERGE_TOL = 1e-9
CRITICAL_TOL = 1e-8
HYP_TOL = 1e-10
COND_CUTOFF = 1e12


def series_base(e: int, top: int) -> list[int]:
    """Coefficients c_0..c_top of (1-x)^e."""
    if e >= 0:
        return [(-1) ** m * math.comb(e, m) if m <= e else 0 for m in range(top + 1)]
    k = -e
    return [math.comb(m + k - 1, k - 1) for m in range(top + 1)]


def signed_subset_sums(mus, limit: float, strict: bool) -> list[tuple[float, int]]:
    """(mu_S, weight) over sub-multisets S with mu_S below ``limit``.

    Equal strengths are grouped, so k copies chosen from a group of c
    contribute C(c, k) (-1)^k; the walk prunes on ascending mu because
    every mu is positive.
    """
    groups = sorted(Counter(float(m) for m in mus).items())
    out: list[tuple[float, int]] = []

    def walk(i: int, s: float, w: int) -> None:
        if i == len(groups):
            out.append((s, w))
            return
        mu, c = groups[i]
        for k in range(c + 1):
            v = s + k * mu
            if (v >= limit) if strict else (v > limit):
                break
            walk(i + 1, v, w * math.comb(c, k) * (-1) ** k)

    walk(0, 0.0, 1)
    return out


def degree(chi: int, gammas, q: float) -> int:
    """Leray-Schauder degree at normalized energy q (q off every level)."""
    mus = [1.0 + g for g in gammas]
    top = math.ceil(q)
    base = series_base(chi - len(mus), top)
    total = 0
    for s, w in signed_subset_sums(mus, q, strict=True):
        # Partial sum of c_m over the integers m with m + s < q.
        m_hi = math.ceil(q - s) - 1
        total += w * sum(base[: m_hi + 1])
    return total


def torus_special_degree(gammas) -> int:
    """Closed form (1/2) prod (1 + gamma_l) for odd-sum integer strengths."""
    return math.prod(1 + int(round(g)) for g in gammas) // 2


def candidates(gammas, cap: float = CAP) -> tuple[np.ndarray, np.ndarray]:
    """Sorted candidate exponents m + mu_S in [0, cap] with their signed
    series weights (chi-independent part: (-1)^|S| multiplicities)."""
    mus = [1.0 + g for g in gammas]
    sums = signed_subset_sums(mus, cap, strict=False)
    s = np.array([v for v, _ in sums])
    w = np.array([x for _, x in sums], dtype=object)
    m = np.arange(math.ceil(cap) + 1, dtype=np.float64)
    values = (m[:, None] + s[None, :]).ravel()
    weights = np.broadcast_to(w[None, :], (m.size, s.size)).ravel()
    ladder = np.repeat(np.arange(m.size), s.size)
    keep = values <= cap
    values, weights, ladder = values[keep], weights[keep], ladder[keep]
    order = np.argsort(values, kind="stable")
    return values[order], np.stack([weights[order], ladder[order]])


def _cluster_starts(values: np.ndarray, tol: float) -> np.ndarray:
    """Start indices of merge clusters under the anchor rule: a value
    joins the open cluster while it is within ``tol`` of its smallest
    member."""
    # Splitting at gaps above tol gives the anchor rule's clusters
    # whenever no gap-cluster spans more than tol; otherwise walk.
    starts = np.flatnonzero(np.concatenate(([True], np.diff(values) > tol)))
    ends = np.append(starts[1:], values.size) - 1
    if np.all(values[ends] - values[starts] <= tol):
        return starts
    out, anchor = [], None
    for i, v in enumerate(values.tolist()):
        if anchor is None or v - anchor > tol:
            out.append(i)
            anchor = v
    return np.array(out)


def levels(gammas, cap: float = CAP, tol: float = MERGE_TOL) -> np.ndarray:
    """Brute-force merged critical levels in (0, cap]."""
    values, _ = candidates(gammas, cap)
    values = values[values > 0.0]
    if values.size == 0:
        return values
    return values[_cluster_starts(values, tol)]


def series_terms(chi: int, gammas, cap: float = CAP, tol: float = MERGE_TOL):
    """Merged (exponent, coefficient) terms of the counting series with
    zero clusters dropped, constant term included."""
    values, extra = candidates(gammas, cap)
    weights, ladder = extra
    base = series_base(chi - len(gammas), math.ceil(cap))
    starts = list(_cluster_starts(values, tol)) + [values.size]
    out = []
    for a, b in zip(starts[:-1], starts[1:]):
        c = sum(int(weights[i]) * base[int(ladder[i])] for i in range(a, b))
        if c != 0:
            out.append((float(values[a]), c))
    return out


def candidate_count(gammas, cap: float = CAP) -> int:
    """Number of pairs (m, S) with m + mu_S <= cap, S a subset of sources."""
    mus = [1.0 + g for g in gammas]
    return sum(
        abs(w) * (math.floor(cap - s) + 1)
        for s, w in signed_subset_sums(mus, cap, strict=False)
    )


def normalized_energy(rho, a) -> float:
    rho = np.asarray(rho, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    return float(rho @ a @ rho) / (8.0 * math.pi * float(rho.sum()))


def region(gammas, q: float, cap: float = CAP):
    """(k, level below, level above) for q between merged levels."""
    lv = levels(gammas, cap)
    k = int(np.searchsorted(lv, q))
    below = 0.0 if k == 0 else float(lv[k - 1])
    return k, below, float(lv[k])


def level_gap(gammas, q: float, cap: float = CAP) -> float:
    """Distance from q to the nearest candidate exponent."""
    values, _ = candidates(gammas, cap)
    i = int(np.searchsorted(values, q))
    near = [abs(q - values[j]) for j in (i - 1, i) if 0 <= j < values.size]
    return min(near)


def hypotheses(a) -> dict:
    """Standard (h1) and strong-interaction (h2) hypotheses on a numpy
    inverse. h2 is None when the matrix is not invertible."""
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    failed1 = set()
    if np.any(np.abs(a - a.T) > HYP_TOL):
        failed1.add("symmetric")
    if np.any(a < -HYP_TOL):
        failed1.add("nonnegative")
    reach = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in np.flatnonzero(a[i] != 0.0):
            if int(j) not in reach:
                reach.add(int(j))
                stack.append(int(j))
    if len(reach) < n:
        failed1.add("irreducible")
    cond = np.linalg.cond(a)
    if not np.isfinite(cond) or cond > COND_CUTOFF:
        failed1.add("invertible")
        return {"h1": False, "h1_failed": failed1, "h2": None, "h2_failed": set()}
    failed2 = set()
    if n > 1:
        inv = np.linalg.solve(a, np.eye(n))
        off = inv - np.diag(np.diag(inv))
        if np.any(np.diag(inv) > HYP_TOL):
            failed2.add("inverse-diagonal")
        if np.any(off < -HYP_TOL):
            failed2.add("inverse-offdiagonal")
        if np.any(inv.sum(axis=1) < -HYP_TOL):
            failed2.add("inverse-row-sum")
    return {
        "h1": not failed1,
        "h1_failed": failed1,
        "h2": not failed2,
        "h2_failed": failed2,
    }


def pohozaev_residual(a, sigma, mu: float) -> float:
    s = np.asarray(sigma, dtype=np.float64)
    return float(s @ np.asarray(a, dtype=np.float64) @ s - 4.0 * mu * s.sum())


def torus_weights(m: int, gammas, positions) -> np.ndarray:
    """h = prod_l ((sin^2 pi(x-p) + sin^2 pi(y-p)) / pi^2)^gamma_l on the grid."""
    axis = np.arange(m) / m
    x, y = np.meshgrid(axis, axis, indexing="ij")
    h = np.ones((m, m))
    for g, (px, py) in zip(gammas, positions):
        if g:
            d2 = (np.sin(math.pi * (x - px)) ** 2 + np.sin(math.pi * (y - py)) ** 2)
            h = h * (d2 / math.pi**2) ** g
    return h


def torus_residual(u: np.ndarray, a, rho, gammas, positions) -> float:
    """Discrete L2 norm of Delta u_i + sum_j a_ij rho_j (h e^u_j/<h e^u_j> - 1)."""
    n, m, _ = u.shape
    k = np.fft.fftfreq(m, d=1.0 / m)
    symbol = -4.0 * math.pi**2 * (k[:, None] ** 2 + k[None, :] ** 2)
    lap = np.fft.ifftn(np.fft.fftn(u, axes=(1, 2)) * symbol, axes=(1, 2)).real
    dens = torus_weights(m, gammas, positions)[None] * np.exp(u)
    forcing = dens / dens.mean(axis=(1, 2))[:, None, None] - 1.0
    coeff = np.asarray(a, dtype=np.float64) * np.asarray(rho, dtype=np.float64)[None, :]
    r = lap + np.tensordot(coeff, forcing, axes=(1, 0))
    return float(np.sqrt(np.sum(r * r)) / m)


def normalized_masses(u: np.ndarray, gammas, positions) -> np.ndarray:
    """<h e^v> with v = u - log<h e^u>; each is 1 for any finite u."""
    h = torus_weights(u.shape[1], gammas, positions)[None]
    shifted = u - np.log((h * np.exp(u)).mean(axis=(1, 2)))[:, None, None]
    return (h * np.exp(shifted)).mean(axis=(1, 2))


def parse_dump(data: bytes) -> np.ndarray:
    """Binary field dump: ASCII "n M\\n" header, then little-endian f8."""
    head, _, payload = data.partition(b"\n")
    n, m = (int(t) for t in head.split())
    if len(payload) != n * m * m * 8:
        raise ValueError("dump payload size does not match its header")
    return np.frombuffer(payload, dtype="<f8").reshape(n, m, m)


def parse_csv(text: str, n: int, m: int) -> np.ndarray:
    """CSV dump: header, then one "x,y,u1..un" row per node, row-major."""
    lines = text.splitlines()
    if lines[0] != "x,y," + ",".join(f"u{i + 1}" for i in range(n)):
        raise ValueError("unexpected CSV header")
    rows = np.array([[float(t) for t in ln.split(",")] for ln in lines[1:]])
    if rows.shape != (m * m, n + 2):
        raise ValueError("unexpected CSV shape")
    axis = np.arange(m) / m
    if not (np.array_equal(rows[:, 0], np.repeat(axis, m))
            and np.array_equal(rows[:, 1], np.tile(axis, m))):
        raise ValueError("CSV coordinates are not the grid nodes")
    return rows[:, 2:].T.reshape(n, m, m)
