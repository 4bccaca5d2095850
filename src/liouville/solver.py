"""Spectral solver for the coupled mean field system on the unit flat torus.

The system

    Delta u_i + sum_j a_ij rho_j (h_j e^{u_j} / <h_j e^{u_j}> - 1) = 0

is discretized on a uniform M x M grid over [0,1)^2 with mean-zero
unknowns. Derivatives are exact on grid modes (FFT), integrals use the
equal-weight quadrature (spectrally accurate on the torus), and the
nonlinear system is path-followed in the total mass with a damped
inexact Newton iteration whose linear solves are GMRES, right-preconditioned
by the inverse Laplacian. The solver only operates strictly below the first
critical energy level, where solutions stay bounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .degree import ProblemInstance, normalized_energy
from .errors import (
    DensityOverflow,
    NegativeGamma,
    NoConvergence,
    NumericOverflow,
    StepFailure,
    ZeroMassDensity,
)
from .spectrum import SingularitySet, check_integer, check_real, check_reals

__all__ = [
    "TorusGrid",
    "FieldSet",
    "WeightSpec",
    "SolverOptions",
    "StepDiagnostics",
    "SolveResult",
    "SolutionReport",
    "green_function",
    "build_weights",
    "residual",
    "functional_J",
    "functional_gradient",
    "solve_continuation",
    "verify_solution",
]

FloatGrid = NDArray[np.float64]

MEAN_ZERO_TOL = 1e-12

DEFAULT_RESOLUTION = 64

# Bounds that keep one solve's memory and running time finite.
MAX_RESOLUTION = 1024
MAX_STEPS = 10_000

# Fixed numerics of the continuation. They are read at call time, so a
# test can patch them on this module.
T_START = 0.1  # the first stage solves at T_START * rho
MAX_NEWTON = 40  # Newton iterations per stage
GMRES_RTOL = 1e-10  # tightest true relative residual of a Newton direction
ETA_MAX = 0.1  # loosest one: the first direction of each stage
MAX_KRYLOV = 200  # Arnoldi steps per direction; the basis holds one more
DAMPING_FLOOR = 1e-6  # smallest backtracking step before StepFailure


def check_resolution(m) -> int:
    """The grid size m as an int; ValueError unless it is a positive even
    integer at most MAX_RESOLUTION."""
    m = check_integer(m, "resolution")
    if m <= 0 or m % 2 != 0 or m > MAX_RESOLUTION:
        raise ValueError(
            f"resolution must be a positive even integer at most "
            f"{MAX_RESOLUTION}, got {m}"
        )
    return m


class TorusGrid:
    """Uniform M x M grid on the unit flat torus with spectral calculus.

    Wavenumbers are the integer FFT modes per axis (from -M/2 up to
    M/2 - 1); the quadrature weight per node is 1/M^2, so the torus has
    volume 1. The Laplacian and its inverse act on the last two axes, so
    they take one (M, M) field or an (n, M, M) stack alike. Fields are
    real, so they run on real transforms: the last axis keeps only the
    wavenumbers 0..M/2, the other half being the complex conjugate.
    """

    def __init__(self, resolution: int = DEFAULT_RESOLUTION) -> None:
        self.resolution = m = check_resolution(resolution)
        axis = np.arange(m) / m
        self.x, self.y = np.meshgrid(axis, axis, indexing="ij")
        k = np.rint(np.fft.fftfreq(m, d=1.0 / m)).astype(np.int64)
        self.wavenumbers = k
        # Symbol of the Laplacian on the half spectrum: -4 pi^2 |k|^2.
        kx = k.astype(np.float64)[:, None]
        ky = np.arange(m // 2 + 1, dtype=np.float64)[None, :]
        self._symbol = -4.0 * math.pi**2 * (kx**2 + ky**2)
        inv = np.zeros_like(self._symbol)
        nz = self._symbol != 0.0
        inv[nz] = 1.0 / self._symbol[nz]
        self._inv_symbol = inv
        # Columns 1..M/2-1 stand for their conjugates too; the k_y = 0 and
        # Nyquist columns are their own.
        count = np.full(m // 2 + 1, 2.0)
        count[[0, -1]] = 1.0
        self._gradient_weight = -self._symbol * count / float(m) ** 4
        for arr in (self.x, self.y, k, self._symbol, inv,
                    self._gradient_weight):
            arr.setflags(write=False)

    def laplacian(self, f: FloatGrid) -> FloatGrid:
        return self._apply(self._symbol, f)

    def inverse_laplacian(self, f: FloatGrid) -> FloatGrid:
        """Solve Delta g = f - <f> with <g> = 0 (zero mode annihilated)."""
        return self._apply(self._inv_symbol, f)

    def _apply(self, symbol: np.ndarray, f: FloatGrid) -> FloatGrid:
        m = self.resolution
        return np.fft.irfft2(np.fft.rfft2(f) * symbol, s=(m, m))

    def gradient_inner(self, f: FloatGrid, g: FloatGrid) -> float:
        """Integral of grad f . grad g over the torus, via the mode sums."""
        return self._mode_inner(np.fft.rfft2(f), np.fft.rfft2(g))

    def _mode_inner(self, fh: np.ndarray, gh: np.ndarray) -> float:
        """gradient_inner(f, g) from fh = rfft2(f) and gh = rfft2(g)."""
        return float(np.sum(self._gradient_weight * np.real(fh * np.conj(gh))))

    def __repr__(self) -> str:
        return f"TorusGrid(resolution={self.resolution})"


@dataclass(frozen=True)
class FieldSet:
    """Mean-zero unknowns u_1..u_n sampled on the grid."""

    values: FloatGrid

    def __post_init__(self) -> None:
        values = check_reals(self.values, "field", ("n", "M", "M"))
        # The rounding error of a mean grows with the field's size. An
        # overflowing sum gives an infinite mean, which fails below.
        with np.errstate(over="ignore"):
            means = values.mean(axis=(1, 2))
        worst = float(np.max(np.abs(means)))
        size = max(1.0, values.max(), -values.min())
        tol = MEAN_ZERO_TOL * float(size)
        if worst > tol:
            raise ValueError(
                f"component mean {worst:.3e} exceeds the mean-zero "
                f"tolerance {tol:.3g}"
            )
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def resolution(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class WeightSpec:
    """Weights h_i = g_i * prod_l w(x - p_l)^{gamma_l}.

    ``smooth_factors`` holds one entry per component: None (constant 1),
    a positive scalar, an (M, M) array, or a callable of the two grid
    coordinate arrays.
    """

    smooth_factors: tuple
    singularities: SingularitySet

    @classmethod
    def uniform(cls, n: int, singularities: SingularitySet | None = None) -> "WeightSpec":
        return cls(
            tuple([None] * n),
            singularities if singularities is not None else SingularitySet.empty(),
        )


def green_function(grid: TorusGrid, q: tuple[float, float]) -> FloatGrid:
    """Mean-zero Green's function of -Delta with pole at q.

    G(x, q) = sum over nonzero grid modes of
    exp(2 pi i k.(x-q)) / (4 pi^2 |k|^2); the real part makes the
    kernel even in x - q, hence symmetric in its arguments.
    """
    m2 = float(grid.resolution) ** 2
    k = grid.wavenumbers
    k2 = (k[:, None] ** 2 + k[None, :] ** 2).astype(np.float64)
    inv = np.divide(
        1.0, 4.0 * math.pi**2 * k2, out=np.zeros_like(k2), where=k2 != 0.0
    )
    return np.real(np.fft.ifft2(_phase(grid, q) * inv * m2))


def band_limited_source(grid: TorusGrid, q: tuple[float, float]) -> FloatGrid:
    """Projection of delta_q - 1 onto the grid modes; -Delta G equals it."""
    m2 = float(grid.resolution) ** 2
    coeffs = _phase(grid, q) * m2
    coeffs[0, 0] = 0.0
    return np.real(np.fft.ifft2(coeffs))


def _phase(grid: TorusGrid, q: tuple[float, float]) -> np.ndarray:
    """Mode factors exp(-2 pi i k.q) of a unit point mass at q."""
    qx, qy = float(q[0]) % 1.0, float(q[1]) % 1.0
    k = grid.wavenumbers
    return np.exp(-2j * math.pi * (k[:, None] * qx + k[None, :] * qy))


def singular_weight(grid: TorusGrid, p: tuple[float, float]) -> FloatGrid:
    """Canonical periodic factor vanishing quadratically at p:
    w(z) = (sin^2(pi z1) + sin^2(pi z2)) / pi^2, so w ~ |z|^2 near p."""
    z1 = grid.x - float(p[0])
    z2 = grid.y - float(p[1])
    return (np.sin(math.pi * z1) ** 2 + np.sin(math.pi * z2) ** 2) / math.pi**2


def build_weights(w: WeightSpec, grid: TorusGrid) -> FloatGrid:
    """Evaluate the n weight functions h_i on the grid.

    Raises
    ------
    NegativeGamma
        If some strength is negative: the quadrature cannot handle an
        unbounded integrand.
    """
    m = grid.resolution
    rows = []
    for i, factor in enumerate(w.smooth_factors):
        rows.append(_evaluate_smooth_factor(factor, f"smooth_factors[{i}]", grid))
    h = np.stack(rows) if rows else np.zeros((0, m, m))
    sing = w.singularities
    if sing.count:
        for l, gamma in enumerate(sing.gammas):
            if gamma < 0.0:
                raise NegativeGamma(
                    f"gamma[{l}] = {gamma!r} is negative, outside solver scope"
                )
        if sing.positions is None:
            raise ValueError("solver weights need singular positions")
        wrapped = [(px % 1.0, py % 1.0) for px, py in sing.positions]
        if len(set(wrapped)) != len(wrapped):
            raise ValueError("singular positions coincide on the torus")
        factor = np.ones((m, m))
        for (px, py), gamma in zip(wrapped, sing.gammas):
            factor = factor * singular_weight(grid, (px, py)) ** gamma
        h = h * factor[None, :, :]
    return h


def _evaluate_smooth_factor(factor, name: str, grid: TorusGrid) -> FloatGrid:
    """The factor on the grid; ValueError unless it is a positive number
    or an (M, M) array of them."""
    m = grid.resolution
    if factor is None:
        return np.ones((m, m))
    if callable(factor):
        factor = factor(grid.x, grid.y)
    grid_shaped = isinstance(factor, (list, tuple)) or np.ndim(factor)
    arr = check_reals(factor, name, (m, m) if grid_shaped else (), 0.0)
    return arr if grid_shaped else np.full((m, m), float(arr))


def _require_shape(p: ProblemInstance, grid: TorusGrid, **arrays) -> None:
    """ValueError unless each named array has the shape (n, M, M) of the
    instance's n components on the grid."""
    shape = (p.matrix.n, grid.resolution, grid.resolution)
    for name, arr in arrays.items():
        if np.shape(arr) != shape:
            raise ValueError(
                f"{name} has shape {np.shape(arr)}, expected {shape} for the "
                f"{p.matrix.n}-component system on this grid"
            )


def _require_torus_problem(p: ProblemInstance, w: WeightSpec) -> None:
    """ValueError unless the instance lives on the flat torus and the
    weights carry the instance's own source strengths."""
    if p.surface.chi != 0:
        raise ValueError("the solver runs on the flat torus only (chi must be 0)")
    if w.singularities.gammas != p.singularities.gammas:
        raise ValueError("the weights carry other sources than the instance")


def _coupling(p: ProblemInstance, t: float = 1.0) -> FloatGrid:
    """The coupling a_ij t rho_j at the mass t * rho."""
    return p.matrix.entries * (t * p.rho)[None, :]


def _density(h: FloatGrid, u: FloatGrid) -> tuple[FloatGrid, FloatGrid]:
    """Densities h_i e^{u_i} and their quadratures <h_i e^{u_i}>,
    unchecked: a quadrature may be infinite, NaN or zero."""
    with np.errstate(over="ignore", invalid="ignore"):
        dens = h * np.exp(u)
        return dens, dens.mean(axis=(1, 2))


def _require_mass(means: FloatGrid) -> None:
    """DensityOverflow unless every quadrature <h_i e^{u_i}> is finite,
    ZeroMassDensity unless every one is positive."""
    if not np.all(np.isfinite(means)):
        bad = int(np.argmin(np.isfinite(means)))
        raise DensityOverflow(
            f"<h_{bad} e^(u_{bad})> overflowed: the quadrature exceeds the "
            "double range"
        )
    if np.any(means <= 0.0):
        bad = int(np.argmin(means))
        raise ZeroMassDensity(
            f"<h_{bad} e^(u_{bad})> = {float(means[bad])!r} is not positive"
        )


def residual(
    u: FieldSet, p: ProblemInstance, h: FloatGrid, grid: TorusGrid
) -> FieldSet:
    """Equation residual R_i = Delta u_i + sum_j a_ij rho_j
    (h_j e^{u_j}/<h_j e^{u_j}> - 1); its analytic mean is zero.

    Raises
    ------
    ValueError
        If u or h is not (n, M, M) for the instance and the grid.
    ZeroMassDensity
        If some quadrature <h_j e^{u_j}> is not positive; its subclass
        DensityOverflow if one exceeds the double range.
    """
    _require_shape(p, grid, field=u.values, weights=h)
    r, _, _, means = _evaluate(u.values, _coupling(p), h, grid)
    _require_mass(means)
    return FieldSet(r)


def functional_J(
    u: FieldSet, p: ProblemInstance, h: FloatGrid, grid: TorusGrid
) -> float:
    """Variational energy
    J = (1/2) sum_ij a^{ij} int grad u_i . grad u_j - sum_i rho_i log <h_i e^{u_i}>.

    The quadratic part is evaluated through the mode sums, which makes
    the solver residual its exact discrete Euler-Lagrange gradient.
    Raises as ``residual`` does.
    """
    _require_shape(p, grid, field=u.values, weights=h)
    _, means = _density(h, u.values)
    _require_mass(means)
    return _energy(u.values, p, means, grid)


def _energy(
    values: FloatGrid, p: ProblemInstance, means: FloatGrid, grid: TorusGrid
) -> float:
    """functional_J from the quadratures means = <h_i e^{u_i}> of values."""
    inv = p.matrix.inverse()
    modes = np.fft.rfft2(values)
    quad = 0.0
    # Summed row-major over the nonzero a^{ij}, from one transform per component.
    for i, j in zip(*np.nonzero(inv)):
        quad += inv[i, j] * grid._mode_inner(modes[i], modes[j])
    return 0.5 * float(quad) - float(np.sum(p.rho * np.log(means)))


def functional_gradient(
    u: FieldSet, p: ProblemInstance, h: FloatGrid, grid: TorusGrid
) -> FloatGrid:
    """First variation of J against mean-zero directions:
    V_i = sum_j a^{ij} (-Delta u_j) - rho_i (h_i e^{u_i}/<h_i e^{u_i}> - 1).

    Applying the coupling matrix A to V recovers -R(u) identically.
    Raises as ``residual`` does.
    """
    _require_shape(p, grid, field=u.values, weights=h)
    dens, means = _density(h, u.values)
    _require_mass(means)
    forcing = dens / means[:, None, None] - 1.0
    return (
        -np.einsum("ij,jxy->ixy", p.matrix.inverse(), grid.laplacian(u.values))
        - p.rho[:, None, None] * forcing
    )


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-8
    steps: int = 10

    def __post_init__(self) -> None:
        object.__setattr__(self, "tol", check_real(self.tol, "tol", 0.0))
        object.__setattr__(self, "steps", check_integer(self.steps, "steps"))
        if not 1 <= self.steps <= MAX_STEPS:
            raise ValueError(f"steps must be at least 1 and at most {MAX_STEPS}")


@dataclass(frozen=True)
class StepDiagnostics:
    t: float
    newton_iterations: int
    residual_history: tuple[float, ...]
    max_norm: float


@dataclass(frozen=True)
class SolveResult:
    fields: FieldSet
    steps: tuple[StepDiagnostics, ...]
    residual_norm: float


def solve_continuation(
    p: ProblemInstance,
    w: WeightSpec,
    grid: TorusGrid,
    opts: SolverOptions = SolverOptions(),
) -> SolveResult:
    """Path-follow the mass from T_START * rho up to rho, solving each
    stage with damped Newton. From the second stage on, Newton starts
    from the secant through the last two solutions, the first of which
    may be u = 0 at t = 0; if that start fails, the stage runs again
    from the previous solution.

    Raises
    ------
    ValueError
        If the instance is not on the flat torus, the weights carry
        other sources than the instance, or the target energy is not
        strictly below the first critical level (the solver's validity
        region).
    NoConvergence
        If a Newton stage exhausts its iteration budget.
    StepFailure
        If backtracking hits the damping floor without reducing the
        residual.
    NumericOverflow
        If the energy or a stage's starting residual norm leaves the
        double range.
    """
    _require_torus_problem(p, w)
    q = normalized_energy(p.rho, p.matrix)
    # The lowest candidate level: one regular blow-up point or one source.
    n1 = min((1.0, *p.singularities.mus))
    if q >= n1:
        raise ValueError(
            f"normalized energy q = {q!r} is not strictly below the first "
            f"critical level n_1 = {n1!r}; the solver only runs subcritically"
        )
    h = build_weights(w, grid)
    _require_shape(p, grid, weights=h)
    m = grid.resolution
    # u = 0 solves t = 0 exactly, so it stands for the stage before the first.
    u = u_before = np.zeros((p.matrix.n, m, m))
    t_last = t_before = 0.0
    diagnostics: list[StepDiagnostics] = []
    schedule = (
        np.array([1.0])
        if opts.steps == 1
        else np.linspace(T_START, 1.0, opts.steps)
    )
    for stage, t in enumerate(schedule):
        t = float(t)
        coupling = _coupling(p, t)
        start = u
        if stage > 0:
            start = u + (t - t_last) / (t_last - t_before) * (u - u_before)
            start -= start.mean(axis=(1, 2))[:, None, None]
        try:
            solved, step_diag = _newton_stage(start, t, coupling, h, grid, opts.tol)
        except (NumericOverflow, StepFailure, NoConvergence):
            if start is u:
                raise
            # A long extrapolation can leave Newton's basin even where its
            # residual is lower than the previous solution's.
            solved, step_diag = _newton_stage(u, t, coupling, h, grid, opts.tol)
        t_before, u_before, t_last, u = t_last, u, t, solved
        diagnostics.append(step_diag)
    final_norm = diagnostics[-1].residual_history[-1]
    return SolveResult(FieldSet(u), tuple(diagnostics), final_norm)


def _l2_norm(r: FloatGrid, m: int) -> float:
    return float(np.sqrt(np.sum(r * r)) / m)


def _evaluate(
    u: FloatGrid, coupling: FloatGrid, h: FloatGrid, grid: TorusGrid
) -> tuple[FloatGrid, float, FloatGrid, FloatGrid]:
    """Residual of u for the coupling and its norm, with the density and
    means they were built from; ``residual``, ``verify_solution`` and the
    Newton stage evaluate here. Unchecked: callers handle non-finite values."""
    dens, means = _density(h, u)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        forcing = dens / means[:, None, None] - 1.0
        r = np.einsum("ij,jxy->ixy", coupling, forcing) + grid.laplacian(u)
        return r, _l2_norm(r, grid.resolution), dens, means


def _newton_stage(
    u: FloatGrid,
    t: float,
    coupling: FloatGrid,
    h: FloatGrid,
    grid: TorusGrid,
    tol: float,
) -> tuple[FloatGrid, StepDiagnostics]:
    r, rnorm, dens, means = _evaluate(u, coupling, h, grid)
    if not math.isfinite(rnorm):
        raise NumericOverflow(
            f"stage t = {t:g} starts at residual norm {rnorm!r}; the "
            f"masses or the coupling are too large for double precision"
        )
    history = [rnorm]
    eta = ETA_MAX
    while rnorm > tol:
        if len(history) > MAX_NEWTON:
            raise NoConvergence(
                f"stage t = {t:g} still at residual {rnorm:.3e} after "
                f"{MAX_NEWTON} Newton iterations",
                rnorm,
            )
        if len(history) > 1:
            # Eisenstat-Walker choice 2 (SIAM J. Sci. Comput. 17 (1996)
            # 16-32): as loose as the last contraction allows. Their safeguard
            # 0.9 eta_prev^2 acts only past eta_prev = 1/3, which only the
            # floor below reaches, and that floor rises as |r| falls.
            eta = min(ETA_MAX, 0.9 * (rnorm / history[-2]) ** 2)
        # Solving below 0.5 tol / |r| buys nothing: the step then meets tol.
        eta = max(eta, GMRES_RTOL, 0.5 * tol / rnorm)
        delta = _newton_direction(dens, means, coupling, grid, -r, eta)
        # Backtrack: halve the step until the residual decreases; the
        # accepted trial and its evaluation become the next iterate.
        lam = 1.0
        while lam >= DAMPING_FLOOR:
            trial = u + lam * delta
            trial -= trial.mean(axis=(1, 2))[:, None, None]
            evaluated = _evaluate(trial, coupling, h, grid)
            if evaluated[1] < rnorm:  # false for a NaN or inf norm
                break
            lam *= 0.5
        else:
            raise StepFailure(
                f"stage t = {t:g}: no residual decrease above the damping "
                f"floor {DAMPING_FLOOR:g} (residual {rnorm:.3e})"
            )
        u = trial
        r, rnorm, dens, means = evaluated
        history.append(rnorm)
    return u, StepDiagnostics(
        t, len(history) - 1, tuple(history), float(np.max(np.abs(u)))
    )


def _newton_direction(
    dens: FloatGrid,
    means: FloatGrid,
    coupling: FloatGrid,
    grid: TorusGrid,
    rhs: FloatGrid,
    rtol: float,
) -> FloatGrid:
    """Newton step delta with J delta = rhs to rtol relative,
    right-preconditioned in w = Delta delta: one inverse Laplacian per
    Krylov step and one more for delta = Delta^{-1} w, and GMRES stops on
    the true residual."""

    def operator(w: FloatGrid) -> FloatGrid:
        delta = grid.inverse_laplacian(w)
        weighted = dens * delta
        inner = weighted.mean(axis=(1, 2))
        # Derivative of h_j e^{u_j}/<h_j e^{u_j}> in direction delta_j.
        term = (
            weighted / means[:, None, None]
            - dens * (inner / means**2)[:, None, None]
        )
        return w + np.einsum("ij,jxy->ixy", coupling, term)

    w, _, _ = _gmres(operator, rhs, rtol, MAX_KRYLOV)
    # An inexact direction is acceptable: backtracking rejects bad steps.
    return grid.inverse_laplacian(w)


def _gmres(operator, b: np.ndarray, rtol: float, max_steps: int):
    """One GMRES cycle of at most max_steps Arnoldi steps (Saad-Schultz
    1986; Saad, Iterative Methods for Sparse Linear Systems, Alg. 6.9)
    with modified Gram-Schmidt and Givens rotations. Stops once the
    residual |g_k| <= rtol ||b||. Returns x, the step count and that
    residual, which is ||operator(x) - b|| up to rounding."""
    beta = math.sqrt(float(np.vdot(b, b)))
    if beta == 0.0:
        return np.zeros_like(b), 0, 0.0
    basis = [b / beta]  # grows one vector per step, never preallocated
    columns: list[list[float]] = []
    rotations: list[tuple[float, float]] = []
    g = [beta]
    while True:
        w = operator(basis[-1])
        column = []
        for v in basis:
            coef = float(np.vdot(v, w))
            w = w - coef * v
            column.append(coef)
        below = math.sqrt(float(np.vdot(w, w)))
        for j, (c, s) in enumerate(rotations):
            column[j], column[j + 1] = (
                c * column[j] + s * column[j + 1],
                c * column[j + 1] - s * column[j],
            )
        radius = math.hypot(column[-1], below)
        c, s = column[-1] / radius, below / radius
        rotations.append((c, s))
        column[-1] = radius
        columns.append(column)
        g.append(-s * g[-1])
        g[-2] *= c
        k = len(columns)
        if abs(g[-1]) <= rtol * beta or k == max_steps:
            break
        basis.append(w / below)
    r = np.zeros((k, k))
    for j, column in enumerate(columns):
        r[: j + 1, j] = column
    y = np.linalg.solve(r, g[:k])
    return sum(coef * v for coef, v in zip(y, basis)), k, abs(g[-1])


@dataclass(frozen=True)
class SolutionReport:
    residual_l2: tuple[float, ...]
    residual_means: tuple[float, ...]
    field_means: tuple[float, ...]
    normalized_masses: tuple[float, ...]
    functional_value: float
    residual_norm: float


def verify_solution(
    u: FieldSet, p: ProblemInstance, w: WeightSpec, grid: TorusGrid
) -> SolutionReport:
    """Consistency report for a candidate solution: per-component
    residual sizes, mean defects, the masses <h_i e^{v_i}> after the
    normalizing shift v_i = u_i - log<h_i e^{u_i}> (each must be 1), and
    the functional value. Raises as ``residual`` does, and as
    ``solve_continuation`` does for an instance and weights it cannot
    solve."""
    _require_torus_problem(p, w)
    h = build_weights(w, grid)
    values = u.values
    _require_shape(p, grid, field=values, weights=h)
    r, rnorm, _, means = _evaluate(values, _coupling(p), h, grid)
    _require_mass(means)
    _, masses = _density(h, values - np.log(means)[:, None, None])
    return SolutionReport(
        residual_l2=tuple(np.sqrt(np.mean(r**2, axis=(1, 2))).tolist()),
        residual_means=tuple(r.mean(axis=(1, 2)).tolist()),
        field_means=tuple(values.mean(axis=(1, 2)).tolist()),
        normalized_masses=tuple(masses.tolist()),
        functional_value=_energy(values, p, means, grid),
        residual_norm=rnorm,
    )
