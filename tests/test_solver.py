"""Spectral torus solver: calculus, weights, residual, energy, solves.

Oracles here are independent of the FFT pipeline: the Green's function
is checked against a literal lattice sum over the same mode set, the
Laplacian against closed-form eigenfunctions, and a converged singular
solve against a five-point finite-difference operator whose residual
must shrink at the grid-squared rate.
"""

import hashlib
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from liouville import (
    FieldSet,
    InteractionMatrix,
    NegativeGamma,
    NoConvergence,
    ProblemInstance,
    SingularitySet,
    SolverOptions,
    StepFailure,
    SurfaceSpec,
    TorusGrid,
    WeightSpec,
    ZeroMassDensity,
    build_weights,
    enumerate_spectrum,
    functional_J,
    functional_gradient,
    green_function,
    residual,
    solve_continuation,
    verify_solution,
)
from liouville import solver
from liouville.config import load_config
from liouville.solver import (
    MAX_RESOLUTION,
    MAX_STEPS,
    band_limited_source,
    singular_weight,
)

TORUS = SurfaceSpec.torus()


def scalar_problem(rho: float, singularities=None) -> ProblemInstance:
    s = singularities if singularities is not None else SingularitySet.empty()
    return ProblemInstance(TORUS, s, InteractionMatrix([[1.0]]), (rho,))


def band_limited_noise(
    grid: TorusGrid, rng: np.random.Generator, scale: float = 0.5
) -> np.ndarray:
    """Smooth mean-zero field: inverse Laplacian of white noise."""
    raw = grid.inverse_laplacian(rng.standard_normal((grid.resolution,) * 2))
    return scale * raw / max(1e-30, float(np.abs(raw).max()))


# ------------------------------------------------------------------- grid


def test_grid_requires_positive_even_resolution():
    with pytest.raises(ValueError):
        TorusGrid(0)
    with pytest.raises(ValueError):
        TorusGrid(33)
    with pytest.raises(ValueError):
        TorusGrid(MAX_RESOLUTION + 2)


@pytest.mark.parametrize(
    "resolution", [64.9, math.nan, math.inf], ids=["fraction", "nan", "inf"]
)
def test_grid_refuses_a_resolution_that_is_not_whole(resolution):
    with pytest.raises(
        ValueError, match=f"resolution must be an integer, got {resolution}"
    ):
        TorusGrid(resolution)


def test_laplacian_is_exact_on_fourier_modes():
    grid = TorusGrid(32)
    rng = np.random.default_rng(1)
    modes = []
    for _ in range(10):
        kx, ky = int(rng.integers(-8, 9)), int(rng.integers(-8, 9))
        if kx == 0 and ky == 0:
            continue
        mode = np.cos(2.0 * math.pi * (kx * grid.x + ky * grid.y))
        expected = -4.0 * math.pi**2 * (kx * kx + ky * ky) * mode
        got = grid.laplacian(mode)
        assert np.max(np.abs(got - expected)) <= 1e-9 * (
            1.0 + np.max(np.abs(expected))
        )
        modes.append(mode)
    # The solver applies both operators to (n, M, M) stacks at once; each
    # slice must come out bit for bit as if transformed alone.
    stack = np.stack(modes)
    for op in (grid.laplacian, grid.inverse_laplacian):
        per_slice = np.stack([op(mode) for mode in modes])
        assert op(stack).tobytes() == per_slice.tobytes()


def test_inverse_laplacian_inverts_on_mean_zero_fields():
    grid = TorusGrid(32)
    rng = np.random.default_rng(2)
    u = band_limited_noise(grid, rng)
    back = grid.inverse_laplacian(grid.laplacian(u))
    assert np.max(np.abs(back - u)) <= 1e-10


def test_gradient_inner_matches_integration_by_parts():
    grid = TorusGrid(32)
    rng = np.random.default_rng(3)
    f = band_limited_noise(grid, rng)
    g = band_limited_noise(grid, rng)
    lhs = grid.gradient_inner(f, g)
    rhs = -np.mean(grid.laplacian(f) * g)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


# --------------------------------------------------------------- FieldSet


def test_fieldset_rejects_nonzero_means():
    with pytest.raises(ValueError):
        FieldSet(np.full((1, 8, 8), 0.5))


def test_residual_of_a_large_field_keeps_its_rounded_mean():
    # The residual's means round to about 1.6e-12 here, at an L2 size of 3e5.
    u = 10.0 * np.random.default_rng(0).standard_normal((2, 64, 64))
    u -= u.mean(axis=(1, 2), keepdims=True)
    grid = TorusGrid(64)
    p = ProblemInstance(
        SurfaceSpec.torus(),
        SingularitySet.empty(),
        InteractionMatrix([[0.0, 1.0], [1.0, 0.0]]),
        (4.0, 4.0),
    )
    h = build_weights(WeightSpec.uniform(2), grid)
    r = residual(FieldSet(u), p, h, grid)
    assert np.all(np.isfinite(r.values))


@pytest.mark.parametrize(
    "entries",
    [
        {(0, 1, 2): math.nan},
        {(1, 0, 0): math.inf},
        {(0, 3, 3): math.inf, (0, 5, 6): -math.inf},
    ],
    ids=["nan", "inf", "plus-minus-inf"],
)
def test_fieldset_rejects_non_finite_values(entries):
    # NaN and a +inf/-inf pair give a NaN mean, which the mean check alone passes.
    values = np.zeros((2, 8, 8))
    for index, value in entries.items():
        values[index] = value
    first = min(entries)
    where = "field" + "".join(f"[{i}]" for i in first)
    message = f"{where} must be a real number, finite, got {entries[first]!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        FieldSet(values)


def test_fieldset_zeros_constructor():
    f = FieldSet(np.zeros((2, 8, 8)))
    assert f.n == 2
    assert f.resolution == 8
    assert np.all(f.values == 0.0)


def test_fieldset_values_are_read_only():
    f = FieldSet(np.zeros((1, 8, 8)))
    with pytest.raises(ValueError):
        f.values[0, 0, 0] = 1.0


# --------------------------------------------------------- Green function


def test_green_function_has_zero_mean():
    grid = TorusGrid(32)
    g = green_function(grid, (0.3, 0.7))
    assert abs(float(g.mean())) <= 1e-12


def test_green_function_is_symmetric_in_its_arguments():
    grid = TorusGrid(32)
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(10):
        i1, j1, i2, j2 = (int(v) for v in rng.integers(0, 32, size=4))
        if (i1, j1) == (i2, j2):
            continue
        q1 = (i1 / 32.0, j1 / 32.0)
        q2 = (i2 / 32.0, j2 / 32.0)
        a = green_function(grid, q1)[i2, j2]
        b = green_function(grid, q2)[i1, j1]
        worst = max(worst, abs(a - b))
    assert worst <= 1e-12


def test_green_function_matches_the_lattice_sum():
    grid = TorusGrid(16)
    q = (0.0, 0.0)
    x = (0.5, 0.5)
    modes = np.rint(np.fft.fftfreq(16, d=1.0 / 16)).astype(int)
    total = 0.0
    for kx in modes:
        for ky in modes:
            if kx == 0 and ky == 0:
                continue
            total += math.cos(
                2.0 * math.pi * (kx * (x[0] - q[0]) + ky * (x[1] - q[1]))
            ) / (4.0 * math.pi**2 * (kx * kx + ky * ky))
    got = green_function(grid, q)[8, 8]
    assert abs(got - total) <= 1e-12


def test_negative_laplacian_of_green_is_the_projected_source():
    grid = TorusGrid(32)
    q = (0.25, 0.5)
    g = green_function(grid, q)
    src = band_limited_source(grid, q)
    assert np.max(np.abs(-grid.laplacian(g) - src)) <= 1e-9 * np.max(
        np.abs(src)
    )


def meshgrid_green_and_source(m: int, q) -> tuple[np.ndarray, np.ndarray]:
    """green_function and band_limited_source written over full M x M
    integer wavenumber meshgrids, as the grid once stored them."""
    k = np.rint(np.fft.fftfreq(m, d=1.0 / m)).astype(np.int64)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    qx, qy = float(q[0]) % 1.0, float(q[1]) % 1.0
    phase = np.exp(-2j * math.pi * (kx * qx + ky * qy))
    m2 = float(m) ** 2
    k2 = (kx**2 + ky**2).astype(np.float64)
    inv = np.divide(
        1.0, 4.0 * math.pi**2 * k2, out=np.zeros_like(k2), where=k2 != 0.0
    )
    coeffs = phase * m2
    coeffs[0, 0] = 0.0
    return np.real(np.fft.ifft2(phase * inv * m2)), np.real(np.fft.ifft2(coeffs))


@pytest.mark.parametrize("m", [8, 16, 64])
def test_broadcast_wavenumbers_give_the_meshgrid_bytes(m):
    grid = TorusGrid(m)
    # On grid, off grid, and outside [0, 1)^2.
    for q in [(0.0, 0.0), (0.5, 0.25), (0.3, 0.71), (1 / 3, 2 / 7), (-0.2, 1.37)]:
        green, source = meshgrid_green_and_source(m, q)
        assert green_function(grid, q).tobytes() == green.tobytes()
        assert band_limited_source(grid, q).tobytes() == source.tobytes()


# ----------------------------------------------------------------- weights


def test_uniform_weights_are_identically_one():
    grid = TorusGrid(16)
    w = WeightSpec.uniform(2)
    h = build_weights(w, grid)
    assert h.shape == (2, 16, 16)
    assert np.all(h == 1.0)


def test_zero_strength_factor_is_absorbed():
    grid = TorusGrid(16)
    s = SingularitySet((0.0,), positions=((0.25, 0.25),))
    h = build_weights(WeightSpec.uniform(1, s), grid)
    assert np.all(h == 1.0)


def test_singular_weight_vanishes_quadratically():
    for m in (16, 32, 64, 128):
        grid = TorusGrid(m)
        w = singular_weight(grid, (0.0, 0.0))
        z = 1.0 / m
        ratio = w[1, 0] / z**2
        assert abs(ratio - 1.0) <= 5.0 / m**2


def test_weight_zero_exactly_at_the_source_node():
    grid = TorusGrid(32)
    s = SingularitySet((1.0,), positions=((0.5, 0.5),))
    h = build_weights(WeightSpec.uniform(1, s), grid)
    assert h[0, 16, 16] == 0.0
    assert np.all(h >= 0.0)
    assert np.count_nonzero(h[0] == 0.0) == 1


def test_weights_combine_callable_scalar_and_array_factors():
    grid = TorusGrid(16)
    arr = 2.0 + grid.x * 0.0
    w = WeightSpec(
        smooth_factors=(
            lambda x, y: 1.0 + 0.5 * np.sin(2 * np.pi * x),
            3.0,
            arr,
        ),
        singularities=SingularitySet.empty(),
    )
    h = build_weights(w, grid)
    np.testing.assert_allclose(h[1], 3.0)
    np.testing.assert_allclose(h[2], 2.0)
    np.testing.assert_allclose(
        h[0], 1.0 + 0.5 * np.sin(2 * np.pi * grid.x)
    )


def test_weights_reject_negative_strengths_and_factors():
    grid = TorusGrid(16)
    s = SingularitySet((-0.5,), positions=((0.25, 0.25),))
    with pytest.raises(NegativeGamma):
        build_weights(WeightSpec.uniform(1, s), grid)
    with pytest.raises(ValueError):
        build_weights(
            WeightSpec((0.0,), SingularitySet.empty()), grid
        )
    one_nan = np.ones((16, 16))
    one_nan[3, 5] = np.nan
    for factor, where in ((np.nan, ""), (np.inf, ""), (one_nan, "[3][5]")):
        message = f"smooth_factors[0]{where} must be a real number, finite and positive"
        with pytest.raises(ValueError, match=re.escape(message)):
            build_weights(WeightSpec((factor,), SingularitySet.empty()), grid)


def test_weights_require_positions():
    grid = TorusGrid(16)
    s = SingularitySet((1.0,))
    with pytest.raises(ValueError):
        build_weights(WeightSpec.uniform(1, s), grid)


# ---------------------------------------------------------------- residual


def test_residual_vanishes_at_zero_field_with_constant_weights():
    grid = TorusGrid(16)
    p = scalar_problem(5.0)
    h = build_weights(WeightSpec.uniform(1), grid)
    r = residual(FieldSet(np.zeros((1, 16, 16))), p, h, grid)
    assert np.max(np.abs(r.values)) == 0.0


def test_residual_at_zero_field_reduces_to_the_forcing():
    grid = TorusGrid(32)
    a = InteractionMatrix([[0.0, 1.0], [1.0, 0.0]])
    rho = (2.0, 3.0)
    p = ProblemInstance(TORUS, SingularitySet.empty(), a, rho)
    g1 = 1.0 + 0.25 * np.sin(2 * np.pi * grid.x)
    g2 = 1.0 + 0.25 * np.cos(2 * np.pi * grid.y)
    w = WeightSpec((g1, g2), SingularitySet.empty())
    h = build_weights(w, grid)
    r = residual(FieldSet(np.zeros((2, 32, 32))), p, h, grid)
    forcing = np.stack([h[0] / h[0].mean() - 1.0, h[1] / h[1].mean() - 1.0])
    expected = np.stack(
        [rho[1] * forcing[1], rho[0] * forcing[0]]
    )  # exchange coupling swaps the components
    np.testing.assert_allclose(r.values, expected, atol=1e-12)


def test_residual_mean_is_tiny():
    grid = TorusGrid(32)
    rng = np.random.default_rng(5)
    sing = SingularitySet((1.0,), positions=((0.5, 0.5),))
    p = scalar_problem(3.0, sing)
    h = build_weights(WeightSpec.uniform(1, sing), grid)
    u = FieldSet(band_limited_noise(grid, rng)[None, :, :])
    r = residual(u, p, h, grid)
    assert np.max(np.abs(r.values.mean(axis=(1, 2)))) <= 1e-10


def test_residual_guards_against_vanishing_density():
    grid = TorusGrid(16)
    p = scalar_problem(1.0)
    h = np.zeros((1, 16, 16))
    with pytest.raises(ZeroMassDensity, match=r"= 0\.0 is not positive"):
        residual(FieldSet(np.zeros((1, 16, 16))), p, h, grid)


# -------------------------------------------------------------- functional


def test_functional_zero_field_uniform_weights():
    grid = TorusGrid(16)
    p = scalar_problem(7.0)
    h = build_weights(WeightSpec.uniform(1), grid)
    assert functional_J(FieldSet(np.zeros((1, 16, 16))), p, h, grid) == 0.0


def test_functional_single_mode_closed_form():
    grid = TorusGrid(64)
    eps = 0.3
    rho = 2.0
    u = eps * np.cos(2.0 * math.pi * grid.x)
    p = scalar_problem(rho)
    h = build_weights(WeightSpec.uniform(1), grid)
    got = functional_J(FieldSet(u[None]), p, h, grid)
    expected = math.pi**2 * eps**2 - rho * math.log(
        float(np.mean(np.exp(u)))
    )
    assert got == pytest.approx(expected, rel=1e-12)


def test_functional_uses_the_inverse_coupling():
    grid = TorusGrid(32)
    rng = np.random.default_rng(6)
    u = np.stack([band_limited_noise(grid, rng) for _ in range(2)])
    a = InteractionMatrix([[0.0, 2.0], [2.0, 0.0]])
    p = ProblemInstance(TORUS, SingularitySet.empty(), a, (1.0, 1.0))
    h = build_weights(WeightSpec.uniform(2), grid)
    got = functional_J(FieldSet(u), p, h, grid)
    # with inverse [[0, 1/2], [1/2, 0]] the quadratic part couples the
    # two components only through the cross term
    cross = grid.gradient_inner(u[0], u[1])
    expected = 0.5 * cross - float(
        np.sum(np.log(np.exp(u).mean(axis=(1, 2))))
    )
    assert got == pytest.approx(expected, rel=1e-10)
    # Exactly the row-major sum of a^{ij} gradient_inner(u_i, u_j) over
    # the nonzero inverse entries, also when every entry is nonzero.
    for a in (a, InteractionMatrix([[2.0, 1.0], [1.0, 2.0]])):
        p = ProblemInstance(TORUS, SingularitySet.empty(), a, (1.0, 3.0))
        inv = a.inverse()
        quad = 0.0
        for i in range(2):
            for j in range(2):
                if inv[i, j] != 0.0:
                    quad += inv[i, j] * grid.gradient_inner(u[i], u[j])
        log_masses = np.log(np.exp(u).mean(axis=(1, 2)))
        expected = 0.5 * quad - float(np.sum(np.array([1.0, 3.0]) * log_masses))
        assert functional_J(FieldSet(u), p, h, grid) == expected


def test_functional_makes_one_transform_per_component(monkeypatch):
    grid = TorusGrid(16)
    rng = np.random.default_rng(7)
    u = np.stack([band_limited_noise(grid, rng) for _ in range(2)])
    a = InteractionMatrix([[2.0, 1.0], [1.0, 2.0]])
    p = ProblemInstance(TORUS, SingularitySet.empty(), a, (4.0, 4.0))
    h = build_weights(WeightSpec.uniform(2), grid)
    planes = []
    rfft2 = np.fft.rfft2

    def counting_rfft2(x, *args, **kwargs):
        x = np.asarray(x)
        planes.append(x.size // (x.shape[-2] * x.shape[-1]))
        return rfft2(x, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft2", counting_rfft2)
    functional_J(FieldSet(u), p, h, grid)
    assert 0 < sum(planes) <= 2


def full_spectrum_inner(f: np.ndarray, g: np.ndarray) -> float:
    """Integral of grad f . grad g as the sum over every complex mode."""
    m = f.shape[-1]
    k = np.fft.fftfreq(m, d=1.0 / m)
    k2 = k[:, None] ** 2 + k[None, :] ** 2
    fh, gh = np.fft.fft2(f), np.fft.fft2(g)
    return float(np.sum(4.0 * math.pi**2 * k2 * np.real(fh * np.conj(gh)))) / m**4


@pytest.mark.parametrize("m", [8, 64])
def test_half_spectrum_sums_equal_the_full_spectrum_sums(m):
    # White noise fills the k_y = 0 and Nyquist columns, which the real
    # transform keeps once, as much as the interior ones, which it keeps
    # for their conjugates too.
    grid = TorusGrid(m)
    rng = np.random.default_rng(m)
    u = rng.standard_normal((2, m, m))
    u -= u.mean(axis=(1, 2))[:, None, None]
    for f, g in ((u[0], u[1]), (u[0], u[0]), (u[1], u[1])):
        assert grid.gradient_inner(f, g) == pytest.approx(
            full_spectrum_inner(f, g), rel=1e-13
        )
    a = InteractionMatrix([[2.0, 1.0], [1.0, 2.0]])
    p = ProblemInstance(TORUS, SingularitySet.empty(), a, (4.0, 3.0))
    h = build_weights(WeightSpec.uniform(2), grid)
    inv = a.inverse()
    quad = sum(
        inv[i, j] * full_spectrum_inner(u[i], u[j])
        for i in range(2)
        for j in range(2)
    )
    log_masses = np.log(np.mean(np.exp(u), axis=(1, 2)))
    expected = 0.5 * quad - float(np.sum(np.array([4.0, 3.0]) * log_masses))
    assert functional_J(FieldSet(u), p, h, grid) == pytest.approx(
        expected, rel=1e-13
    )


# ------------------------------------------------- gradient consistency


def random_weight_spec(rng: np.random.Generator, n: int) -> WeightSpec:
    sing = SingularitySet(
        (float(rng.integers(0, 3)),),
        positions=((float(rng.uniform()), float(rng.uniform())),),
    )
    factors = tuple(
        (lambda x, y, c=float(rng.uniform(0.1, 0.4)): 1.0 + c * np.sin(
            2 * np.pi * x
        ))
        for _ in range(n)
    )
    return WeightSpec(factors, sing)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(20240818)
    grid = TorusGrid(32)
    eps = 1e-5
    for trial in range(20):
        n = int(rng.integers(1, 3))
        if n == 1:
            a = InteractionMatrix([[1.0]])
        else:
            a = InteractionMatrix([[0.0, 1.0], [1.0, 0.0]])
        rho = tuple(rng.uniform(0.5, 5.0, size=n).tolist())
        p = ProblemInstance(TORUS, SingularitySet.empty(), a, rho)
        w = WeightSpec(
            tuple(
                (lambda x, y, c=float(rng.uniform(0.1, 0.4)): 1.0
                 + c * np.sin(2 * np.pi * x))
                for _ in range(n)
            ),
            SingularitySet.empty(),
        )
        h = build_weights(w, grid)
        u = np.stack([band_limited_noise(grid, rng) for _ in range(n)])
        delta = np.stack([band_limited_noise(grid, rng) for _ in range(n)])
        plus = functional_J(FieldSet(u + eps * delta), p, h, grid)
        minus = functional_J(FieldSet(u - eps * delta), p, h, grid)
        fd = (plus - minus) / (2.0 * eps)
        v = functional_gradient(FieldSet(u), p, h, grid)
        analytic = float(np.sum(v * delta)) / grid.resolution**2
        assert abs(fd - analytic) / (1.0 + abs(analytic)) <= 1e-6


def test_coupling_matrix_times_gradient_recovers_the_residual():
    rng = np.random.default_rng(7)
    grid = TorusGrid(32)
    a = InteractionMatrix([[0.0, 1.5], [1.5, 0.5]])
    p = ProblemInstance(TORUS, SingularitySet.empty(), a, (2.0, 1.0))
    h = build_weights(WeightSpec.uniform(2), grid)
    u = np.stack([band_limited_noise(grid, rng) for _ in range(2)])
    v = functional_gradient(FieldSet(u), p, h, grid)
    r = residual(FieldSet(u), p, h, grid).values
    recovered = np.einsum("ij,jxy->ixy", a.entries, v)
    assert np.max(np.abs(recovered + r)) <= 1e-6 * (
        1.0 + np.max(np.abs(r))
    )


# ------------------------------------------------------------------ GMRES

RTOL = solver.GMRES_RTOL
gmres_settings = settings(
    max_examples=100, deadline=None, derandomize=True, database=None
)


@st.composite
def dense_systems(draw):
    """Nonsymmetric A = 2n I + E with |E_ij| <= 1, so cond(A) <= 3, and b."""
    n = draw(st.integers(1, 12))
    unit = st.floats(-1.0, 1.0)
    a = 2.0 * n * np.eye(n) + draw(hnp.arrays(np.float64, (n, n), elements=unit))
    b = draw(hnp.arrays(np.float64, n, elements=unit))
    assume(np.linalg.norm(b) > 1e-3)
    return a, b


@gmres_settings
@given(system=dense_systems())
def test_gmres_matches_a_direct_solve(system):
    a, b = system
    x, steps, estimate = solver._gmres(lambda v: a @ v, b, RTOL, len(b))
    exact = np.linalg.solve(a, b)
    true = float(np.linalg.norm(a @ x - b))
    assert 1 <= steps <= len(b)
    assert true <= RTOL * np.linalg.norm(b)
    # Right-preconditioned or not, the estimate is the true residual.
    assert abs(estimate - true) <= 1e-13 * np.linalg.norm(b)
    bound = np.linalg.cond(a) * RTOL + 1e-14
    assert np.linalg.norm(x - exact) <= bound * np.linalg.norm(exact)


@gmres_settings
@given(system=dense_systems())
def test_gmres_with_one_step_minimizes_along_b(system):
    a, b = system
    x, steps, estimate = solver._gmres(lambda v: a @ v, b, RTOL, 1)
    ab = a @ b
    assert steps == 1
    best = (ab @ b) / (ab @ ab) * b
    assert np.linalg.norm(x - best) <= 1e-12 * np.linalg.norm(best)
    assert estimate == pytest.approx(np.linalg.norm(a @ x - b), rel=1e-9, abs=1e-15)


def test_gmres_stops_at_an_exact_breakdown():
    # e_0 is an eigenvector of an upper triangular matrix, and a @ e_0 is
    # exact, so the first Arnoldi step leaves nothing: the Krylov space
    # is invariant and the answer exact, even with rtol = 0.
    rng = np.random.default_rng(5)
    a = np.triu(rng.uniform(-1.0, 1.0, (6, 6))) + 4.0 * np.eye(6)
    b = np.zeros(6)
    b[0] = 3.0
    x, steps, estimate = solver._gmres(lambda v: a @ v, b, 0.0, 6)
    assert steps == 1
    assert estimate == 0.0
    np.testing.assert_array_equal(x, np.linalg.solve(a, b))


def test_gmres_returns_zero_for_a_zero_right_hand_side():
    x, steps, estimate = solver._gmres(lambda v: v, np.zeros((2, 4, 4)), RTOL, 5)
    assert steps == 0 and estimate == 0.0
    assert x.shape == (2, 4, 4) and not np.any(x)


def forcing_terms(history, tol):
    """The relative tolerance of each Newton direction of a stage with this
    residual history: Eisenstat-Walker choice 2 with their safeguard, from
    ETA_MAX, floored at GMRES_RTOL and at 0.5 tol / |r_k|."""
    etas = []
    for k, norm in enumerate(history[:-1]):
        eta = solver.ETA_MAX
        if k > 0:
            eta = min(solver.ETA_MAX, 0.9 * (norm / history[k - 1]) ** 2)
            if 0.9 * etas[-1] ** 2 > 0.1:
                eta = max(eta, 0.9 * etas[-1] ** 2)
        etas.append(max(eta, RTOL, 0.5 * tol / norm))
    return etas


def test_newton_directions_meet_the_krylov_tolerance(monkeypatch):
    # The README problem at M = 64. The Jacobian of the residual, applied
    # without preconditioning, maps each direction onto the right-hand
    # side to the forcing term the direction was given, and to no less
    # than 10 * GMRES_RTOL. Its range is the mean-zero fields, so the
    # target is the mean-zero part of -R: the mean of R is rounding.
    records = []
    direction = solver._newton_direction

    def recording(dens, means, coupling, grid, rhs, rtol):
        delta = direction(dens, means, coupling, grid, rhs, rtol)
        records.append((dens, means, coupling, grid, rhs, rtol, delta))
        return delta

    monkeypatch.setattr(solver, "_newton_direction", recording)
    sing = SingularitySet((1.0,), positions=((0.5, 0.5),))
    result = solve_continuation(
        scalar_problem(4.0 * math.pi, sing), WeightSpec.uniform(1, sing), TorusGrid(64)
    )
    assert sum(step.newton_iterations for step in result.steps) == len(records) == 29
    etas = [
        eta
        for step in result.steps
        for eta in forcing_terms(step.residual_history, SolverOptions().tol)
    ]
    assert [record[5] for record in records] == etas
    for (dens, means, coupling, grid, rhs, _, delta), eta in zip(records, etas):
        weighted = dens * delta
        inner = weighted.mean(axis=(1, 2))
        term = weighted / means[:, None, None] - dens * (inner / means**2)[:, None, None]
        jdelta = np.einsum("ij,jxy->ixy", coupling, term) + grid.laplacian(delta)
        b = rhs - rhs.mean(axis=(1, 2))[:, None, None]
        assert np.linalg.norm(jdelta - b) <= max(eta, 10.0 * RTOL) * np.linalg.norm(b)


# -------------------------------------------------------------- the solver


def test_trivial_solve_returns_zero_at_every_stage():
    grid = TorusGrid(32)
    p = scalar_problem(4.0)
    result = solve_continuation(p, WeightSpec.uniform(1), grid)
    assert np.all(result.fields.values == 0.0)
    assert len(result.steps) == 10
    for step in result.steps:
        assert step.residual_history[-1] <= 1e-12


def test_perturbed_two_component_solve_converges():
    grid = TorusGrid(64)
    a = InteractionMatrix([[0.0, 1.0], [1.0, 0.0]])
    p = ProblemInstance(TORUS, SingularitySet.empty(), a, (1.0, 1.0))

    def g(x, y):
        return 1.0 + 0.1 * np.sin(2.0 * np.pi * x)

    w = WeightSpec((g, g), SingularitySet.empty())
    result = solve_continuation(p, w, grid)
    assert result.residual_norm <= 1e-8
    assert float(np.abs(result.fields.values).max()) <= 1.0
    report = verify_solution(result.fields, p, w, grid)
    np.testing.assert_allclose(report.normalized_masses, 1.0, atol=1e-12)
    assert np.max(np.abs(report.residual_means)) <= 1e-10


def test_small_data_response_is_roughly_linear():
    grid = TorusGrid(64)
    a = InteractionMatrix([[0.0, 1.0], [1.0, 0.0]])

    def g(x, y):
        return 1.0 + 0.1 * np.sin(2.0 * np.pi * x)

    w = WeightSpec((g, g), SingularitySet.empty())
    full = solve_continuation(
        ProblemInstance(TORUS, SingularitySet.empty(), a, (1.0, 1.0)), w, grid
    ).fields.values
    half = solve_continuation(
        ProblemInstance(TORUS, SingularitySet.empty(), a, (0.5, 0.5)), w, grid
    ).fields.values
    ratio = float(np.abs(full).max() / np.abs(half).max())
    assert 1.8 <= ratio <= 2.2


def test_singular_solve_converges_and_matches_finite_differences():
    sing = SingularitySet((1.0,), positions=((0.5, 0.5),))
    w = WeightSpec.uniform(1, sing)
    p = scalar_problem(1.0, sing)

    def fd_residual(m: int) -> float:
        grid = TorusGrid(m)
        result = solve_continuation(p, w, grid)
        assert result.residual_norm <= 1e-8
        u = result.fields.values[0]
        h = build_weights(w, grid)
        dens = h[0] * np.exp(u)
        forcing = dens / dens.mean() - 1.0
        step = 1.0 / m
        lap_fd = (
            np.roll(u, 1, 0)
            + np.roll(u, -1, 0)
            + np.roll(u, 1, 1)
            + np.roll(u, -1, 1)
            - 4.0 * u
        ) / step**2
        r = lap_fd + p.rho[0] * forcing
        mask = (grid.x - 0.5) ** 2 + (grid.y - 0.5) ** 2 > 0.125**2
        return float(np.sqrt(np.mean(r[mask] ** 2)))

    coarse = fd_residual(64)
    fine = fd_residual(128)
    assert coarse <= 1e-3
    assert fine <= 0.3 * coarse  # five-point stencil: grid-squared decay


def test_grid_refinement_leaves_the_solution_unchanged():
    sing = SingularitySet((1.0,), positions=((0.5, 0.5),))
    w = WeightSpec.uniform(1, sing)
    p = scalar_problem(1.0, sing)
    norms = {}
    for m in (64, 128):
        result = solve_continuation(p, w, TorusGrid(m))
        norms[m] = float(np.abs(result.fields.values).max())
    assert abs(norms[64] - norms[128]) <= 1e-4


def test_translation_equivariance_is_grid_exact():
    grid = TorusGrid(64)
    shift = 8
    s1 = SingularitySet((1.0,), positions=((0.5, 0.5),))
    s2 = SingularitySet((1.0,), positions=((0.5 + shift / 64.0, 0.5),))
    u1 = solve_continuation(
        scalar_problem(4.0, s1), WeightSpec.uniform(1, s1), grid
    ).fields.values
    u2 = solve_continuation(
        scalar_problem(4.0, s2), WeightSpec.uniform(1, s2), grid
    ).fields.values
    assert np.max(np.abs(np.roll(u1, shift, axis=1) - u2)) <= 1e-12


def test_solver_approaches_the_critical_level():
    sing = SingularitySet((1.0,), positions=((0.5, 0.5),))
    w = WeightSpec.uniform(1, sing)
    grid = TorusGrid(64)
    norms = []
    for q in (0.5, 0.7, 0.9):
        p = scalar_problem(8.0 * math.pi * q, sing)
        result = solve_continuation(p, w, grid)
        assert result.residual_norm <= 1e-8
        norms.append(float(np.abs(result.fields.values).max()))
    assert norms[0] < norms[1] < norms[2]


def test_solver_rejects_supercritical_mass():
    p = scalar_problem(8.0 * math.pi)  # q = 1 = first critical level
    with pytest.raises(ValueError):
        solve_continuation(p, WeightSpec.uniform(1), TorusGrid(16))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    gammas=st.lists(
        st.floats(-1.0, 3.0, exclude_min=True, allow_nan=False), max_size=12
    )
)
def test_first_critical_level_is_the_lowest_enumerated_level(gammas):
    # q = 4 lies above every n_1, so the solver names its n_1 and stops
    # before it builds any weight.
    s = SingularitySet(tuple(gammas))
    n1 = enumerate_spectrum(s, cap=2.0).levels[0]
    with pytest.raises(ValueError, match="first critical level") as info:
        solve_continuation(
            scalar_problem(32.0 * math.pi, s), WeightSpec.uniform(1, s), TorusGrid(8)
        )
    assert f"n_1 = {n1!r};" in str(info.value)


def test_nineteen_sources_solve_below_the_first_level():
    # (ceil(2) + 1) * 2^19 candidates exceed the enumeration's level limit,
    # which once refused this subcritical problem.
    positions = tuple(((l + 0.5) / 19, (7 * l % 19 + 0.5) / 19) for l in range(19))
    s = SingularitySet((0.5,) * 19, positions=positions)
    result = solve_continuation(
        scalar_problem(2.0 * math.pi, s), WeightSpec.uniform(1, s), TorusGrid(16)
    )
    assert result.residual_norm <= SolverOptions().tol


_SOURCE = SingularitySet((1.0,), positions=((0.5, 0.5),))
# Each solver entry point, called on an instance and weights.
_SOLVER_ENTRIES = {
    "solve_continuation": lambda p, w: solve_continuation(p, w, TorusGrid(16)),
    "verify_solution": lambda p, w: verify_solution(
        FieldSet(np.zeros((1, 16, 16))), p, w, TorusGrid(16)
    ),
}


@pytest.mark.parametrize("call", _SOLVER_ENTRIES.values(), ids=_SOLVER_ENTRIES)
def test_solver_refuses_a_surface_other_than_the_torus(call):
    sphere = ProblemInstance(
        SurfaceSpec.closed_surface(0), _SOURCE, InteractionMatrix([[1.0]]), (4.0,)
    )
    with pytest.raises(ValueError, match=r"flat torus only \(chi must be 0\)"):
        call(sphere, WeightSpec.uniform(1, _SOURCE))


@pytest.mark.parametrize(
    "instance_sources, weight_sources",
    [(_SOURCE, SingularitySet.empty()), (SingularitySet.empty(), _SOURCE)],
    ids=["source-free-weights", "weights-with-a-source"],
)
@pytest.mark.parametrize("call", _SOLVER_ENTRIES.values(), ids=_SOLVER_ENTRIES)
def test_solver_refuses_weights_with_other_sources(
    call, instance_sources, weight_sources
):
    p = scalar_problem(4.0 * math.pi, instance_sources)
    with pytest.raises(ValueError, match="other sources than the instance"):
        call(p, WeightSpec.uniform(1, weight_sources))


def test_solver_reads_source_positions_from_the_weights_alone():
    # Degree callers build instances without positions.
    grid = TorusGrid(16)
    w = WeightSpec.uniform(1, _SOURCE)
    positionless = scalar_problem(4.0 * math.pi, SingularitySet(_SOURCE.gammas))
    positioned = scalar_problem(4.0 * math.pi, _SOURCE)
    got = solve_continuation(positionless, w, grid)
    expected = solve_continuation(positioned, w, grid)
    np.testing.assert_array_equal(got.fields.values, expected.fields.values)
    assert verify_solution(got.fields, positionless, w, grid) == verify_solution(
        got.fields, positioned, w, grid
    )


def test_solver_rejects_mismatched_weight_count():
    p = scalar_problem(1.0)
    with pytest.raises(ValueError):
        solve_continuation(p, WeightSpec.uniform(2), TorusGrid(16))


def sine_weight_problem() -> tuple[ProblemInstance, WeightSpec]:
    def g(x, y):
        return 1.0 + 0.1 * np.sin(2.0 * np.pi * x)

    return scalar_problem(2.0), WeightSpec((g,), SingularitySet.empty())


def test_exhausted_newton_budget_raises(monkeypatch):
    p, w = sine_weight_problem()
    monkeypatch.setattr(solver, "MAX_NEWTON", 0)
    with pytest.raises(NoConvergence):
        solve_continuation(p, w, TorusGrid(32))


def test_unreachable_tolerance_stops_at_the_damping_floor():
    p, w = sine_weight_problem()
    opts = SolverOptions(tol=1e-30, steps=1)
    with pytest.raises(StepFailure, match="damping floor 1e-06"):
        solve_continuation(p, w, TorusGrid(16), opts)


def test_exhausted_budget_carries_the_last_residual(monkeypatch):
    p, w = sine_weight_problem()
    norms = []
    l2_norm = solver._l2_norm

    def recording_l2_norm(r, m):
        norms.append(l2_norm(r, m))
        return norms[-1]

    monkeypatch.setattr(solver, "_l2_norm", recording_l2_norm)
    monkeypatch.setattr(solver, "MAX_NEWTON", 3)
    opts = SolverOptions(tol=1e-30)
    with pytest.raises(NoConvergence, match="after 3 Newton iterations") as info:
        solve_continuation(p, w, TorusGrid(32), opts)
    assert info.value.residual == norms[-1]
    assert f"residual {norms[-1]:.3e}" in str(info.value)


def test_newton_evaluates_each_iterate_once(monkeypatch):
    # Every evaluation of an iterate starts with h e^u, so a repeated
    # np.exp argument means the same iterate was evaluated again.
    p, w = sine_weight_problem()
    digests = []
    exp = np.exp

    def recording_exp(x, *args, **kwargs):
        data = np.ascontiguousarray(x).tobytes()
        digests.append(hashlib.sha256(data).hexdigest())
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", recording_exp)
    result = solve_continuation(p, w, TorusGrid(16), SolverOptions(steps=1))
    assert len(digests) > result.steps[0].newton_iterations > 0
    assert len(set(digests)) == len(digests)


def test_single_step_schedule_solves_the_full_problem():
    p, w = sine_weight_problem()
    result = solve_continuation(p, w, TorusGrid(32), SolverOptions(steps=1))
    assert len(result.steps) == 1
    assert result.steps[0].t == 1.0
    assert result.residual_norm <= 1e-8


@pytest.mark.parametrize("name, ceiling", [("readme_solve", 260), ("pair_solve", 170)])
def test_a_solve_stays_under_its_transform_ceiling(monkeypatch, name, ceiling):
    # Planes of rfft2 and irfft2, counted as in the functional's test.
    # Without forcing terms and the secant predictor these solves ran 402
    # and 276 planes.
    cfg = load_config(Path(__file__).parent / "data" / f"{name}.json")
    weights = WeightSpec.uniform(cfg.matrix.n, cfg.singularities)
    planes = []
    for transform_name in ("rfft2", "irfft2"):
        transform = getattr(np.fft, transform_name)

        def counting(x, *args, _transform=transform, **kwargs):
            x = np.asarray(x)
            planes.append(x.size // (x.shape[-2] * x.shape[-1]))
            return _transform(x, *args, **kwargs)

        monkeypatch.setattr(np.fft, transform_name, counting)
    result = solve_continuation(
        cfg.instance(), weights, TorusGrid(cfg.resolution), cfg.solver
    )
    assert all(s.residual_history[-1] <= cfg.solver.tol for s in result.steps)
    assert 0 < sum(planes) <= ceiling


def test_a_failed_prediction_reruns_the_stage_from_the_last_solution(monkeypatch):
    # q = 0.93 on a coarse grid with three strong sources. The second
    # stage's secant start extrapolates 9x from t = 0.1 to t = 1 and ends
    # at the damping floor; started from the t = 0.1 solution, it solves.
    sing = SingularitySet(
        (1.31, 1.45, 2.45),
        positions=((0.013, 0.267), (0.645, 0.624), (0.798, 0.998)),
    )
    a = InteractionMatrix([[0.46330179243783937, 1.20350536873028], [1.20350536873028, 0.0]])
    p = ProblemInstance(TORUS, sing, a, (13.881238839261139, 23.42694304615792))
    w, grid, opts = WeightSpec.uniform(2, sing), TorusGrid(16), SolverOptions(tol=1e-6, steps=2)
    stages = []
    stage = solver._newton_stage

    def recording(u, t, *args):
        try:
            solved = stage(u, t, *args)
        except StepFailure:
            stages.append((t, "StepFailure"))
            raise
        stages.append((t, "solved"))
        return solved

    monkeypatch.setattr(solver, "_newton_stage", recording)
    result = solve_continuation(p, w, grid, opts)
    assert stages == [(0.1, "solved"), (1.0, "StepFailure"), (1.0, "solved")]
    assert all(s.residual_history[-1] <= opts.tol for s in result.steps)
    report = verify_solution(result.fields, p, w, grid)
    assert report.residual_norm <= opts.tol
    np.testing.assert_allclose(report.normalized_masses, 1.0, atol=1e-12)


def test_a_failed_rerun_raises_its_own_error(monkeypatch):
    p, w = sine_weight_problem()
    starts, solved = [], []
    stage = solver._newton_stage

    def failing_after_the_first(u, t, *args):
        starts.append(u.copy())
        if len(starts) > 1:
            raise NoConvergence(f"attempt {len(starts)}", float(len(starts)))
        solved.append(stage(u, t, *args))
        return solved[-1]

    monkeypatch.setattr(solver, "_newton_stage", failing_after_the_first)
    with pytest.raises(NoConvergence, match="attempt 3") as info:
        solve_continuation(p, w, TorusGrid(16), SolverOptions(steps=2))
    assert info.value.residual == 3.0
    assert len(starts) == 3
    assert np.array_equal(starts[2], solved[0][0])
    assert not np.array_equal(starts[1], solved[0][0])


# Explicit ids keep each case's name fixed when cases are added or dropped.
@pytest.mark.parametrize(
    "bad",
    [
        pytest.param({"tol": math.inf}, id="bad0"),
        pytest.param({"tol": math.nan}, id="bad1"),
        pytest.param({"tol": 0.0}, id="bad2"),
        pytest.param({"tol": -1.0}, id="bad3"),
        pytest.param({"steps": -1}, id="bad4"),
        pytest.param({"steps": 0}, id="bad5"),
        pytest.param({"steps": MAX_STEPS + 1}, id="bad14"),
        pytest.param({"steps": 2.5}, id="fractional-steps"),
        pytest.param({"steps": 10.0}, id="float-steps"),
        pytest.param({"steps": True}, id="bool-steps"),
        pytest.param({"tol": True}, id="bool-tol"),
    ],
)
def test_solver_options_reject_bad_values(bad):
    with pytest.raises(ValueError):
        SolverOptions(**bad)


def test_solver_options_accept_the_boundary_values():
    assert SolverOptions(steps=1).steps == 1
    assert SolverOptions(steps=MAX_STEPS).steps == MAX_STEPS


# ---------------------------------------------------------- verification


def test_verify_zero_field_uniform_weights():
    grid = TorusGrid(16)
    p = scalar_problem(3.0)
    w = WeightSpec.uniform(1)
    report = verify_solution(FieldSet(np.zeros((1, 16, 16))), p, w, grid)
    assert report.normalized_masses == (1.0,)
    assert report.residual_norm == 0.0
    assert report.functional_value == 0.0


def test_verify_takes_one_exponential_per_density(monkeypatch):
    grid = TorusGrid(16)
    rng = np.random.default_rng(3)
    u = FieldSet(np.stack([band_limited_noise(grid, rng) for _ in range(2)]))
    a = InteractionMatrix([[2.0, 1.0], [1.0, 2.0]])
    p = ProblemInstance(TORUS, SingularitySet.empty(), a, (4.0, 4.0))
    w = WeightSpec.uniform(2)
    expected = functional_J(u, p, build_weights(w, grid), grid)
    calls = []
    exp = np.exp

    def counting_exp(x, *args, **kwargs):
        calls.append(np.shape(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting_exp)
    report = verify_solution(u, p, w, grid)
    # One for the density of u, one for the masses after the shift.
    assert len(calls) == 2
    assert report.functional_value == expected


def test_verify_reports_on_a_converged_singular_solve():
    sing = SingularitySet((1.0,), positions=((0.5, 0.5),))
    w = WeightSpec.uniform(1, sing)
    p = scalar_problem(4.0, sing)
    grid = TorusGrid(64)
    result = solve_continuation(p, w, grid)
    report = verify_solution(result.fields, p, w, grid)
    np.testing.assert_allclose(report.normalized_masses, 1.0, atol=1e-12)
    assert np.max(np.abs(report.field_means)) <= 1e-12
    assert np.max(np.abs(report.residual_means)) <= 1e-10
    assert report.residual_norm <= 1e-8
    assert np.isfinite(report.functional_value)


# ------------------------------------------------------------ input shapes


@pytest.mark.parametrize(
    ("matrix", "field_n", "weight_n", "field_m"),
    [
        pytest.param([[1.0]], 2, 1, 16, id="two-components-for-one"),
        pytest.param([[1.0]], 1, 2, 16, id="two-weights-for-one"),
        pytest.param([[0.0, 1.0], [1.0, 0.0]], 1, 2, 16, id="one-component-for-two"),
        pytest.param([[1.0]], 1, 1, 8, id="field-on-another-grid"),
    ],
)
def test_field_functions_refuse_mismatched_shapes(matrix, field_n, weight_n, field_m):
    grid = TorusGrid(16)
    a = InteractionMatrix(matrix)
    p = ProblemInstance(TORUS, SingularitySet.empty(), a, (1.0,) * a.n)
    u = FieldSet(np.zeros((field_n, field_m, field_m)))
    w = WeightSpec.uniform(weight_n)
    h = build_weights(w, grid)
    for call in (residual, functional_J, functional_gradient):
        with pytest.raises(ValueError, match="system on this grid"):
            call(u, p, h, grid)
    with pytest.raises(ValueError, match="system on this grid"):
        verify_solution(u, p, w, grid)


def test_weights_refuse_positions_that_coincide_on_the_torus():
    # Distinct as given, the same node once wrapped onto [0, 1)^2.
    s = SingularitySet((1.0, 1.0), positions=((0.0, 0.0), (1.0, 1.0)))
    with pytest.raises(ValueError, match="coincide on the torus"):
        build_weights(WeightSpec.uniform(1, s), TorusGrid(16))


@pytest.mark.parametrize(
    "factor",
    [np.ones((8, 8)), lambda x, y: np.ones((8, 8))],
    ids=["array", "callable"],
)
def test_smooth_factors_of_the_wrong_shape_are_refused(factor):
    w = WeightSpec((factor,), SingularitySet.empty())
    with pytest.raises(
        ValueError, match=r"smooth_factors\[0\] must have shape \(16, 16\), got \(8, 8\)"
    ):
        build_weights(w, TorusGrid(16))


@pytest.mark.filterwarnings("error")
def test_fieldset_refuses_a_mean_beyond_the_double_range():
    values = np.zeros((1, 4, 4))
    values[0, 0, :2] = 1.7e308
    with pytest.raises(ValueError, match="component mean inf exceeds"):
        FieldSet(values)
