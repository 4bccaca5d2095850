"""Blow-up mass identities and their rigidity properties."""

import math

import numpy as np
import pytest

from liouville import (
    DegenerateDirection,
    MassVector,
    NegativeRho,
    NumericOverflow,
    ZeroMass,
    check_h1,
    critical_surface_from_blowup,
    energy_scaling_between_points,
    local_mass_split,
    minimal_mass_check,
    nonsimple_blowup_admissible,
    pohozaev_residual,
    solve_mass_on_hypersurface,
)

EXCHANGE = [[0.0, 1.0], [1.0, 0.0]]


# ----------------------------------------------------------- residual


def test_scalar_mass_four_lies_on_the_surface():
    assert pohozaev_residual([[1.0]], MassVector((4.0,), 1.0)) == 0.0


def test_two_component_balanced_masses():
    assert pohozaev_residual(EXCHANGE, MassVector((4.0, 4.0), 1.0)) == 0.0


def test_zero_mass_is_on_every_surface():
    assert pohozaev_residual(EXCHANGE, MassVector((0.0, 0.0), 2.0)) == 0.0


def test_residual_sign_tracks_the_offset():
    assert pohozaev_residual([[1.0]], MassVector((5.0,), 1.0)) > 0.0
    assert pohozaev_residual([[1.0]], MassVector((3.0,), 1.0)) < 0.0


# ----------------------------------------------------- hypersurface solve


def test_scalar_direction_solves_to_four_mu():
    out = solve_mass_on_hypersurface([[1.0]], 1.0, (1.0,))
    np.testing.assert_allclose(out.sigma, [4.0])
    out2 = solve_mass_on_hypersurface([[1.0]], 2.0, (1.0,))
    np.testing.assert_allclose(out2.sigma, [8.0])


def test_balanced_direction_on_exchange_matrix():
    out = solve_mass_on_hypersurface(EXCHANGE, 1.0, (1.0, 1.0))
    np.testing.assert_allclose(out.sigma, [4.0, 4.0])


def test_solution_lands_on_the_surface():
    rng = np.random.default_rng(20240818)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        base = rng.uniform(0.0, 2.0, size=(n, n))
        a = (base + base.T) / 2.0 + 0.5 * np.eye(n)
        d = rng.uniform(0.1, 3.0, size=n)
        mu = float(rng.uniform(0.2, 4.0))
        out = solve_mass_on_hypersurface(a, mu, d)
        resid = pohozaev_residual(a, out)
        assert abs(resid) <= 1e-12 * (4.0 * mu * float(np.sum(out.sigma)))


def test_masses_do_not_depend_on_the_scale_of_the_direction():
    rng = np.random.default_rng(7)
    a = [[0.5, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.25]]
    for _ in range(20):
        d = rng.uniform(0.5, 2.0, size=3)
        mu = float(rng.uniform(0.2, 4.0))
        expected = solve_mass_on_hypersurface(a, mu, d).sigma
        for k in (-900, -600, -300, -1, 1, 300, 600, 900):
            scaled = solve_mass_on_hypersurface(a, mu, np.ldexp(d, k)).sigma
            assert scaled.tobytes() == expected.tobytes()


@pytest.mark.parametrize("scale", [1e300, 1e-300, 1.7e308, 5e-324])
def test_extreme_directions_give_the_unit_answer(scale):
    # sigma = 4 mu (sum d) d / (d^T A d) is (4, 4) for every multiple of (1, 1).
    out = solve_mass_on_hypersurface(EXCHANGE, 1.0, (scale, scale))
    np.testing.assert_allclose(out.sigma, [4.0, 4.0], rtol=1e-15)


def test_a_direction_wider_than_the_double_range_is_solved_unscaled():
    # Halving (1, 5e-324) would round its second component to 0, and the
    # cross term that makes d^T A d positive with it.
    a = [[0.0, 1.7e308], [1.7e308, 0.0]]
    d = np.array([1.0, 5e-324])
    t = 4.0 * float(d.sum()) / float(d @ np.array(a) @ d)
    out = solve_mass_on_hypersurface(a, 1.0, d)
    assert out.sigma.tobytes() == (t * d).tobytes()


def test_masses_beyond_the_double_range_are_refused():
    # d^T A d overflows even with the largest d_i scaled into [0.5, 1).
    huge = [[1.7e308, 1.7e308], [1.7e308, 1.7e308]]
    with pytest.raises(NumericOverflow):
        solve_mass_on_hypersurface(huge, 1.0, (0.9, 0.9))
    # sigma = 4 mu / a overflows.
    with pytest.raises(NumericOverflow):
        solve_mass_on_hypersurface([[1e-310]], 1.0, (1.0,))
    # t = 4 mu (sum d) / (d^T A d) = 2e300, so t * 1e300 overflows.
    with pytest.raises(NumericOverflow):
        solve_mass_on_hypersurface(EXCHANGE, 1.0, (1e300, 1e-300))


def test_residual_beyond_the_double_range_is_refused():
    # sigma^2 a overflows and so does 4 mu sigma: inf - inf.
    with pytest.raises(NumericOverflow):
        pohozaev_residual([[1e-300]], MassVector((1.7e308,), 0.5))


def test_direction_must_be_strictly_positive():
    with pytest.raises(ValueError):
        solve_mass_on_hypersurface(EXCHANGE, 1.0, (1.0, 0.0))


def test_degenerate_direction_raises():
    # nonpositive quadratic energy: no positive scaling reaches the surface
    a = [[1.0, -2.0], [-2.0, 1.0]]
    with pytest.raises(DegenerateDirection):
        solve_mass_on_hypersurface(a, 1.0, (1.0, 1.0))


def test_positive_root_is_unique_by_bisection():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        base = rng.uniform(0.0, 2.0, size=(n, n))
        a = (base + base.T) / 2.0 + 0.5 * np.eye(n)
        d = rng.uniform(0.1, 3.0, size=n)
        mu = float(rng.uniform(0.2, 4.0))
        out = solve_mass_on_hypersurface(a, mu, d)
        t_star = float(out.sigma[0] / d[0])

        def f(t):
            return pohozaev_residual(a, MassVector(tuple(t * d), mu))

        # the residual along the ray is a parabola through the origin:
        # negative before the root, positive after
        assert f(0.5 * t_star) < 0.0
        assert f(2.0 * t_star) > 0.0
        lo, hi = 0.5 * t_star, 2.0 * t_star
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if f(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        assert abs(0.5 * (lo + hi) - t_star) <= 1e-9 * t_star


# ------------------------------------------------------- minimal masses


def test_minimal_mass_scalar_holds():
    assert minimal_mass_check([[1.0]], MassVector((4.0,), 1.0)).holds


def test_minimal_mass_flags_a_zero_partner():
    report = minimal_mass_check(EXCHANGE, MassVector((4.0, 0.0), 1.0))
    assert not report.holds
    flagged = {v.indices[0] for v in report.violations}
    # m_1 = a_12 sigma_2 = 0 fails; m_2 = a_21 sigma_1 = 4 > 2 holds
    assert flagged == {0}


def test_minimal_mass_zero_vector_fails_everywhere():
    report = minimal_mass_check(EXCHANGE, MassVector((0.0, 0.0), 1.0))
    assert {v.indices[0] for v in report.violations} == {0, 1}


# -------------------------------------------------------- energy scaling


def test_scaling_between_blowup_points():
    scaled = energy_scaling_between_points(MassVector((4.0, 4.0), 1.0), 2.0)
    np.testing.assert_allclose(scaled.sigma, [8.0, 8.0])
    assert scaled.mu == 2.0


def test_scaling_with_equal_weights_is_identity():
    scaled = energy_scaling_between_points(MassVector((3.0, 5.0), 1.5), 1.5)
    np.testing.assert_allclose(scaled.sigma, [3.0, 5.0])


def test_scaling_preserves_the_hypersurface():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        base = rng.uniform(0.0, 2.0, size=(n, n))
        a = (base + base.T) / 2.0 + 0.5 * np.eye(n)
        d = rng.uniform(0.1, 3.0, size=n)
        mu_p = float(rng.uniform(0.2, 4.0))
        mu_q = float(rng.uniform(0.2, 4.0))
        on_p = solve_mass_on_hypersurface(a, mu_p, d)
        moved = energy_scaling_between_points(on_p, mu_q)
        resid = pohozaev_residual(a, moved)
        assert abs(resid) <= 1e-10 * max(1.0, 4.0 * mu_q * np.sum(moved.sigma))


# ------------------------------------------------------------- rigidity


def test_rigidity_no_counterexample_in_random_search():
    """Two comparable mass vectors on the same surface with all
    component masses above the threshold must coincide: along any
    nonnegative perturbation the second surface crossing sits at
    s* = (4 mu sum(e) - 2 sigma^T A e) / (e^T A e), and the threshold
    makes the numerator negative. The search looks for a positive s*."""
    rng = np.random.default_rng(20240818)
    tested = 0
    while tested < 2000:
        n = int(rng.integers(1, 5))
        base = rng.uniform(0.0, 2.0, size=(n, n))
        a = (base + base.T) / 2.0
        if not check_h1(a).holds:
            continue
        mu = float(rng.uniform(0.2, 3.0))
        d = rng.uniform(0.05, 3.0, size=n)
        sigma = solve_mass_on_hypersurface(a, mu, d)
        m = a @ np.asarray(sigma.sigma)
        if not np.all(m > 2.0 * mu):
            continue
        tested += 1
        for _ in range(5):
            e = rng.uniform(0.0, 1.0, size=n)
            quad = float(e @ a @ e)
            if quad <= 0.0:
                continue
            s_star = (
                4.0 * mu * float(np.sum(e))
                - 2.0 * float(np.asarray(sigma.sigma) @ a @ e)
            ) / quad
            assert s_star <= 1e-12


# ------------------------------------------------------ local mass split


def test_equal_split_between_two_regular_points():
    out = local_mass_split((2.0 * math.pi,), (1.0, 1.0))
    np.testing.assert_allclose(out, [[0.5, 0.5]])


def test_single_point_takes_everything():
    rho = (5.0, 7.0)
    out = local_mass_split(rho, (2.5,))
    np.testing.assert_allclose(out[:, 0], np.asarray(rho) / (2.0 * math.pi))


def test_split_is_proportional_to_the_weights():
    out = local_mass_split((4.0 * math.pi,), (1.0, 3.0))
    np.testing.assert_allclose(out, [[0.5, 1.5]])


def test_rows_reconstruct_the_masses():
    rng = np.random.default_rng(6)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        n_points = int(rng.integers(1, 6))
        rho = rng.uniform(0.1, 30.0, size=n)
        mus = rng.uniform(0.1, 4.0, size=n_points)
        out = local_mass_split(rho, mus)
        np.testing.assert_allclose(
            2.0 * math.pi * out.sum(axis=1), rho, rtol=1e-14
        )


# ------------------------------------------- critical surface from blowup


def test_scalar_surface_at_eight_pi():
    resid = critical_surface_from_blowup([[1.0]], (8.0 * math.pi,), (1.0,))
    assert abs(resid) <= 1e-10 * (8.0 * math.pi) ** 2


def test_scalar_surface_at_level_three():
    resid = critical_surface_from_blowup(
        [[1.0]], (24.0 * math.pi,), (1.0, 2.0)
    )
    assert abs(resid) <= 1e-10 * (24.0 * math.pi) ** 2


def test_off_surface_signs():
    assert critical_surface_from_blowup([[1.0]], (9.0 * math.pi,), (1.0,)) > 0
    assert critical_surface_from_blowup([[1.0]], (7.0 * math.pi,), (1.0,)) < 0


def test_surface_requires_some_mass():
    with pytest.raises(ZeroMass):
        critical_surface_from_blowup([[1.0]], (0.0,), (1.0,))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    ("a", "rho", "error"),
    [
        ([[1.0]], (1e300,), NumericOverflow),
        ([[1.0]], (math.nan,), ValueError),
        (EXCHANGE, (-1.0, 5.0), NegativeRho),
    ],
    ids=["overflow", "nan", "negative"],
)
def test_surface_refuses_what_the_normalized_energy_refuses(a, rho, error):
    with pytest.raises(error):
        critical_surface_from_blowup(a, rho, (1.0,))


def test_split_masses_satisfy_the_per_point_identity():
    """On the critical surface, each column of the split, rescaled by its
    weight, satisfies the single-point identity."""
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        base = rng.uniform(0.0, 2.0, size=(n, n))
        a = (base + base.T) / 2.0 + 0.5 * np.eye(n)
        n_points = int(rng.integers(1, 4))
        mus = rng.uniform(0.2, 3.0, size=n_points)
        d = rng.uniform(0.1, 3.0, size=n)
        # scale rho onto the blowup surface along direction d
        quad = float(d @ a @ d)
        t = 8.0 * math.pi * float(np.sum(mus)) * float(np.sum(d)) / quad
        rho = t * d
        resid = critical_surface_from_blowup(a, rho, mus)
        assert abs(resid) <= 1e-9 * max(1.0, rho @ a @ rho)
        split = local_mass_split(rho, mus)
        for l in range(n_points):
            sigma_l = split[:, l] / mus[l]
            per_point = float(sigma_l @ a @ sigma_l) - 4.0 * float(
                np.sum(sigma_l)
            )
            assert abs(per_point) <= 1e-9 * max(1.0, float(np.sum(sigma_l)))


# -------------------------------------------------- non-simple admissibility


def test_integer_weights_allow_nonsimple_blowup():
    assert nonsimple_blowup_admissible(2.0)
    assert nonsimple_blowup_admissible(0.0)


def test_fractional_weights_force_simple_blowup():
    assert not nonsimple_blowup_admissible(0.5)
    assert not nonsimple_blowup_admissible(1.7)


def test_admissibility_tolerance_window():
    assert nonsimple_blowup_admissible(1.0 + 5e-10)
    assert not nonsimple_blowup_admissible(1.0 + 5e-9)


# -------------------------------------------------------------- validation


def test_mass_vector_validation():
    with pytest.raises(ValueError):
        MassVector((-1.0,), 1.0)
    with pytest.raises(ValueError):
        MassVector((1.0,), 0.0)
    with pytest.raises(ValueError):
        MassVector((np.nan,), 1.0)


# ------------------------------------------------ inputs out of range


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    ("rho", "mus", "error"),
    [
        ((math.nan, 1.0), (1.0,), ValueError),
        ((-1.0, 1.0), (1.0,), ValueError),
        ((math.inf, 1.0), (1.0,), ValueError),
        ((1.0,), (math.inf,), ValueError),
        ((1.0,), (1.0, math.nan), ValueError),
        ((1.0,), (-1.0,), ValueError),
        ((1.0,), (0.0,), ValueError),
        ((1.0,), (), ValueError),
        ((1.0,), (1e308, 1e308), ValueError),
        ((1.0,), (1e308,), ValueError),
    ],
    ids=[
        "nan-rho", "negative-rho", "inf-rho", "inf-mu", "nan-mu", "negative-mu",
        "zero-mu", "no-points", "mu-sum-overflow", "total-overflow",
    ],
)
def test_split_refuses_masses_and_weights_out_of_range(rho, mus, error):
    with pytest.raises(error):
        local_mass_split(rho, mus)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    ("a", "rho", "mus", "error"),
    [
        ([[1.0]], (8.0 * math.pi,), (math.nan,), ValueError),
        ([[1.0]], (8.0 * math.pi,), (-1.0,), ValueError),
        ([[1.0]], (8.0 * math.pi,), (math.inf,), ValueError),
        ([[1.0]], (8.0 * math.pi,), (), ValueError),
        ([[1.0]], (8.0 * math.pi,), (1e308, 1e308), ValueError),
        ([[1e-300]], (1e300,), (1e300,), NumericOverflow),
    ],
    ids=["nan-mu", "negative-mu", "inf-mu", "no-points", "mu-sum-overflow",
         "residual-overflow"],
)
def test_surface_refuses_weights_out_of_range(a, rho, mus, error):
    with pytest.raises(error):
        critical_surface_from_blowup(a, rho, mus)


@pytest.mark.filterwarnings("error")
def test_minimal_masses_beyond_the_double_range_are_refused():
    masses = MassVector((1e308, 1e308), 1.0)
    with pytest.raises(NumericOverflow, match="minimal mass"):
        minimal_mass_check(np.full((2, 2), 1e308), masses)
