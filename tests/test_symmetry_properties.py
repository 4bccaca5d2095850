"""Relabelling and translation symmetries of the answers.

Numbering the components of the system in another order permutes the
rows and columns of A and the entries of rho together, and changes no
verdict and no degree. Numbering the sources in another order changes
nothing at all, up to the order in which subset sums of the strengths
accumulate, so levels may move by an ulp. On the torus, moving every
source by a grid vector (a/M, b/M) moves the solution by the same
vector: the fields of the shifted solve are ``np.roll`` of the others.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from test_scale_properties import passing_matrices

from liouville import (
    InteractionMatrix,
    LiouvilleError,
    ProblemInstance,
    SingularitySet,
    SolverOptions,
    SurfaceSpec,
    TorusGrid,
    WeightSpec,
    check_h1,
    check_h2,
    leray_schauder_degree,
    normalized_energy,
    solve_continuation,
)

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def any_matrices(draw):
    """Symmetric or not, passing or not: every verdict gets its turn."""
    n = draw(st.integers(1, 3))
    return [draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)) for _ in range(n)]


def degree_or_error(matrix, rho, gammas, chi):
    instance = ProblemInstance(
        SurfaceSpec.from_chi(chi), SingularitySet(tuple(gammas)), InteractionMatrix(matrix), rho
    )
    try:
        return leray_schauder_degree(instance)
    except LiouvilleError as exc:
        return type(exc)


def shape(result):
    """What a relabelling keeps exactly: the degree, its region and the
    partial coefficients, or the type of the error."""
    if isinstance(result, type):
        return result
    return result.degree, result.region_k, result.partial_coefficients


strengths = st.one_of(st.floats(-0.9, 2.5), st.sampled_from((0.0, 0.5, 1.0, 1.5, 2.0)))
chis = st.sampled_from((2, 1, 0, -1, -2))


@PROPERTY
@given(
    a=st.one_of(passing_matrices(), any_matrices()),
    data=st.data(),
    rho=st.lists(st.floats(0.1, 30.0), min_size=3, max_size=3),
    gammas=st.lists(strengths, max_size=3),
    chi=chis,
)
def test_permuting_the_components_keeps_verdicts_and_degree(a, data, rho, gammas, chi):
    n = len(a)
    perm = data.draw(st.permutations(range(n)))
    permuted = [[a[i][j] for j in perm] for i in perm]
    assert check_h1(permuted).holds == check_h1(a).holds
    assert check_h2(permuted).holds == check_h2(a).holds
    plain = degree_or_error(a, rho[:n], gammas, chi)
    moved = degree_or_error(permuted, [rho[i] for i in perm], gammas, chi)
    assert shape(moved) == shape(plain)


@PROPERTY
@given(
    a=passing_matrices(),
    data=st.data(),
    rho=st.lists(st.floats(0.1, 30.0), min_size=3, max_size=3),
    gammas=st.lists(strengths, min_size=2, max_size=6),
    chi=chis,
)
def test_permuting_the_sources_keeps_the_degree(a, data, rho, gammas, chi):
    permuted = data.draw(st.permutations(gammas))
    masses = rho[: len(a)]
    plain = degree_or_error(a, masses, gammas, chi)
    moved = degree_or_error(a, masses, permuted, chi)
    assert shape(moved) == shape(plain)
    if not isinstance(plain, type):
        # q does not read the sources; a level is a subset sum of them.
        assert moved.q_normalized == plain.q_normalized
        np.testing.assert_array_max_ulp(
            np.array(moved.nearest_levels), np.array(plain.nearest_levels), maxulp=4
        )


def solve_or_error(matrix, rho, gammas, positions, m, tol):
    sources = SingularitySet(tuple(gammas), tuple(positions))
    instance = ProblemInstance(SurfaceSpec.torus(), sources, InteractionMatrix(matrix), rho)
    weights = WeightSpec.uniform(len(matrix), sources)
    try:
        return solve_continuation(instance, weights, TorusGrid(m), SolverOptions(tol, 3))
    except LiouvilleError as exc:
        return type(exc)


@st.composite
def torus_matrices(draw):
    n = draw(st.integers(1, 2))
    if n == 1:
        return [[draw(st.floats(0.5, 2.0))]]
    d1, d2 = draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0))
    c = draw(st.floats(0.0, 1.0))
    return [[d1, c], [c, d2]]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    m=st.sampled_from((16, 32)),
    a=torus_matrices(),
    q=st.floats(0.05, 0.75),
    direction=st.lists(st.floats(0.2, 1.0), min_size=2, max_size=2),
    gammas=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=3),
    data=st.data(),
)
def test_shifting_the_sources_by_a_grid_vector_rolls_the_fields(
    m, a, q, direction, gammas, data
):
    n = len(a)
    # rho along the drawn direction, scaled to the drawn energy q < 1.
    unit = direction[:n]
    rho = [q / normalized_energy(unit, a) * r for r in unit]
    point = st.tuples(st.floats(0.0, 0.99), st.floats(0.0, 0.99))
    positions = data.draw(
        st.lists(point, min_size=len(gammas), max_size=len(gammas), unique=True)
    )
    shift = data.draw(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)))
    moved_positions = [
        ((x + shift[0] / m) % 1.0, (y + shift[1] / m) % 1.0) for x, y in positions
    ]
    tol = SolverOptions.tol
    plain = solve_or_error(a, rho, gammas, positions, m, tol)
    moved = solve_or_error(a, rho, gammas, moved_positions, m, tol)
    if isinstance(plain, type):
        assert moved == plain
        return
    u = plain.fields.values
    rolled = np.roll(u, shift, axis=(1, 2))
    gap = float(np.abs(moved.fields.values - rolled).max())
    assert gap <= 10 * tol * float(np.abs(u).max())
    assert math.isclose(moved.residual_norm, plain.residual_norm, abs_tol=10 * tol)
