"""Scale invariance of the hypotheses and the degree.

(H1) and (H2) are conditions of symmetry and sign on A and on A^-1, so
they hold for cA exactly when they hold for A, for any c > 0. The
normalized energy q(rho / c, cA) equals q(rho, A), so the degree cannot
depend on c either. With c a power of two every intermediate scales
exactly, so verdicts, q, levels and coefficients must agree bit for bit.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from liouville import (
    InteractionMatrix,
    LiouvilleError,
    ProblemInstance,
    SingularitySet,
    SurfaceSpec,
    check_h1,
    check_h2,
    leray_schauder_degree,
)

# Largest d_max/d_min for which c D (J - I) D keeps inverse row sums >= 0.
SPREAD = {2: 3.0, 3: 1.9}


@st.composite
def passing_matrices(draw):
    """Matrices that pass both hypotheses, drawn by the recipe of the
    benchmark's generator: for n = 3 the entries c d_i d_j and c d_j d_i
    are rounded apart, so A and its transpose differ by an ulp."""
    n = draw(st.integers(1, 3))

    def uniform(low, high):
        return draw(st.floats(low, high))

    if n == 1:
        return [[uniform(0.5, 2.0)]]
    if n == 2:
        b = uniform(0.5, 2.0)
        x = uniform(0.0, 0.8) * b
        return draw(st.sampled_from(([[x, b], [b, 0.0]], [[0.0, b], [b, x]])))
    c = uniform(0.5, 2.0)
    d = [uniform(1.0, SPREAD[n]) for _ in range(n)]
    return [[0.0 if i == j else c * d[i] * d[j] for j in range(n)] for i in range(n)]


def verdict(report):
    return report.holds, [(v.condition, v.indices) for v in report.violations]


def degree_or_error(instance):
    try:
        return leray_schauder_degree(instance)
    except LiouvilleError as exc:
        return type(exc)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    a=passing_matrices(),
    k=st.integers(-40, 40),
    rho=st.lists(st.floats(0.1, 30.0), min_size=3, max_size=3),
    gammas=st.lists(st.floats(0.0, 2.5), max_size=3),
    chi=st.sampled_from((2, 1, 0, -1, -2)),
)
def test_scaling_a_by_2k_and_rho_by_2_minus_k_changes_nothing(a, k, rho, gammas, chi):
    n = len(a)
    scaled = [[math.ldexp(x, k) for x in row] for row in a]
    assert verdict(check_h1(scaled)) == verdict(check_h1(a))
    assert verdict(check_h2(scaled)) == verdict(check_h2(a))
    surface, sources = SurfaceSpec.from_chi(chi), SingularitySet(tuple(gammas))

    def instance(matrix, masses):
        return ProblemInstance(surface, sources, InteractionMatrix(matrix), masses)

    plain = instance(a, rho[:n])
    moved = instance(scaled, [math.ldexp(r, -k) for r in rho[:n]])
    assert degree_or_error(moved) == degree_or_error(plain)


def test_a_large_matrix_is_held_to_its_own_scale():
    # a^{11} = 4/3e-12 > 0 breaks (H2) exactly as a^{11} = 4/3 does for
    # [[1, 0.5], [0.5, 1]]; an absolute tolerance of 1e-10 missed it.
    a = [[1e12, 0.5e12], [0.5e12, 1e12]]
    assert check_h1(a).holds
    report = check_h2(a)
    assert verdict(report) == verdict(check_h2([[1.0, 0.5], [0.5, 1.0]]))
    assert not report.holds
