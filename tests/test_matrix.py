"""Coupling-matrix inversion and hypothesis checks.

The deciding n=2 and n=3 characterization tests sample entries from a
discrete grid (multiples of 1/8) so every determinant and every
comparison in the independent predicate is exact in double precision:
agreement with the library then has no boundary-rounding escape hatch.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from liouville import (
    InteractionMatrix,
    SingularMatrix,
    Violation,
    check_h1,
    check_h2,
    invert,
    irreducible,
)

A1_ONES = [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]


def a1_pattern(a1: float, a2: float, a3: float) -> list[list[float]]:
    return [[0.0, a1, a2], [a1, 0.0, a3], [a2, a3, 0.0]]


# ----------------------------------------------------------------- invert


def test_invert_permutation_is_self_inverse():
    np.testing.assert_allclose(
        invert([[0.0, 1.0], [1.0, 0.0]]), [[0.0, 1.0], [1.0, 0.0]]
    )


def test_invert_rank_one_raises():
    with pytest.raises(SingularMatrix):
        invert([[1.0, 1.0], [1.0, 1.0]])


def test_invert_symmetric_three_component_pattern():
    expected = [
        [-0.5, 0.5, 0.5],
        [0.5, -0.5, 0.5],
        [0.5, 0.5, -0.5],
    ]
    got = invert(A1_ONES)
    np.testing.assert_allclose(got, expected, atol=1e-14)
    np.testing.assert_allclose(
        np.asarray(A1_ONES) @ got, np.eye(3), atol=1e-14
    )


def test_inverse_residual_bound_holds():
    rng = np.random.default_rng(20240817)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        base = rng.uniform(-2.0, 2.0, size=(n, n))
        a = base + base.T + 3.0 * n * np.eye(n)
        m = InteractionMatrix(a)
        resid = np.max(np.abs(a @ m.inverse() - np.eye(n)))
        assert resid <= 1e-10 * np.max(np.abs(a))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    base=st.integers(1, 4).flatmap(
        lambda n: hnp.arrays(np.float64, (n, n), elements=st.floats(-2.0, 2.0))
    )
)
def test_invertibility_does_not_depend_on_scale(base):
    # Diagonally dominant, so the condition number is at most 5.
    n = base.shape[0]
    a = base + base.T + 6.0 * n * np.eye(n)
    for k in [*range(-60, 0), *range(1, 61)]:
        InteractionMatrix(np.ldexp(a, k)).inverse()


def test_inverse_is_cached():
    m = InteractionMatrix([[0.0, 1.0], [1.0, 0.0]])
    assert m.inverse() is m.inverse()


def test_entries_are_read_only():
    m = InteractionMatrix([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        m.entries[0, 0] = 5.0


# ----------------------------------------------------------------- check_h1


def test_h1_holds_for_exchange_matrix():
    assert check_h1([[0.0, 1.0], [1.0, 0.0]]).holds


def test_h1_identity_fails_irreducibility():
    report = check_h1([[1.0, 0.0], [0.0, 1.0]])
    assert not report.holds
    assert {v.condition for v in report.violations} == {"irreducible"}


def test_h1_flags_asymmetry():
    report = check_h1([[0.0, 1.0], [2.0, 0.0]])
    assert not report.holds
    assert any(v.condition == "symmetric" for v in report.violations)


def test_h1_reports_an_asymmetry_beyond_the_double_range(recwarn):
    report = check_h1([[0.0, 1.7e308], [-1.7e308, 0.0]])
    assert report.violations[0] == Violation("symmetric", (0, 1), float("inf"))
    assert len(recwarn) == 0


def test_h1_flags_negative_entry():
    report = check_h1([[1.0, -1.0], [-1.0, 1.0]])
    assert any(v.condition == "nonnegative" for v in report.violations)


def test_h1_singular_matrix_fails_invertibility_without_raising():
    report = check_h1([[1.0, 1.0], [1.0, 1.0]])
    assert not report.holds
    assert any(v.condition == "invertible" for v in report.violations)


def test_h1_scalar_zero_fails_invertibility():
    report = check_h1([[0.0]])
    assert not report.holds
    assert any(v.condition == "invertible" for v in report.violations)


@pytest.mark.parametrize(
    "entries",
    [
        # Well conditioned, but the inverse is inf.
        [[0.0, 5e-324], [5e-324, 0.0]],
        # Well conditioned, but LAPACK finds an exactly zero pivot.
        [[0.0, 5e-324, 5e-324], [5e-324, 0.0, 5e-324], [5e-324, 5e-324, 0.0]],
    ],
)
def test_subnormal_matrices_fail_invertibility(entries):
    with pytest.raises(SingularMatrix):
        InteractionMatrix(entries).inverse()
    report = check_h1(entries)
    assert [v.condition for v in report.violations][-1] == "invertible"


# -------------------------------------------------------------- irreducible


def test_irreducible_examples():
    assert irreducible(A1_ONES)
    assert not irreducible([[1.0, 0.0], [0.0, 1.0]])
    assert irreducible([[2.0]])


def test_irreducible_needs_a_connected_graph():
    # components {0,1} and {2}: no path through zero entries
    a = [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    assert not irreducible(a)


# ----------------------------------------------------------------- check_h2


def test_h2_holds_for_exchange_matrix():
    assert check_h2([[0.0, 1.0], [1.0, 0.0]]).holds


def test_h2_flags_positive_inverse_diagonal():
    report = check_h2([[2.0, 1.0], [1.0, 2.0]])
    assert not report.holds
    diag = [v for v in report.violations if v.condition == "inverse-diagonal"]
    assert diag and diag[0].value == pytest.approx(2.0 / 3.0)


def test_h2_holds_for_three_component_pattern():
    assert check_h2(A1_ONES).holds


def test_h2_propagates_singular_matrix():
    with pytest.raises(SingularMatrix):
        check_h2([[1.0, 1.0], [1.0, 1.0]])


def test_h2_is_vacuous_for_a_single_component():
    # a^{11} <= 0 can never hold for an invertible 1x1 matrix, yet the
    # scalar problem is the classical one the theory covers, so the
    # strong-interaction check reports no violations there.
    assert check_h2([[1.0]]).holds
    assert check_h2([[5.0]]).holds


# --------------------------------------------- n=2 characterization (exact)


def grid_samples(rng: np.random.Generator, count: int, dims: int):
    """Entries are multiples of 1/8 in [0, 2]: products and determinants
    stay exact in binary floating point."""
    return rng.integers(0, 17, size=(count, dims)) / 8.0


def predicate_n2(a11: float, a12: float, a22: float) -> bool:
    det = a11 * a22 - a12 * a12
    return max(a11, a22) <= a12 and det != 0.0


def test_n2_characterization_exact_agreement():
    rng = np.random.default_rng(7)
    samples = grid_samples(rng, 1000, 3)
    disagreements = 0
    for a11, a12, a22 in samples:
        a = [[a11, a12], [a12, a22]]
        h1 = check_h1(a)
        if h1.holds:
            both = check_h2(a).holds
        else:
            both = False
        if both != predicate_n2(a11, a12, a22):
            disagreements += 1
    assert disagreements == 0


def test_n2_determinant_is_negative_whenever_both_hold():
    rng = np.random.default_rng(8)
    seen = 0
    for a11, a12, a22 in grid_samples(rng, 1000, 3):
        a = [[a11, a12], [a12, a22]]
        if check_h1(a).holds and check_h2(a).holds:
            seen += 1
            assert a11 * a22 - a12 * a12 < 0.0
    assert seen > 50  # the sampling really exercises the holding branch


# --------------------------------------------- n=3 characterization (exact)


def predicate_a1(a1: float, a2: float, a3: float) -> bool:
    triangle = a1 + a2 >= a3 and a1 + a3 >= a2 and a2 + a3 >= a1
    return a1 > 0.0 and a2 > 0.0 and a3 > 0.0 and triangle


def test_a1_characterization_exact_agreement():
    rng = np.random.default_rng(9)
    samples = grid_samples(rng, 1000, 3)
    disagreements = 0
    for a1, a2, a3 in samples:
        a = a1_pattern(a1, a2, a3)
        h1 = check_h1(a)
        if h1.holds:
            both = check_h2(a).holds
        else:
            both = False
        if both != predicate_a1(a1, a2, a3):
            disagreements += 1
    assert disagreements == 0


def test_a1_closed_form_inverse_matches():
    rng = np.random.default_rng(10)
    count = 0
    while count < 25:
        a1, a2, a3 = rng.uniform(0.25, 2.0, size=3)
        if not predicate_a1(a1, a2, a3):
            continue
        count += 1
        expected = np.array(
            [
                [-a3 * a3, a2 * a3, a1 * a3],
                [a2 * a3, -a2 * a2, a1 * a2],
                [a1 * a3, a1 * a2, -a1 * a1],
            ]
        ) / (2.0 * a1 * a2 * a3)
        np.testing.assert_allclose(
            invert(a1_pattern(a1, a2, a3)), expected, atol=1e-12
        )


# ------------------------------------------------- permutation invariance


def permute(a: np.ndarray, perm: np.ndarray) -> np.ndarray:
    return a[np.ix_(perm, perm)]


def test_checks_invariant_under_simultaneous_permutation():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        a = rng.integers(0, 17, size=(n, n)) / 8.0
        a = (a + a.T) / 2.0
        perm = rng.permutation(n)
        b = permute(a, perm)
        assert check_h1(a).holds == check_h1(b).holds
        try:
            h2a = check_h2(a).holds
        except SingularMatrix:
            with pytest.raises(SingularMatrix):
                check_h2(b)
            continue
        assert h2a == check_h2(b).holds


# -------------------------------------------------------------- validation


def test_rejects_non_square_input():
    with pytest.raises(ValueError):
        InteractionMatrix([[1.0, 2.0]])


def test_rejects_empty_and_non_finite_input():
    with pytest.raises(ValueError):
        InteractionMatrix([])
    with pytest.raises(ValueError):
        InteractionMatrix([[np.nan]])
    with pytest.raises(ValueError):
        InteractionMatrix([[np.inf]])
