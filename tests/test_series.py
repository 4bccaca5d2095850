"""Generating-function expansion over real exponents.

For integer strengths and nonpositive Euler characteristic the whole
expansion collapses to ordinary truncated polynomial arithmetic, which
gives an exact independent oracle: multiply out
(1 + x + ... + x^cap)^(-chi) * prod_l (1 + x + ... + x^{gamma_l})
with plain integer convolutions and compare coefficient-for-coefficient.
"""

import itertools
import math

import numpy as np
import pytest

from liouville import (
    CoefficientOverflow,
    SingularitySet,
    build_generating_function,
    enumerate_spectrum,
)

# ------------------------------------------------------------------ oracle


def poly_mul_truncated(p: list[int], q: list[int], cap: int) -> list[int]:
    out = [0] * (cap + 1)
    for i, a in enumerate(p):
        if a == 0 or i > cap:
            continue
        for j, b in enumerate(q):
            if i + j > cap:
                break
            out[i + j] += a * b
    return out


def oracle_coefficients(chi: int, gammas: list[int], cap: int) -> list[int]:
    assert chi <= 0
    block = [1] * (cap + 1)  # 1 + x + ... + x^cap
    acc = [1] + [0] * cap
    for _ in range(-chi):
        acc = poly_mul_truncated(acc, block, cap)
    for g in gammas:
        acc = poly_mul_truncated(acc, [1] * (g + 1), cap)
    return acc


def terms_as_dict(series) -> dict[float, int]:
    return {e: c for e, c in series.sorted_terms()}


# ------------------------------------------------ the (1-x)^e ladder
#
# With no sources the series is (1-x)^chi itself.

NO_SOURCES = SingularitySet.empty()


def test_base_sphere_is_one_minus_x_squared():
    s = build_generating_function(chi=2, singularities=NO_SOURCES, cap=5.0)
    assert terms_as_dict(s) == {0.0: 1, 1.0: -2, 2.0: 1}


def test_base_zeroth_power_is_one():
    s = build_generating_function(chi=0, singularities=NO_SOURCES, cap=5.0)
    assert terms_as_dict(s) == {0.0: 1}


def test_base_negative_power_counts_with_multiplicity():
    s = build_generating_function(chi=-2, singularities=NO_SOURCES, cap=3.0)
    assert terms_as_dict(s) == {0.0: 1, 1.0: 2, 2.0: 3, 3.0: 4}


def test_base_positive_power_is_a_finite_polynomial():
    s = build_generating_function(chi=2, singularities=NO_SOURCES, cap=100.0)
    assert len(s.sorted_terms()) == 3


# ------------------------------------------------ singular factors
#
# Each source multiplies by (1 - x^(1+gamma)) and lowers chi - N by one,
# so raising chi by one alongside it keeps the ladder (1-x)^e fixed.


def test_single_factor_against_one():
    s = SingularitySet((1.0,))
    out = build_generating_function(chi=1, singularities=s, cap=5.0)
    assert terms_as_dict(out) == {0.0: 1, 2.0: -1}


def test_telescoping_with_regular_point():
    # (1 + x + ... + x^5)(1 - x) = 1 - x^6, and x^6 falls past the cap
    s = SingularitySet((0.0,))
    out = build_generating_function(chi=0, singularities=s, cap=5.0)
    assert terms_as_dict(out) == {0.0: 1}


def test_fractional_shift_interleaves():
    s = build_generating_function(chi=-2, singularities=NO_SOURCES, cap=2.9)
    assert terms_as_dict(s) == {0.0: 1, 1.0: 2, 2.0: 3}
    out = build_generating_function(
        chi=-1, singularities=SingularitySet((0.5,)), cap=2.9
    )
    assert terms_as_dict(out) == {0.0: 1, 1.0: 2, 1.5: -1, 2.0: 3, 2.5: -2}


# ------------------------------------------- build_generating_function


def test_torus_two_sources_product_form():
    g = build_generating_function(
        chi=0, singularities=SingularitySet((1.0, 2.0)), cap=5.0
    )
    assert terms_as_dict(g) == {0.0: 1, 1.0: 2, 2.0: 2, 3.0: 1}


def test_sphere_no_sources():
    g = build_generating_function(
        chi=2, singularities=SingularitySet.empty(), cap=5.0
    )
    assert terms_as_dict(g) == {0.0: 1, 1.0: -2, 2.0: 1}


def test_torus_no_sources_is_the_constant_one():
    g = build_generating_function(
        chi=0, singularities=SingularitySet.empty(), cap=5.0
    )
    assert terms_as_dict(g) == {0.0: 1}


def test_constant_term_is_always_one():
    rng = np.random.default_rng(13)
    for _ in range(50):
        n_sources = int(rng.integers(0, 4))
        gammas = tuple(rng.uniform(-0.5, 3.0, size=n_sources).tolist())
        chi = int(rng.integers(-4, 3))
        g = build_generating_function(
            chi=chi, singularities=SingularitySet(gammas), cap=8.0
        )
        assert g.sorted_terms()[0] == (0.0, 1)


# ------------------------------------------------------------------ oracle


def test_matches_integer_polynomial_oracle():
    cap = 10
    for chi in (0, -2, -4):
        for n_sources in range(0, 5):
            for gammas in itertools.product(
                (1, 2, 3, 4), repeat=n_sources
            ):
                g = build_generating_function(
                    chi=chi,
                    singularities=SingularitySet(
                        tuple(float(x) for x in gammas)
                    ),
                    cap=float(cap),
                )
                got = dict(g.sorted_terms())
                expected = oracle_coefficients(chi, list(gammas), cap)
                for m, coeff in enumerate(expected):
                    assert got.get(float(m), 0) == coeff, (
                        chi,
                        gammas,
                        m,
                    )
                assert set(got) <= {float(m) for m in range(cap + 1)}


# -------------------------------------------------------------- properties


def test_nonnegative_coefficients_for_integer_strengths():
    rng = np.random.default_rng(14)
    for _ in range(100):
        chi = -2 * int(rng.integers(0, 3))
        n_sources = int(rng.integers(0, 5))
        gammas = tuple(float(g) for g in rng.integers(0, 5, size=n_sources))
        g = build_generating_function(
            chi=chi, singularities=SingularitySet(gammas), cap=12.0
        )
        assert all(c >= 0 for _, c in g.sorted_terms())


def test_palindrome_on_the_torus():
    rng = np.random.default_rng(15)
    for _ in range(100):
        n_sources = int(rng.integers(1, 5))
        gammas = tuple(float(g) for g in rng.integers(1, 5, size=n_sources))
        m = int(sum(gammas))
        g = build_generating_function(
            chi=0, singularities=SingularitySet(gammas), cap=float(m)
        )
        coeffs = dict(g.sorted_terms())
        for l in range(m + 1):
            assert coeffs.get(float(l), 0) == coeffs.get(float(m - l), 0)


def test_coefficient_sum_is_the_full_product():
    rng = np.random.default_rng(16)
    for _ in range(100):
        n_sources = int(rng.integers(1, 5))
        gammas = tuple(float(g) for g in rng.integers(1, 5, size=n_sources))
        m = int(sum(gammas))
        g = build_generating_function(
            chi=0, singularities=SingularitySet(gammas), cap=float(m)
        )
        total = sum(c for _, c in g.sorted_terms())
        assert total == math.prod(int(g_) + 1 for g_ in gammas)


# ------------------------------------------------------------- alignment


def test_alignment_examples():
    s = SingularitySet((1.0, 2.0))
    g = build_generating_function(chi=0, singularities=s, cap=5.0)
    assert g.levels == (1.0, 2.0, 3.0, 4.0, 5.0)
    assert g.coefficients == (2, 2, 1, 0, 0)
    assert g.sorted_terms()[0] == (0.0, 1)

    empty = SingularitySet.empty()
    g2 = build_generating_function(chi=2, singularities=empty, cap=3.5)
    assert g2.levels == (1.0, 2.0, 3.0)
    assert g2.coefficients == (-2, 1, 0)

    g3 = build_generating_function(chi=0, singularities=empty, cap=3.5)
    assert g3.levels == (1.0, 2.0, 3.0)
    assert g3.coefficients == (0, 0, 0)


def test_every_nonzero_exponent_lands_on_a_level():
    rng = np.random.default_rng(17)
    cases = []
    for _ in range(100):
        n_sources = int(rng.integers(0, 5))
        gammas = tuple(rng.uniform(-0.5, 3.0, size=n_sources).tolist())
        cases.append((gammas, 9.0))
    # Two routes to 4.8 round differently: 2 + 1.7 + 1.1 and
    # 1.7 + 1.5 + 0.5 + 1.1.
    cases.append(((0.7, 0.5, -0.5, 0.1), 12.0))
    for gammas, cap in cases:
        s = SingularitySet(gammas)
        spec = enumerate_spectrum(s, cap=cap)
        g = build_generating_function(chi=0, singularities=s, cap=cap)
        assert g.levels == spec.levels
        assert len(g.coefficients) == len(spec.levels)
        terms = g.sorted_terms()
        assert terms[0] == (0.0, 1)
        assert {e for e, _ in terms[1:]} <= set(spec.levels)


# ------------------------------------------------------------- edge cases


def test_coefficient_overflow_is_detected():
    with pytest.raises(CoefficientOverflow):
        build_generating_function(
            chi=-60, singularities=SingularitySet.empty(), cap=40.0
        )


def test_product_coefficient_overflow_is_detected():
    # Every coefficient of (1-x)^66 fits in 64 bits, but the product
    # (1-x)^67 has |C(67, m)| > 2^63 - 1 from x^30 on.
    with pytest.raises(CoefficientOverflow):
        build_generating_function(
            chi=67, singularities=SingularitySet((0.0,)), cap=40.0
        )


def test_coefficients_near_the_64_bit_edge_are_exact():
    # (1-x)^66 (1-x^2): ladder entries near 7e18, so pairs of them could
    # wrap a 64-bit accumulator; their differences fit and must be exact.
    cap = 40
    g = build_generating_function(
        chi=67, singularities=SingularitySet((1.0,)), cap=float(cap)
    )
    ladder = [(-1) ** m * math.comb(66, m) for m in range(cap + 1)]
    expected = [ladder[m] - (ladder[m - 2] if m >= 2 else 0)
                for m in range(cap + 1)]
    got = dict(g.sorted_terms())
    assert max(abs(c) for c in ladder) > 2**62
    for m, coeff in enumerate(expected):
        assert got.get(float(m), 0) == coeff


def test_strength_at_the_merge_scale_is_rejected():
    with pytest.raises(ValueError):
        build_generating_function(
            chi=0,
            singularities=SingularitySet((-1.0 + 1e-12,)),
            cap=4.0,
        )
