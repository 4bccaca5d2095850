"""Critical-level enumeration and region classification.

The oracle is an independent double loop over (integer offset, source
subset) with its own clustering pass, so the production enumeration is
checked against a second implementation rather than against itself.
"""

import math

import numpy as np
import pytest

from liouville import (
    OnCriticalSurface,
    OutOfRange,
    SingularitySet,
    TooManyLevels,
    enumerate_spectrum,
    locate_region,
)

# ------------------------------------------------------------------ oracle


def oracle_levels(gammas, cap, merge_tol=1e-9):
    """Brute-force enumeration: every m + sum over a subset, clustered
    greedily from below to the minimum representative."""
    mus = [1.0 + g for g in gammas]
    raw = set()
    for m in range(int(math.ceil(cap)) + 1):
        for mask in range(1 << len(mus)):
            s = 0.0
            for l, mu in enumerate(mus):
                if mask & (1 << l):
                    s += mu
            value = float(m) + s
            if 0.0 < value <= cap:
                raw.add(value)
    merged = []
    for value in sorted(raw):
        if merged and value - merged[-1][0] <= merge_tol:
            continue
        merged.append((value, value))
    return [v for v, _ in merged]


# ---------------------------------------------------------------- examples


def test_bare_ladder():
    spec = enumerate_spectrum(SingularitySet.empty(), cap=3.5)
    assert spec.levels == (1.0, 2.0, 3.0)


def test_integer_strength_ladders_merge():
    spec = enumerate_spectrum(SingularitySet((1.0,)), cap=3.5)
    assert spec.levels == (1.0, 2.0, 3.0)


def test_half_strength_interleaves():
    spec = enumerate_spectrum(SingularitySet((0.5,)), cap=3.0)
    assert spec.levels == (1.0, 1.5, 2.0, 2.5, 3.0)


def test_levels_exclude_zero_and_respect_cap():
    spec = enumerate_spectrum(SingularitySet((0.25, 0.75)), cap=4.0)
    assert all(0.0 < level <= 4.0 for level in spec.levels)
    diffs = np.diff(spec.levels)
    assert np.all(diffs > spec.merge_tol)


# ------------------------------------------------------------------ oracle


def test_matches_oracle_on_random_strengths():
    rng = np.random.default_rng(20240818)
    for _ in range(100):
        n_sources = int(rng.integers(0, 6))
        gammas = tuple(rng.uniform(-0.9, 4.0, size=n_sources).tolist())
        spec = enumerate_spectrum(SingularitySet(gammas), cap=15.0)
        expected = oracle_levels(gammas, 15.0)
        assert len(spec.levels) == len(expected)
        np.testing.assert_allclose(spec.levels, expected, atol=1e-9)


def test_integer_strengths_collapse_to_integers():
    rng = np.random.default_rng(77)
    for _ in range(50):
        n_sources = int(rng.integers(0, 5))
        gammas = tuple(float(g) for g in rng.integers(0, 5, size=n_sources))
        spec = enumerate_spectrum(SingularitySet(gammas), cap=12.0)
        assert spec.levels == tuple(float(k) for k in range(1, 13))


def test_growing_cap_only_appends():
    gammas = (0.3, 1.7, 2.2)
    small = enumerate_spectrum(SingularitySet(gammas), cap=6.0)
    large = enumerate_spectrum(SingularitySet(gammas), cap=11.0)
    assert large.levels[: len(small.levels)] == small.levels


def test_too_many_levels_guard():
    s = SingularitySet(tuple(0.5 + 0.001 * l for l in range(20)))
    with pytest.raises(TooManyLevels):
        enumerate_spectrum(s, cap=10.0)


# ----------------------------------------------------------- locate_region


def test_region_below_first_level():
    spec = enumerate_spectrum(SingularitySet.empty(), cap=3.5)
    assert locate_region(0.5, spec) == 0


def test_region_counts_levels_below():
    spec = enumerate_spectrum(SingularitySet((0.5,)), cap=3.0)
    assert locate_region(1.7, spec) == 2


def test_exact_hit_raises_on_surface():
    spec = enumerate_spectrum(SingularitySet.empty(), cap=3.5)
    with pytest.raises(OnCriticalSurface) as info:
        locate_region(1.0, spec)
    assert info.value.level_index == 1
    assert info.value.level == 1.0
    assert info.value.q == 1.0


def test_near_hit_within_tolerance_raises():
    spec = enumerate_spectrum(SingularitySet.empty(), cap=3.5)
    with pytest.raises(OnCriticalSurface):
        locate_region(2.0 + 5e-9, spec, tol=1e-8)
    # outside the tolerance the same point classifies normally
    assert locate_region(2.0 + 5e-8, spec, tol=1e-8) == 2


def test_above_top_level_is_out_of_range():
    spec = enumerate_spectrum(SingularitySet.empty(), cap=3.5)
    with pytest.raises(OutOfRange):
        locate_region(3.4, spec)


def test_nonpositive_energy_rejected():
    spec = enumerate_spectrum(SingularitySet.empty(), cap=3.5)
    with pytest.raises(ValueError):
        locate_region(0.0, spec)
    with pytest.raises(ValueError):
        locate_region(-1.0, spec)


def test_region_index_is_consistent_with_level_accessor():
    spec = enumerate_spectrum(SingularitySet((0.5, 1.25)), cap=9.0)
    rng = np.random.default_rng(5)
    for _ in range(200):
        q = float(rng.uniform(0.01, spec.levels[-1] - 0.01))
        try:
            k = locate_region(q, spec)
        except OnCriticalSurface:
            continue
        assert spec.level(k) < q < spec.level(k + 1)


# -------------------------------------------------------------- validation


def test_strengths_must_exceed_minus_one():
    with pytest.raises(ValueError):
        SingularitySet((-1.0,))
    with pytest.raises(ValueError):
        SingularitySet((-1.5,))


def test_positions_must_match_and_be_distinct():
    with pytest.raises(ValueError):
        SingularitySet((1.0, 2.0), positions=((0.1, 0.1),))
    with pytest.raises(ValueError):
        SingularitySet(
            (1.0, 2.0), positions=((0.1, 0.1), (0.1, 0.1))
        )


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_positions_must_be_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        SingularitySet((1.0,), positions=((0.5, bad),))


def test_cap_and_merge_tol_validation():
    with pytest.raises(ValueError):
        enumerate_spectrum(SingularitySet.empty(), cap=0.0)
    with pytest.raises(ValueError):
        enumerate_spectrum(SingularitySet.empty(), cap=3.0, merge_tol=-1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-12])
def test_non_finite_or_negative_merge_tol_rejected(bad):
    with pytest.raises(ValueError):
        enumerate_spectrum(SingularitySet((0.5,)), cap=3.0, merge_tol=bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_non_finite_or_negative_critical_tol_rejected(bad):
    spec = enumerate_spectrum(SingularitySet.empty(), cap=3.5)
    with pytest.raises(ValueError):
        locate_region(1.0, spec, tol=bad)
