"""Property tests for the level walk.

The level walk runs in Python only across near-ties; its oracle is the
plain sequential anchor walk over every distinct value.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import liouville.spectrum
from liouville import LiouvilleError, SingularitySet
from liouville.spectrum import _level_starts, _levels_and_coefficients

property_settings = settings(
    max_examples=300, deadline=None, derandomize=True, database=None
)


def sequential_starts(values, merge_tol):
    """The anchor walk over every distinct value, one at a time."""
    distinct = np.flatnonzero(np.diff(values, prepend=-np.inf) > 0.0)
    starts = []
    anchor = -math.inf
    for i, v in zip(distinct.tolist(), values[distinct].tolist()):
        if v - anchor > merge_tol:
            starts.append(i)
            anchor = v
    return starts


def outcome(call):
    """The result, or the type and text of the package error it raised."""
    try:
        return call()
    except (LiouvilleError, ValueError) as exc:
        return type(exc), str(exc)


@st.composite
def near_tie_strengths(draw):
    """Up to 10 strengths, some in chains spaced 0.3-0.9 merge_tol apart,
    so that three or more consecutive values nearly tie."""
    merge_tol = draw(st.sampled_from([0.0, 1e-9, 1e-3, 0.05, 0.3]))
    gammas = []
    count = draw(st.integers(0, 10))
    while len(gammas) < count:
        base = draw(st.floats(-0.6, 3.0))
        length = draw(st.integers(1, 4))
        for _ in range(min(length, count - len(gammas))):
            gammas.append(base)
            base += draw(st.floats(0.3, 0.9)) * merge_tol
    return tuple(gammas), merge_tol


@property_settings
@given(
    near_tie_strengths(),
    st.floats(1e-3, 8.0),
    st.one_of(st.none(), st.integers(-3, 2)),
)
def test_level_walk_matches_the_sequential_walk(case, cap, chi):
    gammas, merge_tol = case
    s = SingularitySet(gammas)
    exponent = None if chi is None else chi - len(gammas)

    def levels_and_coefficients():
        return _levels_and_coefficients(s, cap, merge_tol, exponent)

    got = outcome(levels_and_coefficients)
    with mock.patch.object(liouville.spectrum, "_level_starts", sequential_starts):
        expected = outcome(levels_and_coefficients)
    assert got == expected


@property_settings
@given(
    st.lists(st.floats(0.0, 6.0), max_size=40),
    st.floats(0.3, 0.9),
    st.sampled_from([0.0, 1e-9, 1e-3, 0.1, 0.3]),
)
def test_level_starts_match_the_sequential_walk(raw, spacing, merge_tol):
    # Chains at a spacing below merge_tol, plus repeats and arbitrary values.
    chains = [r + k * spacing * merge_tol for r in raw[:5] for k in range(4)]
    values = np.sort(np.array(raw + chains + raw[:3], dtype=np.float64))
    assert _level_starts(values, merge_tol).tolist() == sequential_starts(
        values, merge_tol
    )
