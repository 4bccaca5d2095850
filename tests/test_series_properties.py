"""Property tests for the counting series with real strengths.

The coefficient oracle is a plain double loop over (integer offset,
source subset) in Python integers, followed by one anchor-rule merge:
a value joins the open cluster while it lies within the merge tolerance
of the cluster's smallest member. Subset sums accumulate in ascending
source order, the order the package documents, so exponents compare
bit for bit.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from test_level_walk_properties import near_tie_strengths

from liouville import (
    InteractionMatrix,
    OnCriticalSurface,
    OutOfRange,
    ProblemInstance,
    SingularitySet,
    SurfaceSpec,
    build_generating_function,
    leray_schauder_degree,
)

MERGE_TOL = 1e-9

strengths = st.lists(
    st.floats(-0.9, 4.0, exclude_min=True, exclude_max=True), max_size=6
)
chis = st.integers(-4, 2)
caps = st.floats(1e-3, 12.0)

property_settings = settings(
    max_examples=150, deadline=None, derandomize=True, database=None
)


def truncated_power(e: int, top: int) -> list[int]:
    """Coefficients of (1-x)^e up to x^top by repeated multiplication."""
    factor = [1, -1] if e >= 0 else [1] * (top + 1)
    acc = [1] + [0] * top
    for _ in range(abs(e)):
        out = [0] * (top + 1)
        for i, a in enumerate(acc):
            for j, b in enumerate(factor[: top + 1 - i]):
                out[i + j] += a * b
        acc = out
    return acc


def oracle_clusters(chi, gammas, cap):
    """[first, last, coefficient] of each anchor-rule cluster of the
    candidates up to the cap, the constant term's cluster first."""
    mus = [1.0 + g for g in gammas]
    top = math.floor(cap)
    ladder = truncated_power(chi - len(mus), top)
    raw = []
    for m in range(top + 1):
        for mask in range(1 << len(mus)):
            s, sign = 0.0, 1
            for l, mu in enumerate(mus):
                if mask >> l & 1:
                    s += mu
                    sign = -sign
            value = float(m) + s
            if value <= cap:
                raw.append((value, sign * ladder[m]))
    raw.sort()
    clusters = []
    for value, c in raw:
        if clusters and value - clusters[-1][0] <= MERGE_TOL:
            clusters[-1][1] = value
            clusters[-1][2] += c
        else:
            clusters.append([value, value, c])
    return clusters


def oracle_terms(chi, gammas, cap):
    return [(v, c) for v, _, c in oracle_clusters(chi, gammas, cap) if c != 0]


@property_settings
@given(gammas=strengths, chi=chis, cap=caps)
def test_coefficients_match_the_double_loop(gammas, chi, cap):
    g = build_generating_function(chi, SingularitySet(tuple(gammas)), cap)
    assert g.sorted_terms() == oracle_terms(chi, gammas, cap)


def degree_outcome(chi, gammas, cap, q):
    instance = ProblemInstance(
        SurfaceSpec.from_chi(chi),
        SingularitySet(tuple(gammas)),
        InteractionMatrix([[1.0]]),
        np.array([8.0 * math.pi * q]),
    )
    try:
        return leray_schauder_degree(instance, cap=cap).degree
    except (OnCriticalSurface, OutOfRange) as exc:
        return type(exc).__name__


@property_settings
@given(gammas=strengths, chi=chis, cap=caps, data=st.data())
def test_permuting_sources_changes_nothing(gammas, chi, cap, data):
    order = data.draw(st.permutations(range(len(gammas))))
    shuffled = [gammas[i] for i in order]
    q = data.draw(st.floats(1e-3, cap))

    g = build_generating_function(chi, SingularitySet(tuple(gammas)), cap)
    h = build_generating_function(chi, SingularitySet(tuple(shuffled)), cap)
    assert h.coefficients == g.coefficients
    assert len(h.levels) == len(g.levels)
    if g.levels:
        assert np.max(np.abs(np.subtract(h.levels, g.levels))) <= MERGE_TOL
    assert degree_outcome(chi, shuffled, cap, q) == degree_outcome(
        chi, gammas, cap, q
    )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    case=near_tie_strengths().filter(lambda case: case[1] == MERGE_TOL),
    chi=chis,
    cap=st.floats(1.0, 6.0),
    tol=st.sampled_from([0.0, 1e-12, 1e-9, 1e-8]),
    data=st.data(),
)
def test_no_degree_is_answered_from_inside_a_level(case, chi, cap, tol, data):
    gammas, _ = case
    # Each level's (first, last) member; the constant term is no level.
    spans = [(lo, hi) for lo, hi, _ in oracle_clusters(chi, gammas, cap)[1:]]
    first, last = data.draw(st.sampled_from(spans))
    # q at, between, or just beyond the first and last members.
    q = first + data.draw(st.floats(-0.5, 1.5)) * (last - first)
    q += data.draw(st.sampled_from([0.0, 5e-11, -5e-11, 1e-12, -1e-12]))
    instance = ProblemInstance(
        SurfaceSpec.from_chi(chi),
        SingularitySet(tuple(gammas)),
        InteractionMatrix([[1.0]]),
        np.array([8.0 * math.pi * q]),
    )
    try:
        result = leray_schauder_degree(instance, cap=cap, tol=tol)
    except (OnCriticalSurface, OutOfRange):
        return
    q = result.q_normalized
    # The distance from q to each span [first, last] exceeds tol.
    assert not any(lo - q <= tol and q - hi <= tol for lo, hi in spans)
