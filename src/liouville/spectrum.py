"""Critical energy levels generated by topology and singular sources.

Blowup analysis quantizes the admissible concentration energies: each
level is 8*pi times an integer m plus 8*pi*(1+gamma_l) over a subset
of the singular points. Everything here works with levels normalized
by 8*pi, so a level is m + sum_{l in subset} (1 + gamma_l).
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import (
    CoefficientOverflow,
    OnCriticalSurface,
    OutOfRange,
    TooManyLevels,
)

__all__ = [
    "SingularitySet",
    "CriticalSpectrum",
    "enumerate_spectrum",
    "locate_region",
]

DEFAULT_MERGE_TOL = 1e-9
DEFAULT_LEVEL_LIMIT = 10**6
DEFAULT_CRITICAL_TOL = 1e-8

_INT64_MAX = 2**63 - 1


@dataclass(frozen=True)
class SingularitySet:
    """Singular source strengths, optionally with their locations.

    Each strength gamma_l must exceed -1. Positions are only needed by
    the torus solver; degree counting uses the strengths alone.
    """

    gammas: tuple[float, ...]
    positions: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        gammas = tuple(self.gammas)
        # Checked before float(), which raises OverflowError on huge ints.
        for l, g in enumerate(gammas):
            if not -1.0 < g <= sys.float_info.max:
                raise ValueError(f"gamma[{l}] = {g!r} must be finite and > -1")
        object.__setattr__(self, "gammas", tuple(map(float, gammas)))
        if self.positions is not None:
            positions = tuple((p[0], p[1]) for p in self.positions)
            for l, p in enumerate(positions):
                if not all(abs(x) <= sys.float_info.max for x in p):
                    raise ValueError(f"position[{l}] = {p!r} must be finite")
            positions = tuple((float(x), float(y)) for x, y in positions)
            object.__setattr__(self, "positions", positions)
            if len(positions) != len(gammas):
                raise ValueError(
                    f"{len(positions)} positions for {len(gammas)} strengths"
                )
            if len(set(positions)) != len(positions):
                raise ValueError("singular positions must be pairwise distinct")

    @classmethod
    def empty(cls) -> "SingularitySet":
        return cls(())

    @property
    def count(self) -> int:
        return len(self.gammas)

    @property
    def mus(self) -> tuple[float, ...]:
        """Shift amounts mu_l = 1 + gamma_l, all positive."""
        return tuple(1.0 + g for g in self.gammas)

    @property
    def total_gamma(self) -> float:
        return float(sum(self.gammas))


@dataclass(frozen=True)
class CriticalSpectrum:
    """Strictly increasing normalized levels n_1 < n_2 < ... within (0, cap]."""

    levels: tuple[float, ...]

    def level(self, k: int) -> float:
        """n_k with the convention n_0 = 0."""
        if k == 0:
            return 0.0
        return self.levels[k - 1]


def enumerate_spectrum(
    singularities: SingularitySet,
    cap: float,
    merge_tol: float = DEFAULT_MERGE_TOL,
) -> CriticalSpectrum:
    """All normalized critical levels up to ``cap``.

    Candidate values are m + sum of mu_l over a subset, for m in
    0..ceil(cap) and every subset of the sources; 0 is excluded and
    values within ``merge_tol`` collapse onto the smallest of them.

    Raises
    ------
    TooManyLevels
        If (ceil(cap)+1) * 2^N candidates exceed ``DEFAULT_LEVEL_LIMIT``.
    """
    levels, _ = _levels_and_coefficients(singularities, cap, merge_tol)
    return CriticalSpectrum(levels)


def _levels_and_coefficients(
    singularities: SingularitySet,
    cap: float,
    merge_tol: float,
    exponent: int | None = None,
) -> tuple[tuple[float, ...], tuple[int, ...] | None]:
    """The one enumeration of critical levels, shared by spectrum,
    series and degree.

    Candidates are m + mu_S for integers m >= 0 and source subsets S,
    with mu_S accumulated in ascending source order, so every caller
    sees the same floats. Candidates in (0, cap] are sorted once and
    merged once: a value joins the open level while it lies within
    ``merge_tol`` of the level's smallest member, which names the level.

    With an ``exponent`` e, each level also gets its coefficient in
    (1-x)^e * prod_l (1 - x^mu_l): the exact sum of (-1)^|S| c_m over
    its candidates, c_m being the x^m coefficient of (1-x)^e. The
    constant term c_0 = 1 is not a level.

    Raises
    ------
    ValueError
        If ``cap`` is not positive and finite, ``merge_tol`` is not
        finite and nonnegative, or, with an exponent, some
        1+gamma_l <= merge_tol: that factor would merge into the
        constant term and cancel it.
    TooManyLevels
        If (ceil(cap)+1) * 2^N exceeds ``DEFAULT_LEVEL_LIMIT``.
    CoefficientOverflow
        If a coefficient of (1-x)^e or of the product leaves the signed
        64-bit range.
    """
    if not 0.0 < cap <= sys.float_info.max:
        raise ValueError(f"cap must be positive and finite, got {cap!r}")
    if not 0.0 <= merge_tol <= sys.float_info.max:
        raise ValueError(
            f"merge_tol must be finite and nonnegative, got {merge_tol!r}"
        )
    mus = singularities.mus
    candidates = (math.ceil(cap) + 1) * (1 << len(mus))
    if candidates > DEFAULT_LEVEL_LIMIT:
        raise TooManyLevels(
            f"{candidates} candidate levels exceed the limit "
            f"{DEFAULT_LEVEL_LIMIT}; reduce cap or the number of sources"
        )
    top = math.floor(cap)
    if exponent is not None:
        for l, mu in enumerate(mus):
            if mu <= merge_tol:
                raise ValueError(
                    f"gamma[{l}] is within merge tolerance of -1; "
                    f"the expansion cannot resolve it"
                )
        ladder = _binomial_ladder(exponent, top)

    # Distinct subset sums with their signed counts sum_S (-1)^|S|.
    # Every mu is positive, so a partial sum above the cap stays above
    # it and can be dropped; equal partial sums stay equal under the
    # same additions and can be pooled. Neither loses a candidate.
    sums = np.zeros(1)
    signs = np.ones(1, dtype=np.int64)
    for mu in mus:
        shifted = sums + mu
        keep = shifted <= cap
        sums, inverse = np.unique(
            np.concatenate((sums, shifted[keep])), return_inverse=True
        )
        pooled = np.zeros(sums.size, dtype=np.int64)
        np.add.at(pooled, inverse, np.concatenate((signs, -signs[keep])))
        signs = pooled

    flat = (np.arange(top + 1, dtype=np.float64)[:, None] + sums).ravel()
    kept = np.flatnonzero((flat > 0.0) & (flat <= cap))
    kept = kept[np.argsort(flat[kept])]
    values = flat[kept]
    starts = _level_starts(values, merge_tol)
    levels = tuple(values[starts].tolist())
    if exponent is None:
        return levels, None

    m, j = np.divmod(kept, sums.size)
    widest = int(np.diff(starts, append=values.size).max(initial=0))
    bound = max(map(abs, ladder)) * int(np.abs(signs).max()) * widest
    dtype = np.int64 if bound <= _INT64_MAX else object
    terms = signs.astype(dtype)[j] * np.array(ladder, dtype=dtype)[m]
    coefficients = np.add.reduceat(terms, starts).tolist()
    if dtype is object:
        for level, c in zip(levels, coefficients):
            _check_int64(c, level)
    return levels, tuple(coefficients)


def _level_starts(values: np.ndarray, merge_tol: float) -> np.ndarray:
    """Indices in the sorted ``values`` where a level opens.

    A value opens a level when it lies more than ``merge_tol`` above
    the open level's anchor (its first value). Equal floats share a
    level. A value more than ``merge_tol`` above its predecessor always
    opens one, since the anchor is at most that predecessor, so only
    the distinct values within ``merge_tol`` of their predecessor are
    walked: their anchor is the later of the last such gap and the last
    level the walk itself opened.
    """
    gaps = np.diff(values, prepend=-np.inf)
    opens = np.flatnonzero(gaps > merge_tol)
    near = np.flatnonzero((gaps > 0.0) & (gaps <= merge_tol))
    if near.size == 0:
        return opens
    # values[0] opens a level, so every near index has an earlier opener.
    gap_anchors = opens[np.searchsorted(opens, near) - 1]
    walked: list[int] = []
    last = -1
    for i, a in zip(near.tolist(), gap_anchors.tolist()):
        if values.item(i) - values.item(max(a, last)) > merge_tol:
            walked.append(i)
            last = i
    return np.sort(np.concatenate((opens, np.array(walked, dtype=opens.dtype))))


def _binomial_ladder(e: int, top: int) -> list[int]:
    """Coefficients c_0..c_top of (1-x)^e.

    For e >= 0 this is the finite binomial row; otherwise
    c_m = C(m + K - 1, K - 1) with K = -e.
    """
    if e >= 0:
        ladder = [(-1) ** m * math.comb(e, m) for m in range(top + 1)]
    else:
        ladder = [math.comb(m - e - 1, -e - 1) for m in range(top + 1)]
    for m, c in enumerate(ladder):
        _check_int64(c, float(m))
    return ladder


def _check_int64(coefficient: int, exponent: float) -> None:
    if abs(coefficient) > _INT64_MAX:
        raise CoefficientOverflow(
            f"coefficient {coefficient} at exponent {exponent!r} "
            f"leaves the signed 64-bit range"
        )


def locate_region(
    q: float,
    spectrum: CriticalSpectrum,
    tol: float = DEFAULT_CRITICAL_TOL,
) -> int:
    """Index k of the region n_k < q < n_{k+1} between consecutive levels.

    Returns 0 for q below the first level.

    Raises
    ------
    ValueError
        If q is not positive or ``tol`` is not finite and nonnegative.
    OnCriticalSurface
        If q lies within ``tol`` of some level n_k.
    OutOfRange
        If q exceeds the largest enumerated level, so no upper neighbor
        is known.
    """
    if not (q > 0.0):
        raise ValueError(f"normalized energy must be positive, got {q!r}")
    if not 0.0 <= tol <= sys.float_info.max:
        raise ValueError(
            f"critical tolerance must be finite and nonnegative, got {tol!r}"
        )
    levels = spectrum.levels
    idx = bisect_left(levels, q)
    for i in (idx - 1, idx):
        if 0 <= i < len(levels) and abs(q - levels[i]) <= tol:
            raise OnCriticalSurface(i + 1, levels[i], q)
    if idx >= len(levels):
        top = levels[-1] if levels else 0.0
        raise OutOfRange(
            f"q = {q!r} exceeds the largest enumerated level {top!r}; "
            f"raise the cap"
        )
    return idx
