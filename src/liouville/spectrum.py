"""Critical energy levels and the counting series they carry.

Blowup analysis quantizes the admissible concentration energies: each
level is 8*pi times an integer m plus 8*pi*(1+gamma_l) over a subset
of the singular points. Everything here works with levels normalized
by 8*pi, so a level is m + sum_{l in subset} (1 + gamma_l).
The counting series (1-x)^(chi-N) * prod_l (1 - x^(1+gamma_l)) is a
spectrum with a coefficient on each level, from the same enumeration.
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
    "GeneralizedSeries",
    "enumerate_spectrum",
    "build_generating_function",
    "locate_region",
]

DEFAULT_MERGE_TOL = 1e-9
DEFAULT_LEVEL_LIMIT = 10**6
DEFAULT_CRITICAL_TOL = 1e-8

_INT64_MAX = 2**63 - 1
_DOUBLE_MAX = sys.float_info.max

# The types of a real input; a bool, although an int, is refused apart.
_NUMPY_REALS = (np.floating, np.integer)
_REALS = (float, int, *_NUMPY_REALS)
_BOOLS = frozenset((bool, np.bool_))


def check_integer(value, name: str, nonnegative: bool = False) -> int:
    """value as an int; ValueError unless it is an integer (not a bool)
    in the signed 64-bit range, and with ``nonnegative`` unless it is
    also >= 0."""
    if type(value) is bool or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if nonnegative and value < 0:
        raise ValueError(f"{name} must be nonnegative")
    value = int(value)
    if abs(value) > _INT64_MAX:
        # Stated by size: the value may pass Python's limit of 4300 digits
        # for printing an int.
        raise ValueError(
            f"{name} must lie in the signed 64-bit range, "
            f"got an integer of {value.bit_length()} bits"
        )
    return value


def check_real(value, name: str, low: float, closed=False) -> float:
    """value as a float; ValueError unless it is a real number (not a
    bool) that is finite and above ``low``, or at least ``low`` when
    ``closed``."""
    # Compared before float(), which raises OverflowError on huge ints. A
    # numpy scalar is compared as a double: numpy would cast the bound to a
    # float32's precision, which overflows with a RuntimeWarning.
    x = value
    if type(value) is not float and type(value) is not int:
        x = float(value) if isinstance(value, _NUMPY_REALS) else value
    if type(value) is bool or not isinstance(value, _REALS) or not (
        (low <= x if closed else low < x) and abs(x) <= _DOUBLE_MAX
    ):
        bound = f" and {'>=' if closed else '>'} {low:g}"
        if low == 0.0:
            bound = " and nonnegative" if closed else " and positive"
        elif low == -math.inf:
            bound = ""
        raise ValueError(
            f"{name} must be a real number, finite{bound}, got {value!r}"
        )
    return float(value)


def check_reals(values, name: str, shape: tuple, low=-math.inf, closed=False):
    """values as a read-only float64 array; ValueError unless it has the
    given shape and each entry passes ``check_real(entry, name, low,
    closed)``. In ``shape`` an int is a length and a str names a length
    of at least 1, the same wherever the name recurs. The error names the
    first offending part, as ``name[i][j]``."""
    try:
        arr = np.array(values)
        # np.array([1.0, True]) is float64: a bool among the numbers of
        # a list shows in its entries, not in the dtype.
        ok = (
            arr.dtype.kind in "fiu"
            and _fits(arr.shape, shape)
            and (
                isinstance(values, np.ndarray)
                or _BOOLS.isdisjoint(map(type, _flat(values, arr.ndim)))
            )
        )
    except ValueError:  # ragged
        ok = False
    if ok:
        arr = arr.astype(np.float64, copy=False)
        least = arr.min(initial=math.inf) if low > -math.inf else math.inf
        ok = bool(np.isfinite(arr).all()) and (low <= least if closed else low < least)
    if not ok:
        # Only to name what is wrong; an object array of ints within the
        # double range, such as [2**64], passes.
        actual = _shape_of(values, name, len(shape) + 1)
        if not _fits(actual, shape):
            names = ", ".join(dict.fromkeys(d for d in shape if isinstance(d, str)))
            spec = str(tuple(shape)).replace("'", "")
            raise ValueError(
                f"{name} must have shape {spec}"
                f"{f' with {names} >= 1' if names else ''}, got {actual}"
            )
        entries = np.array(values, dtype=object)
        for index in np.ndindex(actual):
            where = name + "".join(f"[{i}]" for i in index)
            check_real(entries[index], where, low, closed)
        arr = entries.astype(np.float64)
    arr.setflags(write=False)
    return arr


def _flat(values, ndim: int):
    """The entries of nested sequences with ndim levels, in order."""
    return values if ndim == 1 else np.array(values, dtype=object).flat


def _fits(actual: tuple[int, ...], shape: tuple) -> bool:
    """Whether an array of shape ``actual`` has ``shape``, read as in
    ``check_reals``."""
    if len(actual) != len(shape):
        return False
    sizes: dict[str, int] = {}
    for d, k in zip(shape, actual):
        if k != (sizes.setdefault(d, k) or -1 if isinstance(d, str) else d):
            return False
    return True


def _shape_of(values, name: str, depth: int) -> tuple[int, ...]:
    """The shape of nested lists and arrays, read at most ``depth`` levels
    deep; ValueError naming the first part whose shape differs from that
    of its first sibling."""
    if isinstance(values, np.ndarray):
        return values.shape
    if not depth or not isinstance(values, (list, tuple)):
        return ()
    shapes = [_shape_of(v, f"{name}[{i}]", depth - 1) for i, v in enumerate(values)]
    for i, s in enumerate(shapes):
        if s != shapes[0]:
            raise ValueError(
                f"{name}[{i}] has shape {s}, but {name}[0] has shape {shapes[0]}"
            )
    return (len(values), *(shapes[0] if shapes else ()))


@dataclass(frozen=True)
class SingularitySet:
    """Singular source strengths, optionally with their locations.

    Each strength gamma_l must exceed -1. Positions are only needed by
    the torus solver; degree counting uses the strengths alone.
    """

    gammas: tuple[float, ...]
    positions: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        gammas = tuple(
            [check_real(g, f"gamma[{l}]", -1.0) for l, g in enumerate(self.gammas)]
        )
        object.__setattr__(self, "gammas", gammas)
        if self.positions is not None:
            where = check_reals(self.positions, "position", (len(gammas), 2))
            positions = tuple(map(tuple, where.tolist()))
            object.__setattr__(self, "positions", positions)
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
    """Strictly increasing normalized levels n_1 < n_2 < ... within (0, cap].

    Level i spans its merged candidates, from ``levels[i]`` to its last
    member; ``tops`` maps i to that last member for each i where they
    differ.
    """

    levels: tuple[float, ...]
    tops: dict[int, float]

    def level(self, k: int) -> float:
        """n_k with the convention n_0 = 0."""
        if k == 0:
            return 0.0
        return self.levels[k - 1]


@dataclass(frozen=True)
class GeneralizedSeries(CriticalSpectrum):
    """Finite sum of integer coefficients against real exponents.

    The constant term is 1; ``coefficients[j]`` belongs to the critical
    level ``levels[j]`` and is zero where its contributions cancel.
    """

    coefficients: tuple[int, ...]

    def sorted_terms(self) -> list[tuple[float, int]]:
        """(exponent value, coefficient) pairs in increasing exponent
        order, zero coefficients left out."""
        out = [(0.0, 1)]
        out.extend(
            (level, c) for level, c in zip(self.levels, self.coefficients) if c
        )
        return out


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
    return _levels_and_coefficients(singularities, cap, merge_tol)


def build_generating_function(
    chi: int,
    singularities: SingularitySet,
    cap: float,
) -> GeneralizedSeries:
    """Full counting series for Euler characteristic ``chi`` and the
    given sources, truncated at ``cap``.

    Raises as the spectrum does, and also ``ValueError`` if ``chi`` is
    not an integer or some 1+gamma_l is within the merge tolerance (the
    singular factor would cancel the constant term), and
    ``CoefficientOverflow`` if a coefficient leaves the signed 64-bit
    range.
    """
    return _levels_and_coefficients(
        singularities, cap, exponent=check_integer(chi, "chi") - singularities.count
    )


def _levels_and_coefficients(
    singularities: SingularitySet,
    cap: float,
    merge_tol: float = DEFAULT_MERGE_TOL,
    exponent: int | None = None,
) -> CriticalSpectrum:
    """The one enumeration of critical levels, shared by spectrum,
    series and degree.

    Candidates are m + mu_S for integers m >= 0 and source subsets S,
    with mu_S accumulated in ascending source order, so every caller
    sees the same floats. Candidates in (0, cap] are sorted once and
    merged once: a value joins the open level while it lies within
    ``merge_tol`` of the level's smallest member, which names the level.

    With an ``exponent`` e, the result is a series whose levels carry
    their coefficients in (1-x)^e * prod_l (1 - x^mu_l): the exact sum
    of (-1)^|S| c_m over the candidates, c_m being the x^m coefficient
    of (1-x)^e. The constant term c_0 = 1 is not a level.

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
    cap = check_real(cap, "cap", 0.0)
    merge_tol = check_real(merge_tol, "merge_tol", 0.0, closed=True)
    mus = singularities.mus
    rungs = math.ceil(cap) + 1
    if rungs << len(mus) > DEFAULT_LEVEL_LIMIT:
        # Stated as a product: the count itself may pass Python's limit of
        # 4300 digits for printing an int.
        raise TooManyLevels(
            f"(ceil(cap)+1) * 2^N = {rungs} * 2^{len(mus)} candidate levels "
            f"exceed the limit {DEFAULT_LEVEL_LIMIT}; reduce cap or the "
            f"number of sources"
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
    firsts = values[starts]
    lasts = np.maximum.reduceat(values, starts)
    wide = np.flatnonzero(lasts != firsts)
    levels = tuple(firsts.tolist())
    tops = dict(zip(wide.tolist(), lasts[wide].tolist()))
    if exponent is None:
        return CriticalSpectrum(levels, tops)

    m, j = np.divmod(kept, sums.size)
    widest = int(np.diff(starts, append=values.size).max(initial=0))
    bound = max(map(abs, ladder)) * int(np.abs(signs).max()) * widest
    dtype = np.int64 if bound <= _INT64_MAX else object
    terms = signs.astype(dtype)[j] * np.array(ladder, dtype=dtype)[m]
    coefficients = np.add.reduceat(terms, starts).tolist()
    if dtype is object:
        for level, c in zip(levels, coefficients):
            _check_int64(c, level)
    return GeneralizedSeries(levels, tops, tuple(coefficients))


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
    ladder = []
    for m in range(top + 1):
        c = (-1) ** m * math.comb(e, m) if e >= 0 else math.comb(m - e - 1, -e - 1)
        _check_int64(c, float(m))
        ladder.append(c)
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
        If q is not finite and positive or ``tol`` is not finite and
        nonnegative.
    OnCriticalSurface
        If q lies within ``tol`` of the span of some level n_k, from its
        first to its last merged member.
    OutOfRange
        If q exceeds the largest enumerated level, so no upper neighbor
        is known.
    """
    q = check_real(q, "normalized energy", 0.0)
    tol = check_real(tol, "critical tolerance", 0.0, closed=True)
    levels = spectrum.levels
    idx = bisect_left(levels, q)
    # Spans are disjoint and ordered, and levels[idx - 1] < q <= levels[idx],
    # so only the span of level idx - 1 can reach up to q.
    if idx > 0:
        last = spectrum.tops.get(idx - 1, levels[idx - 1])
        if q - last <= tol:
            raise OnCriticalSurface(idx, levels[idx - 1], q)
    if idx < len(levels) and levels[idx] - q <= tol:
        raise OnCriticalSurface(idx + 1, levels[idx], q)
    if idx >= len(levels):
        top = levels[-1] if levels else 0.0
        raise OutOfRange(
            f"q = {q!r} exceeds the largest enumerated level {top!r}; "
            f"raise the cap"
        )
    return idx
