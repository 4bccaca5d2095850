"""Leray-Schauder degree of a coupled mean field system.

The degree in the region between consecutive critical levels
n_k < q < n_{k+1} is the partial sum b_0 + ... + b_k of the counting
series, where q is the interaction energy normalized by 8*pi times the
total mass. On the flat torus with positive integer strengths of odd
total, the forced-mass instance has the closed form (1/2) prod (1+gamma_l).
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .errors import (
    HypothesisViolation,
    NegativeMassWarning,
    NegativeRho,
    NumericOverflow,
    OutOfRange,
    PreconditionFailed,
    ZeroMass,
)
from .matrix import InteractionMatrix, as_interaction_matrix, check_h1, check_h2
from .series import build_generating_function
from .spectrum import (
    DEFAULT_CRITICAL_TOL,
    DEFAULT_MERGE_TOL,
    CriticalSpectrum,
    SingularitySet,
    locate_region,
)

__all__ = [
    "SurfaceSpec",
    "ProblemInstance",
    "DegreeResult",
    "TorusDegree",
    "ExistenceCertificate",
    "normalized_energy",
    "leray_schauder_degree",
    "torus_special_degree",
    "existence_certificate",
    "prescribed_masses",
]

FloatVector = NDArray[np.float64]

DEFAULT_CAP = 20.0

_INTEGER_TOL = 1e-9


@dataclass(frozen=True)
class SurfaceSpec:
    """Topology of the underlying space, reduced to its Euler characteristic."""

    chi: int

    @classmethod
    def closed_surface(cls, genus: int) -> "SurfaceSpec":
        genus = int(genus)
        if genus < 0:
            raise ValueError("genus must be nonnegative")
        return cls(2 - 2 * genus)

    @classmethod
    def planar_domain(cls, holes: int) -> "SurfaceSpec":
        holes = int(holes)
        if holes < 0:
            raise ValueError("holes must be nonnegative")
        return cls(1 - holes)

    @classmethod
    def from_chi(cls, chi: int) -> "SurfaceSpec":
        return cls(int(chi))

    @classmethod
    def torus(cls) -> "SurfaceSpec":
        return cls.closed_surface(1)


@dataclass(frozen=True)
class ProblemInstance:
    """A full degree query: topology, sources, coupling, and masses."""

    surface: SurfaceSpec
    singularities: SingularitySet
    matrix: InteractionMatrix
    rho: FloatVector

    def __post_init__(self) -> None:
        rho = np.array(self.rho, dtype=np.float64)
        if rho.ndim != 1 or rho.shape[0] != self.matrix.n:
            raise ValueError(
                f"rho must be a vector of length {self.matrix.n}, "
                f"got shape {rho.shape}"
            )
        if not np.all(np.isfinite(rho)):
            raise ValueError("rho entries must be finite")
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)


@dataclass(frozen=True)
class DegreeResult:
    degree: int
    region_k: int
    q_normalized: float
    nearest_levels: tuple[float, float]
    partial_coefficients: tuple[int, ...]


class TorusDegree(NamedTuple):
    degree: int
    rho: FloatVector
    q: float


@dataclass(frozen=True)
class ExistenceCertificate:
    solvable: bool
    structural: bool
    result: DegreeResult
    explanation: str


def normalized_energy(rho, a) -> float:
    """q = (sum_ij a_ij rho_i rho_j) / (8 pi sum_i rho_i).

    Raises
    ------
    NegativeRho
        If some rho_i < 0.
    ZeroMass
        If sum(rho) <= 0.
    NumericOverflow
        If the energy or the total mass leaves the double range, or q
        is positive but below the smallest positive double.
    """
    m = as_interaction_matrix(a)
    rho = np.asarray(rho, dtype=np.float64)
    if rho.ndim != 1 or rho.shape[0] != m.n:
        raise ValueError(f"rho must be a vector of length {m.n}")
    if np.any(rho < 0.0):
        i = int(np.argmin(rho))
        raise NegativeRho(f"rho[{i}] = {rho[i]!r} is negative")
    quad, scale = _energy_terms(rho, m)
    if scale <= 0.0:
        raise ZeroMass("total mass sum(rho) must be positive")
    if abs(quad) >= sys.float_info.min:
        return quad / scale
    # rho^T A rho is zero or subnormal, so it may have lost its bits to
    # underflow. q scales like rho, so it is formed on rho scaled by an
    # exact power of two and scaled back. The scaled rho has entries up
    # to about 1/sqrt(max |a_ij|), which keeps rho^T A rho near 1.
    entry = float(np.abs(m.entries).max())
    shift = -math.frexp(float(rho.max()))[1] - math.frexp(entry)[1] // 2
    quad, scale = _energy_terms(np.ldexp(rho, shift), m)
    q = quad / scale
    unscaled = math.ldexp(q, -shift)
    if q > 0.0 and unscaled == 0.0:
        raise NumericOverflow(
            f"normalized energy {q!r} * 2^{-shift} is below the smallest "
            f"positive double"
        )
    return unscaled


def _energy_terms(rho, m: InteractionMatrix) -> tuple[float, float]:
    """rho^T A rho and 8 pi sum(rho), both finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(rho.sum())
        quad = float(rho @ m.entries @ rho)
    scale = 8.0 * math.pi * total
    if not (math.isfinite(quad) and math.isfinite(scale)):
        raise NumericOverflow(
            f"rho^T A rho = {quad!r} over 8 pi sum(rho) = {scale!r} "
            f"leaves the double range"
        )
    return quad, scale


def leray_schauder_degree(
    p: ProblemInstance,
    cap: float = DEFAULT_CAP,
    tol: float = DEFAULT_CRITICAL_TOL,
    merge_tol: float = DEFAULT_MERGE_TOL,
) -> DegreeResult:
    """Degree of the instance in its off-critical region.

    Raises
    ------
    HypothesisViolation
        If the coupling matrix fails the standard or strong-interaction
        hypothesis.
    OnCriticalSurface
        If the normalized energy hits a level within ``tol``.
    OutOfRange
        If the normalized energy exceeds the cap or the top enumerated
        level.
    """
    _require_hypotheses(p.matrix)
    q = normalized_energy(p.rho, p.matrix)
    # An invalid cap is left to the enumeration to report.
    if 0.0 < cap < q:
        raise OutOfRange(f"normalized energy {q!r} exceeds the cap {cap!r}")
    series = build_generating_function(
        p.surface.chi, p.singularities, cap, merge_tol
    )
    spectrum = CriticalSpectrum(series.levels)
    k = locate_region(q, spectrum, tol)
    partial = (1,) + series.coefficients[:k]
    return DegreeResult(
        degree=int(sum(partial)),
        region_k=k,
        q_normalized=q,
        nearest_levels=(spectrum.level(k), spectrum.level(k + 1)),
        partial_coefficients=partial,
    )


def prescribed_masses(singularities: SingularitySet, a) -> FloatVector:
    """Component masses forced by the un-normalized formulation:
    rho_i = 4 pi (sum_j a^{ij}) (sum_l gamma_l).

    Warns with ``NegativeMassWarning`` when a component is nonpositive,
    which is inconsistent with the strong-interaction row-sum sign.
    """
    m = as_interaction_matrix(a)
    row_sums = m.inverse().sum(axis=1)
    vec = 4.0 * math.pi * singularities.total_gamma * row_sums
    if np.any(vec <= 0.0):
        i = int(np.argmin(vec))
        warnings.warn(
            f"prescribed mass component {i} is {vec[i]!r} <= 0",
            NegativeMassWarning,
            stacklevel=2,
        )
    out = np.array(vec, dtype=np.float64)
    out.setflags(write=False)
    return out


def torus_special_degree(singularities: SingularitySet, a) -> TorusDegree:
    """Closed-form torus degree (1/2) prod (1+gamma_l) at the forced masses.

    Requires positive integer strengths with odd sum and a coupling
    matrix passing both hypotheses; the result is cross-checked against
    the generating-function route on the induced instance.

    Raises
    ------
    PreconditionFailed
        If some gamma_l is not a positive integer or the sum is even.
    HypothesisViolation
        Propagated from the hypothesis checks.
    """
    m = as_interaction_matrix(a)
    gammas_int = _require_positive_integers(singularities.gammas)
    total = sum(gammas_int)
    if total % 2 == 0:
        raise PreconditionFailed(
            f"sum of strengths is {total}, which is even; the forced-mass "
            f"energy would sit exactly on a critical level"
        )
    _require_hypotheses(m)
    rho = prescribed_masses(singularities, m)
    # An inverse row sum that vanishes analytically comes back as
    # inversion noise of either sign; clamp it so the energy check sees
    # the intended zero mass instead of a spurious negative component.
    scale = float(np.max(np.abs(rho)))
    rho = np.where(np.abs(rho) <= 1e-12 * scale, 0.0, rho)
    rho.setflags(write=False)
    q = normalized_energy(rho, m)
    lower, upper = (total - 1) / 2.0, (total + 1) / 2.0
    expected_q = total / 2.0
    if abs(q - expected_q) > _INTEGER_TOL * max(1.0, expected_q):
        raise RuntimeError(
            f"internal error: forced-mass energy {q!r} is not {expected_q!r}"
        )
    if not (lower < q < upper):
        raise RuntimeError(
            f"internal error: energy {q!r} escapes ({lower!r}, {upper!r})"
        )
    half_product = math.prod(1 + g for g in gammas_int)
    # Odd total forces some even factor 1+gamma_l, so the halving is exact.
    assert half_product % 2 == 0
    degree = half_product // 2
    instance = ProblemInstance(SurfaceSpec.torus(), singularities, m, rho)
    cap = max(DEFAULT_CAP, float(total) + 1.0)
    generic = leray_schauder_degree(instance, cap=cap)
    if generic.degree != degree:
        raise RuntimeError(
            f"internal error: closed form {degree} disagrees with the "
            f"series route {generic.degree}"
        )
    return TorusDegree(degree, rho, q)


def existence_certificate(
    p: ProblemInstance,
    cap: float = DEFAULT_CAP,
    tol: float = DEFAULT_CRITICAL_TOL,
) -> ExistenceCertificate:
    """Solvability certificate: nonzero degree implies a solution.

    Also reports the structural sufficient condition (chi <= 0 and all
    strengths positive integers, or no sources), under which the degree
    is provably positive; this is asserted when it applies.
    """
    result = leray_schauder_degree(p, cap=cap, tol=tol)
    structural = p.surface.chi <= 0 and _all_nonneg_integers(
        p.singularities.gammas
    )
    if structural and result.degree <= 0:
        raise RuntimeError(
            "internal error: structural condition holds but degree is "
            f"{result.degree}"
        )
    solvable = result.degree != 0
    if solvable:
        explanation = f"degree {result.degree} is nonzero, a solution exists"
    else:
        explanation = (
            "degree 0 certifies nothing: existence is undetermined here"
        )
    if structural:
        explanation += (
            "; structural condition (chi <= 0, integer strengths) "
            "guarantees a positive degree in every off-critical region"
        )
    return ExistenceCertificate(solvable, structural, result, explanation)


def _require_hypotheses(m: InteractionMatrix) -> None:
    h1 = check_h1(m)
    if not h1.holds:
        raise HypothesisViolation(
            f"standard hypothesis {h1.describe()}", (h1,)
        )
    h2 = check_h2(m)
    if not h2.holds:
        raise HypothesisViolation(
            f"strong-interaction hypothesis {h2.describe()}", (h2,)
        )


def nearest_integer(x: float) -> int | None:
    """The integer within ``_INTEGER_TOL`` of the finite x, or None."""
    r = round(x)
    return r if abs(x - r) <= _INTEGER_TOL else None


def _require_positive_integers(gammas: tuple[float, ...]) -> list[int]:
    out: list[int] = []
    for l, g in enumerate(gammas):
        r = nearest_integer(g)
        if r is None or r < 1:
            raise PreconditionFailed(
                f"gamma[{l}] = {g!r} is not a positive integer"
            )
        out.append(r)
    return out


def _all_nonneg_integers(gammas: tuple[float, ...]) -> bool:
    return all((r := nearest_integer(g)) is not None and r >= 0 for g in gammas)
