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
from .spectrum import (
    DEFAULT_CRITICAL_TOL,
    SingularitySet,
    build_generating_function,
    check_integer,
    check_real,
    check_reals,
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

    def __post_init__(self) -> None:
        object.__setattr__(self, "chi", check_integer(self.chi, "chi"))

    @classmethod
    def closed_surface(cls, genus: int) -> "SurfaceSpec":
        return cls(2 - 2 * check_integer(genus, "genus", nonnegative=True))

    @classmethod
    def planar_domain(cls, holes: int) -> "SurfaceSpec":
        return cls(1 - check_integer(holes, "holes", nonnegative=True))

    @classmethod
    def from_chi(cls, chi: int) -> "SurfaceSpec":
        return cls(chi)

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
        rho = check_reals(self.rho, "rho", (self.matrix.n,))
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
    ValueError
        Unless rho is a vector of n finite real numbers.
    NegativeRho
        If some rho_i < 0.
    ZeroMass
        If sum(rho) <= 0.
    NumericOverflow
        If the energy or the total mass leaves the double range, or q
        is positive but below the smallest positive double.
    """
    m = as_interaction_matrix(a)
    return _normalized_energy(check_reals(rho, "rho", (m.n,)), m)


def _normalized_energy(rho: FloatVector, m: InteractionMatrix) -> float:
    """normalized_energy of a rho that ``check_reals`` has already passed."""
    if np.any(rho < 0.0):
        i = int(np.argmin(rho))
        raise NegativeRho(f"rho[{i}] = {float(rho[i])!r} is negative")
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
    q = _normalized_energy(p.rho, p.matrix)
    cap = check_real(cap, "cap", 0.0)
    if cap < q:
        raise OutOfRange(f"normalized energy {q!r} exceeds the cap {cap!r}")
    series = build_generating_function(p.surface.chi, p.singularities, cap)
    k = locate_region(q, series, tol)
    partial = (1,) + series.coefficients[:k]
    return DegreeResult(
        degree=sum(partial),
        region_k=k,
        q_normalized=q,
        nearest_levels=(series.level(k), series.level(k + 1)),
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
            f"prescribed mass component {i} is {float(vec[i])!r} <= 0",
            NegativeMassWarning,
            stacklevel=2,
        )
    vec.setflags(write=False)
    return vec


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
    rho = np.where(np.abs(rho) <= 1e-12 * np.abs(rho).max(), 0.0, rho)
    instance = ProblemInstance(SurfaceSpec.torus(), singularities, m, rho)
    q = _normalized_energy(instance.rho, m)
    expected_q = total / 2.0
    if abs(q - expected_q) > _INTEGER_TOL * max(1.0, expected_q):
        raise RuntimeError(
            f"internal error: forced-mass energy {q!r} is not {expected_q!r}"
        )
    # Odd total forces some even factor 1+gamma_l, so the halving is exact.
    degree = math.prod(1 + g for g in gammas_int) // 2
    cap = max(DEFAULT_CAP, float(total) + 1.0)
    generic = leray_schauder_degree(instance, cap=cap)
    if generic.degree != degree:
        raise RuntimeError(
            f"internal error: closed form {degree} disagrees with the "
            f"series route {generic.degree}"
        )
    return TorusDegree(degree, instance.rho, q)


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
