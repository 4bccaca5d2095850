"""Blow-up mass identities: the Pohozaev hypersurface and its consequences.

Local masses sigma_i concentrating at a point of weight mu = 1+gamma
satisfy sum_ij a_ij sigma_i sigma_j = 4 mu sum_i sigma_i. Everything
downstream of blowup analysis reduces to this quadric: minimal-mass
bounds, comparison between blowup points, and the critical surfaces
swept out in rho-space.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .degree import nearest_integer, normalized_energy
from .errors import DegenerateDirection, NumericOverflow
from .matrix import ConditionReport, Violation, as_interaction_matrix

__all__ = [
    "MassVector",
    "pohozaev_residual",
    "solve_mass_on_hypersurface",
    "minimal_mass_check",
    "energy_scaling_between_points",
    "nonsimple_blowup_admissible",
    "local_mass_split",
    "critical_surface_from_blowup",
]

FloatVector = NDArray[np.float64]


@dataclass(frozen=True)
class MassVector:
    """Local masses at one blowup point of weight mu = 1 + gamma > 0."""

    sigma: FloatVector
    mu: float

    def __post_init__(self) -> None:
        sigma = np.array(self.sigma, dtype=np.float64)
        if sigma.ndim != 1:
            raise ValueError("sigma must be a vector")
        if not np.all(np.isfinite(sigma)) or np.any(sigma < 0.0):
            raise ValueError("sigma components must be finite and nonnegative")
        sigma.setflags(write=False)
        object.__setattr__(self, "sigma", sigma)
        if not 0.0 < self.mu <= sys.float_info.max:
            raise ValueError(f"mu = {self.mu!r} must be positive and finite")


def pohozaev_residual(a, masses: MassVector) -> float:
    """sum_ij a_ij sigma_i sigma_j - 4 mu sum_i sigma_i, zero on the
    hypersurface.

    Raises
    ------
    NumericOverflow
        If the residual leaves the double range.
    """
    m = as_interaction_matrix(a)
    s = masses.sigma
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(s @ m.entries @ s - 4.0 * masses.mu * s.sum())
    if not math.isfinite(value):
        raise NumericOverflow(
            f"the Pohozaev residual is {value!r}: sigma^T A sigma or "
            f"4 mu sum(sigma) leaves the double range"
        )
    return value


def solve_mass_on_hypersurface(a, mu: float, direction) -> MassVector:
    """Unique positive multiple of ``direction`` on the Pohozaev
    hypersurface: t = 4 mu (sum d) / (d^T A d).

    Raises
    ------
    DegenerateDirection
        If the quadratic energy d^T A d is not positive.
    NumericOverflow
        If d^T A d or the masses leave the double range.
    """
    m = as_interaction_matrix(a)
    d = np.asarray(direction, dtype=np.float64)
    if d.ndim != 1 or d.shape[0] != m.n:
        raise ValueError(f"direction must be a vector of length {m.n}")
    if np.any(d <= 0.0):
        raise ValueError("direction components must be strictly positive")
    # The masses do not change when d is scaled. Scaling by a power of
    # two brings d^T A d into range and, where no intermediate leaves the
    # normal range, rounds exactly as before, so the masses keep their
    # bits. A direction whose smallest component would underflow to 0
    # is left unscaled.
    scaled = np.ldexp(d, -math.frexp(float(d.max()))[1])
    if np.all(scaled > 0.0):
        d = scaled
    with np.errstate(over="ignore", invalid="ignore"):
        quad = float(d @ m.entries @ d)
        if quad <= 0.0:
            raise DegenerateDirection(
                f"direction has quadratic energy {quad!r} <= 0, "
                f"no positive mass scale exists"
            )
        sigma = 4.0 * mu * float(d.sum()) / quad * d
    if not (math.isfinite(quad) and np.all(np.isfinite(sigma))):
        raise NumericOverflow(
            "the masses along this direction leave the double range"
        )
    return MassVector(sigma, mu)


def minimal_mass_check(a, masses: MassVector) -> ConditionReport:
    """Fully-bubbling lower bound: m_i = sum_j a_ij sigma_j > 2 mu for
    every component; NumericOverflow if some m_i leaves the double range."""
    m = as_interaction_matrix(a)
    with np.errstate(over="ignore", invalid="ignore"):
        minimal = m.entries @ masses.sigma
    if not np.all(np.isfinite(minimal)):
        raise NumericOverflow("a minimal mass m_i leaves the double range")
    bound = 2.0 * masses.mu
    violations = tuple(
        Violation("minimal-mass", (i,), float(minimal[i]))
        for i in range(m.n)
        if not (minimal[i] > bound)
    )
    return ConditionReport(violations)


def energy_scaling_between_points(sigma_p: MassVector, mu_q: float) -> MassVector:
    """Masses seen from a blowup point of weight mu_q: scale by mu_q/mu_p."""
    if not 0.0 < mu_q <= sys.float_info.max:
        raise ValueError(f"mu_q = {mu_q!r} must be positive and finite")
    return MassVector((mu_q / sigma_p.mu) * sigma_p.sigma, mu_q)


def nonsimple_blowup_admissible(gamma: float) -> bool:
    """Whether non-simple blowup is possible at strength gamma: only when
    mu = 1 + gamma is a positive integer, up to ``nearest_integer``."""
    if not -1.0 < gamma <= sys.float_info.max:
        raise ValueError(f"gamma = {gamma!r} must be finite and exceed -1")
    nearest = nearest_integer(1.0 + gamma)
    return nearest is not None and nearest >= 1


def _blowup_weights(mus) -> NDArray[np.float64]:
    """The weights mu_l of the blowup points, checked to be a nonempty
    vector of positive numbers with 8 pi sum_l mu_l finite."""
    mus = np.asarray(mus, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        total = 8.0 * math.pi * mus.sum()
    if mus.ndim != 1 or not (mus.size and np.all(mus > 0) and np.isfinite(total)):
        raise ValueError("mus must be positive weights with a finite total")
    return mus


def local_mass_split(rho, mus) -> NDArray[np.float64]:
    """Split total masses over blowup points proportionally to their
    weights: sigma_{i,l} = rho_i mu_l / (2 pi sum_s mu_s).

    Rows reconstruct rho: 2 pi sum_l sigma_{i,l} = rho_i. ValueError
    unless every rho_i is finite and nonnegative and the mu_l are a
    nonempty vector of positive numbers with a finite total.
    """
    rho = np.asarray(rho, dtype=np.float64)
    if not np.all((rho >= 0.0) & (rho <= sys.float_info.max)):
        raise ValueError("all masses rho_i must be finite and nonnegative")
    mus = _blowup_weights(mus)
    return rho[:, None] * (mus[None, :] / (2.0 * math.pi * mus.sum()))


def critical_surface_from_blowup(a, rho, mus) -> float:
    """Residual of the critical surface swept by blowup with weights
    mu_l: sum_ij a_ij rho_i rho_j - 8 pi (sum_l mu_l) (sum_i rho_i).

    Zero exactly when the instance sits at normalized level sum(mus).
    It is formed as 8 pi (sum_i rho_i) (q - sum_l mu_l) from the
    normalized energy q.

    Raises
    ------
    ValueError
        As for the weights in ``local_mass_split``.
    NegativeRho, ZeroMass, NumericOverflow
        As for ``normalized_energy``; NumericOverflow also if the
        residual leaves the double range.
    """
    mus = _blowup_weights(mus)
    q = normalized_energy(rho, a)
    scale = 8.0 * math.pi * float(np.sum(rho, dtype=np.float64))
    value = scale * (q - float(mus.sum()))
    if not math.isfinite(value):
        raise NumericOverflow(f"the residual {value!r} leaves the double range")
    return value
