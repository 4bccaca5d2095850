"""Generating function whose partial coefficient sums count solutions.

The counting function is (1-x)^(chi-N) * prod_l (1 - x^(1+gamma_l)),
expanded with exponents of the form m + sum of (1+gamma_l) over a
subset of sources, exactly the critical levels. The expansion comes
from the same single enumeration as the spectrum, so every term sits on
a spectrum level bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .spectrum import (
    DEFAULT_MERGE_TOL,
    SingularitySet,
    _levels_and_coefficients,
)

__all__ = [
    "GeneralizedSeries",
    "build_generating_function",
]


@dataclass(frozen=True)
class GeneralizedSeries:
    """Finite sum of integer coefficients against real exponents.

    The constant term is 1; ``coefficients[j]`` belongs to the critical
    level ``levels[j]`` and is zero where its contributions cancel.
    """

    levels: tuple[float, ...]
    coefficients: tuple[int, ...]

    def sorted_terms(self) -> list[tuple[float, int]]:
        """(exponent value, coefficient) pairs in increasing exponent
        order, zero coefficients left out."""
        out = [(0.0, 1)]
        out.extend(
            (level, c) for level, c in zip(self.levels, self.coefficients) if c
        )
        return out

    def constant_term(self) -> int:
        return 1


def build_generating_function(
    chi: int,
    singularities: SingularitySet,
    cap: float,
    merge_tol: float = DEFAULT_MERGE_TOL,
) -> GeneralizedSeries:
    """Full counting series for Euler characteristic ``chi`` and the
    given sources, truncated at ``cap``.

    Raises
    ------
    ValueError
        If some 1+gamma_l <= merge_tol: the singular factor would merge
        into the constant term and cancel it.
    TooManyLevels
        If (ceil(cap)+1) * 2^N exceeds ``DEFAULT_LEVEL_LIMIT``, as for
        the spectrum.
    CoefficientOverflow
        If a coefficient leaves the signed 64-bit range.
    """
    levels, coefficients = _levels_and_coefficients(
        singularities, cap, merge_tol, exponent=int(chi) - singularities.count
    )
    return GeneralizedSeries(levels, coefficients)
