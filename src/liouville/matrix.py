"""Interaction matrices and the structural hypotheses placed on them.

A coupled mean field system is parametrized by a symmetric nonnegative
irreducible invertible matrix A (the standard hypothesis) whose inverse
has nonpositive diagonal, nonnegative off-diagonal entries, and
nonnegative row sums (the strong-interaction hypothesis).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .errors import SingularMatrix

__all__ = [
    "InteractionMatrix",
    "Violation",
    "ConditionReport",
    "invert",
    "irreducible",
    "check_h1",
    "check_h2",
]

FloatMatrix = NDArray[np.float64]

# Inversion quality cutoffs: matrices past either bound are reported singular.
COND_CUTOFF = 1e12
INVERSE_RESIDUAL_FACTOR = 1e-10

DEFAULT_TOL = 1e-10


class InteractionMatrix:
    """Square coupling matrix with a lazily cached inverse."""

    def __init__(self, entries) -> None:
        arr = np.array(entries, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        if arr.size == 0:
            raise ValueError("expected a nonempty matrix")
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix entries must be finite")
        arr.setflags(write=False)
        self._entries = arr
        self._inverse: FloatMatrix | None = None

    @property
    def entries(self) -> FloatMatrix:
        return self._entries

    @property
    def n(self) -> int:
        return self._entries.shape[0]

    def inverse(self) -> FloatMatrix:
        """Inverse entries a^{ij}, computed once and cached.

        Raises
        ------
        SingularMatrix
            If the condition number exceeds ``COND_CUTOFF`` or the
            computed inverse fails the max-norm residual bound
            ``|A A^-1 - I| <= INVERSE_RESIDUAL_FACTOR * |A|``.
        """
        if self._inverse is None:
            a = self._entries
            cond = np.linalg.cond(a)
            if not np.isfinite(cond) or cond > COND_CUTOFF:
                raise SingularMatrix(
                    f"condition number {cond:.3e} exceeds cutoff {COND_CUTOFF:.0e}"
                )
            inv = np.linalg.inv(a)
            residual = np.max(np.abs(a @ inv - np.eye(self.n)))
            bound = INVERSE_RESIDUAL_FACTOR * np.max(np.abs(a))
            if residual > bound:
                raise SingularMatrix(
                    f"inverse residual {residual:.3e} exceeds bound {bound:.3e}"
                )
            inv.setflags(write=False)
            self._inverse = inv
        return self._inverse

    def __repr__(self) -> str:
        return f"InteractionMatrix({self._entries.tolist()!r})"


class Violation(NamedTuple):
    condition: str
    indices: tuple[int, ...]
    value: float


class ConditionReport(NamedTuple):
    """Outcome of a hypothesis check; ``holds`` iff no violations."""

    violations: tuple[Violation, ...]

    @property
    def holds(self) -> bool:
        return not self.violations

    def describe(self) -> str:
        if self.holds:
            return "holds"
        parts = [
            f"{v.condition}{list(v.indices)}={v.value:.6g}" for v in self.violations
        ]
        return "fails: " + "; ".join(parts)


def as_interaction_matrix(a) -> InteractionMatrix:
    """Coerce an array-like to an InteractionMatrix, passing one through."""
    if isinstance(a, InteractionMatrix):
        return a
    return InteractionMatrix(a)


def invert(a) -> FloatMatrix:
    """Inverse entries of the coupling matrix (cached on the instance)."""
    return as_interaction_matrix(a).inverse()


def irreducible(a) -> bool:
    """Connectivity of the coupling graph with edges where a_ij != 0, i != j."""
    m = as_interaction_matrix(a)
    return len(_component_of_zero(m.entries)) == m.n


def check_h1(a, tol: float = DEFAULT_TOL) -> ConditionReport:
    """Standard hypothesis: symmetric, nonnegative, irreducible, invertible.

    Failures are reported, never raised; a singular matrix shows up as an
    ``invertible`` violation.
    """
    m = as_interaction_matrix(a)
    entries = m.entries
    n = m.n
    violations: list[Violation] = []
    for i in range(n):
        for j in range(i + 1, n):
            gap = entries[i, j] - entries[j, i]
            if abs(gap) > tol:
                violations.append(Violation("symmetric", (i, j), float(gap)))
    for i in range(n):
        for j in range(n):
            if entries[i, j] < -tol:
                violations.append(
                    Violation("nonnegative", (i, j), float(entries[i, j]))
                )
    comp = _component_of_zero(entries)
    if len(comp) != n:
        # Witness: the connected component of index 0.
        violations.append(Violation("irreducible", comp, float(len(comp))))
    try:
        m.inverse()
    except SingularMatrix:
        cond = float(np.linalg.cond(entries))
        violations.append(Violation("invertible", (), cond))
    return ConditionReport(tuple(violations))


def check_h2(a, tol: float = DEFAULT_TOL) -> ConditionReport:
    """Strong-interaction hypothesis on the inverse entries a^{ij}.

    Requires a^{ii} <= 0, a^{ij} >= 0 for i != j, and nonnegative row
    sums, all up to ``tol``. Vacuous for n = 1: with a single component
    there is no interaction to constrain, and the literal sign conditions
    would force a^{11} = 0 against invertibility.

    Raises
    ------
    SingularMatrix
        Propagated from the inversion.
    """
    m = as_interaction_matrix(a)
    inv = m.inverse()
    n = m.n
    if n == 1:
        return ConditionReport(())
    violations: list[Violation] = []
    for i in range(n):
        if inv[i, i] > tol:
            violations.append(Violation("inverse-diagonal", (i, i), float(inv[i, i])))
    for i in range(n):
        for j in range(n):
            if i != j and inv[i, j] < -tol:
                violations.append(
                    Violation("inverse-offdiagonal", (i, j), float(inv[i, j]))
                )
    row_sums = inv.sum(axis=1)
    for i in range(n):
        if row_sums[i] < -tol:
            violations.append(Violation("inverse-row-sum", (i,), float(row_sums[i])))
    return ConditionReport(tuple(violations))


def _component_of_zero(entries: FloatMatrix) -> tuple[int, ...]:
    n = entries.shape[0]
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(n):
            if j != i and entries[i, j] != 0.0 and j not in seen:
                seen.add(j)
                frontier.append(j)
    return tuple(sorted(seen))
