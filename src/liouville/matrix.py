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
from .spectrum import check_reals

__all__ = [
    "InteractionMatrix",
    "Violation",
    "ConditionReport",
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
        self._entries = check_reals(entries, "matrix", ("n", "n"))
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
            ``|A A^-1 - I| <= INVERSE_RESIDUAL_FACTOR``, which does not
            depend on the scale of A.
        """
        if self._inverse is None:
            a = self._entries
            cond = np.linalg.cond(a)
            if not np.isfinite(cond) or cond > COND_CUTOFF:
                raise SingularMatrix(
                    f"condition number {cond:.3e} exceeds cutoff {COND_CUTOFF:.0e}"
                )
            try:
                inv = np.linalg.inv(a)
            except np.linalg.LinAlgError as exc:
                raise SingularMatrix(f"inversion failed: {exc}") from exc
            # Subnormal entries can pass the condition check and still
            # invert to inf; the residual is then inf or NaN and fails.
            with np.errstate(over="ignore", invalid="ignore"):
                residual = np.max(np.abs(a @ inv - np.eye(self.n)))
            if not residual <= INVERSE_RESIDUAL_FACTOR:
                raise SingularMatrix(
                    f"inverse residual {residual:.3e} exceeds bound "
                    f"{INVERSE_RESIDUAL_FACTOR:.3e}"
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


def irreducible(a) -> bool:
    """Connectivity of the coupling graph with edges where a_ij != 0, i != j."""
    m = as_interaction_matrix(a)
    return len(_component_of_zero(m.entries)) == m.n


def check_h1(a) -> ConditionReport:
    """Standard hypothesis: symmetric, nonnegative, irreducible, invertible.

    Symmetry and signs hold up to ``DEFAULT_TOL`` times the largest
    |a_ij|, so the verdict does not depend on the scale of A. Failures
    are reported, never raised; a singular matrix shows up as an
    ``invertible`` violation.
    """
    m = as_interaction_matrix(a)
    entries = m.entries
    n = m.n
    # As Python floats, a gap beyond the double range is inf, not a warning.
    rows = entries.tolist()
    tol = DEFAULT_TOL * max([abs(x) for row in rows for x in row])
    violations: list[Violation] = []
    for i in range(n):
        for j in range(i + 1, n):
            gap = rows[i][j] - rows[j][i]
            if abs(gap) > tol:
                violations.append(Violation("symmetric", (i, j), gap))
    for i in range(n):
        for j in range(n):
            if rows[i][j] < -tol:
                violations.append(Violation("nonnegative", (i, j), rows[i][j]))
    comp = _component_of_zero(entries)
    if len(comp) != n:
        # Witness: the connected component of index 0.
        violations.append(Violation("irreducible", comp, float(len(comp))))
    try:
        m.inverse()
    except SingularMatrix:
        violations.append(_singular(m))
    return ConditionReport(tuple(violations))


def check_h2(a) -> ConditionReport:
    """Strong-interaction hypothesis on the inverse entries a^{ij}.

    Requires a^{ii} <= 0, a^{ij} >= 0 for i != j, and nonnegative row
    sums, all up to ``DEFAULT_TOL`` times the largest |a^{ij}|, so the
    verdict does not depend on the scale of A. Vacuous for n = 1: with a
    single component there is no interaction to constrain, and the
    literal sign conditions would force a^{11} = 0 against
    invertibility. A singular matrix fails with the ``invertible``
    violation of ``check_h1``.
    """
    m = as_interaction_matrix(a)
    try:
        inv = m.inverse()
    except SingularMatrix:
        return ConditionReport((_singular(m),))
    n = m.n
    if n == 1:
        return ConditionReport(())
    rows = inv.tolist()
    tol = DEFAULT_TOL * max([abs(x) for row in rows for x in row])
    violations: list[Violation] = []
    for i in range(n):
        if rows[i][i] > tol:
            violations.append(Violation("inverse-diagonal", (i, i), rows[i][i]))
    for i in range(n):
        for j in range(n):
            if i != j and rows[i][j] < -tol:
                violations.append(Violation("inverse-offdiagonal", (i, j), rows[i][j]))
    row_sums = inv.sum(axis=1)
    for i in range(n):
        if row_sums[i] < -tol:
            violations.append(Violation("inverse-row-sum", (i,), float(row_sums[i])))
    return ConditionReport(tuple(violations))


def _singular(m: InteractionMatrix) -> Violation:
    """The violation that reports m as singular, valued at its condition number."""
    return Violation("invertible", (), float(np.linalg.cond(m.entries)))


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
