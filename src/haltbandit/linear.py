"""Dense linear solves in either arithmetic mode.

Float systems go to numpy; exact systems (ints/Fractions) go through plain
Gaussian elimination with partial pivoting so the solution stays rational.
Every system in this package is strictly diagonally dominant (halting mass
is bounded away from zero), so pivoting is never in real danger.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import SolverError
from .jsonio import Number


def _is_exact_matrix(rows: Sequence[Sequence[Number]], rhs: Sequence[Number]) -> bool:
    return all(not isinstance(v, float) for row in rows for v in row) and all(
        not isinstance(v, float) for v in rhs
    )

def solve_linear(rows: Sequence[Sequence[Number]], rhs: Sequence[Number]) -> list[Number]:
    """Solve A x = b, exactly when all inputs are rational."""
    n = len(rhs)
    if n == 0:
        return []
    if not _is_exact_matrix(rows, rhs):
        a = np.array([[float(v) for v in row] for row in rows], dtype=float)
        b = np.array([float(v) for v in rhs], dtype=float)
        try:
            x = np.linalg.solve(a, b)
        except np.linalg.LinAlgError as exc:
            raise SolverError("singular linear system") from exc
        return [float(v) for v in x]
    a = [[Fraction(v) for v in row] for row in rows]
    b = [Fraction(v) for v in rhs]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[pivot][col] == 0:
            raise SolverError("singular linear system")
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            b[col], b[pivot] = b[pivot], b[col]
        inv = a[col][col]
        for r in range(col + 1, n):
            if a[r][col] == 0:
                continue
            factor = a[r][col] / inv
            for c in range(col, n):
                a[r][c] -= factor * a[col][c]
            b[r] -= factor * b[col]
    out: list[Fraction] = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        acc = b[r]
        for c in range(r + 1, n):
            acc -= a[r][c] * out[c]
        out[r] = acc / a[r][r]
    return list(out)


def residual(rows: Sequence[Sequence[Number]], rhs: Sequence[Number], sol: Sequence[Number]) -> float:
    """Max-norm residual of a candidate solution."""
    worst = 0.0
    for row, b in zip(rows, rhs):
        acc = -b
        for coef, x in zip(row, sol):
            acc += coef * x
        worst = max(worst, abs(float(acc)))
    return worst
