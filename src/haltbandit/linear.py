"""Sparse linear solves in either arithmetic mode.

A system is given as one ``{column: coefficient}`` map per row, holding
only the nonzero entries.  Every system in this package is I − P with P
nonnegative and each row of P summing to at most 1: strictly diagonally
dominant when every state halts with positive mass, an M-matrix otherwise.
Gaussian elimination on such a matrix needs no pivoting (Golub & Van Loan,
*Matrix Computations*, §3.4), and a zero pivot means the system is
singular.

Float systems are scattered into one dense array for numpy; exact systems
(ints/Fractions) are eliminated over their nonzeros in row order, so the
solution stays rational.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from .errors import SolverError
from .jsonio import Number


def solve_linear(rows: Sequence[Mapping[int, Number]], rhs: Sequence[Number]) -> list[Number]:
    """Solve A x = b, exactly when all inputs are rational."""
    n = len(rhs)
    coefs = [row.values() for row in rows]
    if any(isinstance(v, float) for v in chain(rhs, *coefs)):
        # row r's nonzeros go to r·n + column in one flat scatter
        flat = np.repeat(np.arange(0, n * n, n), [len(row) for row in rows]) + np.fromiter(chain(*rows), np.intp)
        a = np.zeros(n * n)
        a[flat] = np.fromiter(chain(*coefs), float)
        try:
            return np.linalg.solve(a.reshape(n, n), np.array(rhs, dtype=float)).tolist()
        except np.linalg.LinAlgError as exc:
            raise SolverError("singular linear system") from exc
    a = [{c: Fraction(v) for c, v in row.items()} for row in rows]
    b = [Fraction(v) for v in rhs]
    pivots = []
    for col, pivot_row in enumerate(a):
        # no pivot search (see above); the earlier columns are eliminated, so
        # what is left of the pivot row lies right of col
        pivot = pivot_row.pop(col, 0)
        if pivot == 0:
            raise SolverError("singular linear system")
        pivots.append(pivot)
        for r in range(col + 1, n):
            row = a[r]
            if col in row:
                factor = row.pop(col) / pivot
                for c, v in pivot_row.items():
                    row[c] = row.get(c, 0) - factor * v
                b[r] -= factor * b[col]
    out: list[Number] = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        out[r] = (b[r] - sum(v * out[c] for c, v in a[r].items())) / pivots[r]
    return out


def residual(rows: Sequence[Mapping[int, Number]], rhs: Sequence[Number], sol: Sequence[Number]) -> float:
    """Max-norm residual of a candidate solution."""
    worst = 0.0
    for row, b in zip(rows, rhs):
        acc = -b
        for c, coef in row.items():
            acc += coef * sol[c]
        worst = max(worst, abs(float(acc)))
    return worst
