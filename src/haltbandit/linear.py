"""Sparse linear solves in either arithmetic mode.

A system is given as one ``{column: coefficient}`` map per row, holding
only the nonzero entries.  Every system in this package is I − P with P
nonnegative and each row of P summing to at most 1: strictly diagonally
dominant when every state halts with positive mass, an M-matrix otherwise.
Gaussian elimination on such a matrix needs no pivoting (Golub & Van Loan,
*Matrix Computations*, §3.4), and a zero pivot means the system is
singular.

Float systems are scattered into one dense array for numpy.  Exact systems
(ints/Fractions) are eliminated fraction-free over integer rows (Bareiss,
*Math. Comp.* 1968): each row and its right-hand side are scaled to
integers by the lcm of their denominators; a row with entry f under the pivot becomes (pivot/g)·row −
(f/g)·pivot row, g = gcd(pivot, f), and is divided by the gcd of its
entries.  It stays a nonzero multiple of the row ``Fraction`` elimination
gives, so a zero pivot still means a singular system.  Back-substitution
runs over one common denominator, and the solution is checked exactly
against every integer row.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Mapping, Sequence

from .errors import SolverError
from .jsonio import Number


def solve_linear(rows: Sequence[Mapping[int, Number]], rhs: Sequence[Number]) -> list[Number]:
    """Solve A x = b, exactly when all inputs are rational."""
    n = len(rhs)
    coefs = [row.values() for row in rows]
    if any(isinstance(v, float) for v in chain(rhs, *coefs)):
        import numpy as np  # here only, so exact runs never load numpy

        # row r's nonzeros go to r·n + column in one flat scatter
        flat = np.repeat(np.arange(0, n * n, n), [len(row) for row in rows]) + np.fromiter(chain(*rows), np.intp)
        a = np.zeros(n * n)
        a[flat] = np.fromiter(chain(*coefs), float)
        try:
            return np.linalg.solve(a.reshape(n, n), np.array(rhs, dtype=float)).tolist()
        except np.linalg.LinAlgError as exc:
            raise SolverError("singular linear system") from exc
    # each row and its right-hand side scaled to integers by the lcm of their
    # denominators, kept as they are to check the solution against
    eqs = []
    for row, v in zip(rows, rhs):
        den = lcm(v.denominator, *(x.denominator for x in row.values()))
        int_row = {c: x.numerator * (den // x.denominator) for c, x in row.items()}
        eqs.append((int_row, v.numerator * (den // v.denominator)))
    a = [dict(row) for row, _ in eqs]
    b = [v for _, v in eqs]
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
            f = row.pop(col, 0)
            if f:
                g = gcd(pivot, f)
                m, f = pivot // g, f // g
                if m != 1:
                    a[r] = row = {c: v * m for c, v in row.items()}
                for c, v in pivot_row.items():
                    row[c] = row.get(c, 0) - f * v
                rb = b[r] * m - f * b[col]
                g = gcd(rb, *row.values())
                if g > 1:
                    a[r] = {c: v // g for c, v in row.items()}
                    rb //= g
                b[r] = rb
    num, den = _back_substitute(a, b, pivots)
    for row, v in eqs:
        if sum(x * num[c] for c, x in row.items()) != v * den:
            raise SolverError("exact solution fails its own equations")
    return [Fraction(x, den) for x in num]


def _back_substitute(a: list[dict[int, int]], b: list[int], pivots: list[int]) -> tuple[list[int], int]:
    """Numerators of the triangular system's solution over one common
    positive denominator, widened only by the part of each pivot it lacks."""
    n = len(b)
    num = [0] * n
    den = 1
    for r in range(n - 1, -1, -1):
        s = b[r] * den - sum(v * num[c] for c, v in a[r].items())
        g = gcd(s, pivots[r])
        m = pivots[r] // g
        if m < 0:
            m, g = -m, -g
        num[r] = s // g
        if m != 1:
            den *= m
            for c in range(r + 1, n):
                num[c] *= m
    return num, den


def residual(rows: Sequence[Mapping[int, Number]], rhs: Sequence[Number], sol: Sequence[Number]) -> float:
    """Max-norm residual of a candidate float solution."""
    worst = 0.0
    for row, b in zip(rows, rhs):
        acc = -b
        for c, coef in row.items():
            acc += coef * sol[c]
        worst = max(worst, abs(float(acc)))
    return worst
