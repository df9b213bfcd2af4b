"""Sparse linear solves in either arithmetic mode.

A system is given as one ``{column: coefficient}`` map per row, holding
only the nonzero entries.  Every system in this package is I − P with P
nonnegative and each row of P summing to at most 1: strictly diagonally
dominant when every state halts with positive mass, an M-matrix otherwise.
Gaussian elimination on such a matrix needs no pivoting (Golub & Van Loan,
*Matrix Computations*, §3.4), and a zero pivot means the system is
singular.

Float systems of at least ``_SWEEP_MIN`` unknowns are first tried with
Jacobi sweeps x ← D⁻¹(b + Nx), A = D − N with D its diagonal, over index
arrays read straight off the rows, so no n×n array is built (``_sweep``).
If every row has a margin q = |a_rr| − Σ_{c≠r} |a_rc| > 0 (in a row of
I − P, its halting mass), a sweep contracts by ρ = max_r Σ_{c≠r} |a_rc| /
|a_rr| < 1 (Varga, *Matrix Iterative Analysis*, 1962), and ‖x − x*‖∞ ≤
‖b − Ax‖∞ / min q (Varah, *Linear Algebra Appl.* 1975).  A float residual
row of m terms errs by at most γ_m·(|b| + |A||x|) (Higham, *Accuracy and
Stability of Numerical Algorithms*, 2002, §3.5), so the residual plus
that allowance, over a lower bound on min q, is a proven bound.  The
sweeps stop at a float fixed point, or once the residual is within its
allowance and no smaller than at the sweep before; the last iterate is
kept if its bound is at most ``_SWEEP_TOL``·‖x‖∞.  Every system the
sweeps decline is scattered into one dense array for numpy's LAPACK
solve: one under the size threshold, one with a non-finite entry or a row
without margin (singular systems among them), one whose sweeps, as many
as the contraction rate predicts, would cost more than the dense solve,
and one whose sweeps overflow, do not stop within that count, or stop with
too large a bound.  Either answer is returned only if its normwise
backward error ‖b − Ax‖∞ / (‖A‖∞‖x‖∞ + ‖b‖∞), ‖A‖∞ the largest absolute
row sum, is at most ``_SWEEP_TOL`` (Rigal & Gaches, *J. ACM* 1967; Higham
2002, §7.1): a scale-free test, so values may be of any size, and on the
dense path not swollen, as the proven bound is, by a tiny margin.

Exact systems (ints/Fractions) are eliminated fraction-free over integer
rows (Bareiss, *Math. Comp.* 1968): each row and its right-hand side are
scaled to integers by the lcm of their denominators; a row with entry f
under the pivot becomes (pivot/g)·row − (f/g)·pivot row, g = gcd(pivot,
f), and is divided by the gcd of its entries.  It stays a nonzero multiple of the row ``Fraction`` elimination
gives, so a zero pivot still means a singular system.  Back-substitution
runs over one common denominator, and the solution is checked exactly
against every integer row.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import ceil, gcd, inf, lcm, log
from typing import TYPE_CHECKING, Mapping, Sequence

from .errors import SolverError
from .jsonio import Number

if TYPE_CHECKING:
    import numpy as np


def solve_linear(rows: Sequence[Mapping[int, Number]], rhs: Sequence[Number]) -> list[Number]:
    """Solve A x = b, exactly when all inputs are rational.  An exact answer
    is checked on every row, a float one by its backward error, a swept one
    by its forward bound too (see above); a failed check is a ``SolverError``."""
    n = len(rhs)
    coefs = [row.values() for row in rows]
    if any(isinstance(v, float) for v in chain(rhs, *coefs)):
        import numpy as np  # here only, so exact runs never load numpy

        # the nonzeros as row ids, column ids and values
        r = np.repeat(np.arange(n), [len(row) for row in rows])
        c = np.fromiter(chain(*rows), np.intp, r.size)
        v = np.fromiter(chain(*coefs), float, r.size)
        b = np.array(rhs, dtype=float)
        x = _sweep(r, c, v, b) if n >= _SWEEP_MIN else None
        if x is None:
            a = np.zeros(n * n)
            a[r * n + c] = v
            try:
                x = np.linalg.solve(a.reshape(n, n), b)
            except np.linalg.LinAlgError as exc:
                raise SolverError("singular linear system") from exc
        # the backward-error test (see above); a NaN or infinite answer passes
        # it, for the caller's float-range check to refuse
        with np.errstate(all="ignore"):
            res = float(np.abs(b - np.bincount(r, v * x[c], n)).max())
            tol = _SWEEP_TOL * float(np.bincount(r, np.abs(v), n).max() * np.abs(x).max() + np.abs(b).max())
        if res > tol:
            raise SolverError(f"linear system residual {res} above {tol}")
        return x.tolist()
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


# Below this many unknowns the dense solve is faster than sweeping.
_SWEEP_MIN = 256
# A swept answer's proven bound must be at most this share of ‖x‖∞, and
# every float answer's backward error at most this (see above).
_SWEEP_TOL = 2.0**-40
# Cost rule, in units of one nonzero's multiply-add within a sweep (about
# 5 ns where it was fitted, numpy 2.4 on one CPU core): a sweep costs its
# nonzeros plus numpy's fixed per-sweep overhead, and the dense solve
# n³ / _DENSE_RATE.
_SWEEP_OVERHEAD = 2000
_DENSE_RATE = 150
# Unit roundoff of a double.
_U = 2.0**-53


def _sweep(r: np.ndarray, c: np.ndarray, v: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Jacobi sweeps on a float system, its nonzeros given as row ids,
    column ids and values, with a proven stopping bound (see the module
    docstring); None leaves the system to the dense solve."""
    import numpy as np

    n = b.size
    # a non-finite entry or an overflow makes the margin or a residual NaN or
    # infinite, which leaves the system to the dense solve, unreported
    with np.errstate(all="ignore"):
        on = r == c
        d = np.bincount(r[on], v[on], n)  # a row holds at most one diagonal entry
        s = np.bincount(r, np.abs(v), n)  # absolute row sums
        # γ_m for the longest row's residual: its entries and b, plus two
        # spare terms for the bound's own arithmetic
        m = int(np.bincount(r, minlength=n).max()) + 3
        gamma = m * _U / (1 - m * _U)
        # a lower bound on the smallest margin 2|d| − s: the float sum s errs by at most γ·s
        q = float((2 * np.abs(d) - s - gamma * s).min())
        s_max, b_max = float(s.max()), float(np.abs(b).max())
        # once the residual sits at its allowance, the bound is about
        # 4γ·s_max/q·‖x‖∞, as ‖b‖∞ ≤ s_max·‖x*‖∞
        if not q > 0 or 4 * gamma * s_max / q > _SWEEP_TOL:
            return None
        rho = float(((s - np.abs(d)) / np.abs(d)).max())
        budget = ceil(log(_U) / log(rho)) if rho > 0 else 1
        if budget * (r.size + _SWEEP_OVERHEAD) * _DENSE_RATE > n**3:
            return None
        off = ~on
        rn, cn, nv = r[off], c[off], -v[off]
        x = b / d
        last = inf
        for _ in range(budget + 8):  # a few past the prediction, to see the residual stop falling
            t = b + np.bincount(rn, nv * x[cn], n)
            res = float(np.abs(t - d * x).max())
            if not res < inf:
                return None
            size = float(np.abs(x).max())
            allow = gamma * b_max + gamma * s_max * size
            new = t / d
            if np.array_equal(new, x) or last <= res <= allow:
                return x if (res + allow) / q <= _SWEEP_TOL * size else None
            x, last = new, res
    return None


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

