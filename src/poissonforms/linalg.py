"""Exact matrix arithmetic over a field.

Entries are exact scalars (GaussianRational) or rational expressions
(RatExpr); both support is_zero, +, -, * and /, and both accept integer
operands, so one Gauss-Jordan elimination serves determinants, inverses
and linear solves over either field without rounding.
"""

from __future__ import annotations

from .ratexpr import Chart, RatExpr


def identity_matrix(chart: Chart, n: int):
    one = RatExpr.const(chart, 1)
    zero = RatExpr.zero(chart)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    n, m, k = len(A), len(B[0]), len(B)
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = A[i][0] * B[0][j]
            for t in range(1, k):
                acc = acc + A[i][t] * B[t][j]
            row.append(acc)
        out.append(row)
    return out


def _gauss_jordan(rows, ncols: int):
    """Reduce `rows` in place to reduced row echelon form in their first
    `ncols` columns; the pivot for each column is the first nonzero row at
    or below the current one.  Returns the pivots as (column, value before
    scaling) pairs and the number of row swaps."""
    pivots = []
    swaps = 0
    r = 0
    for col in range(ncols):
        if r == len(rows):
            break
        piv = next((k for k in range(r, len(rows)) if not rows[k][col].is_zero()), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            swaps += 1
        value = rows[r][col]
        inv = 1 / value
        rows[r] = [x * inv for x in rows[r]]
        for k in range(len(rows)):
            if k != r and not rows[k][col].is_zero():
                factor = rows[k][col]
                rows[k] = [x - factor * y for x, y in zip(rows[k], rows[r])]
        pivots.append((col, value))
        r += 1
    return pivots, swaps


def det_matrix(M):
    """Determinant of a square matrix: the signed product of its pivots."""
    n = len(M)
    pivots, swaps = _gauss_jordan([row[:] for row in M], n)
    if len(pivots) < n:
        return M[0][0] * 0
    det = pivots[0][1]
    for _, value in pivots[1:]:
        det = det * value
    return -det if swaps % 2 else det


def invert_matrix(M):
    """Inverse of a square matrix; None when it is singular."""
    n = len(M)
    zero = M[0][0] * 0
    one = zero + 1
    rows = [row[:] + [one if i == j else zero for j in range(n)]
            for i, row in enumerate(M)]
    pivots, _ = _gauss_jordan(rows, n)
    if len(pivots) < n:
        return None
    return [row[n:] for row in rows]


def solve(A, b):
    """A particular solution W of A W = b, free variables set to zero;
    None when the system is inconsistent.  A needs at least one row."""
    n = len(A[0])
    rows = [row[:] + [v] for row, v in zip(A, b)]
    pivots, _ = _gauss_jordan(rows, n)
    if any(not row[n].is_zero() for row in rows[len(pivots):]):
        return None
    W = [A[0][0] * 0] * n
    for row, (col, _) in zip(rows, pivots):
        W[col] = row[n]
    return W
