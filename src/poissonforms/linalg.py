"""Exact matrix arithmetic over a field.

A matrix is a dict {(row, column): value} and a vector a dict
{(index,): value}, holding only the nonzero entries, as everywhere in
the package.  Entries are exact scalars (GaussianRational) or rational
expressions (RatExpr); both support is_zero, +, -, * and /, and both
accept integer operands, so one Gauss-Jordan elimination serves
determinants, inverses and linear solves over either field without
rounding.  The elimination works on rows {column: value} and visits only
their nonzero entries, as sympy's `sdm_irref` does.
"""

from __future__ import annotations


def _rows(M: dict) -> dict:
    """The nonzero rows of M as {row: {column: value}}."""
    rows = {}
    for (i, j), v in M.items():
        rows.setdefault(i, {})[j] = v
    return rows


def _gauss_jordan(rows: list, ncols: int):
    """Reduce `rows`, dicts {column: value} of nonzero entries, in place
    to reduced row echelon form in their first `ncols` columns; the pivot
    for each column is the first row at or below the current one with an
    entry there.  Returns the pivots as (column, value before scaling)
    pairs and the number of row swaps."""
    pivots = []
    swaps = 0
    for col in range(ncols):
        r = len(pivots)
        piv = next((k for k in range(r, len(rows)) if col in rows[k]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            swaps += 1
        value = rows[r][col]
        inv = 1 / value
        pivot_row = rows[r] = {j: x * inv for j, x in rows[r].items()}
        for k, row in enumerate(rows):
            if k != r and col in row:
                factor = row[col]
                for j, y in pivot_row.items():
                    x = row[j] - factor * y if j in row else -(factor * y)
                    if x.is_zero():
                        del row[j]
                    else:
                        row[j] = x
        pivots.append((col, value))
    return pivots, swaps


def det_matrix(M: dict, n: int):
    """Determinant of the n x n matrix M: the signed product of its
    pivots, or the int 0 when M is singular (both entry types compare
    equal to it)."""
    rows = _rows(M)
    pivots, swaps = _gauss_jordan([rows.get(i, {}) for i in range(n)], n)
    if len(pivots) < n:
        return 0
    det = -1 if swaps % 2 else 1
    for _, value in pivots:
        det = det * value
    return det


def invert_matrix(M: dict, n: int):
    """Inverse of the n x n matrix M; None when it is singular."""
    rows = _rows(M)
    one = next(iter(M.values()), 1) * 0 + 1
    rows = [rows.get(i, {}) | {n + i: one} for i in range(n)]
    pivots, _ = _gauss_jordan(rows, n)
    if len(pivots) < n:
        return None
    return {(i, j - n): v for i, row in enumerate(rows)
            for j, v in row.items() if j >= n}


def solve(A: dict, b: dict, ncols: int):
    """A particular solution W of A W = b for A with `ncols` columns, free
    variables set to zero; None when the system is inconsistent.  A is
    keyed (row, column) and b (row,), where a row is any hashable label;
    a row with no entry in A or b reads 0 = 0."""
    rows = _rows(A)
    for (i,), v in b.items():
        rows.setdefault(i, {})[ncols] = v
    rows = list(rows.values())
    pivots, _ = _gauss_jordan(rows, ncols)
    if any(rows[len(pivots):]):
        return None
    return {(col,): row[ncols] for row, (col, _) in zip(rows, pivots)
            if ncols in row}
