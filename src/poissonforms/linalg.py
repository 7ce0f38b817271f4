"""Sparse algebra over a field: sums, contractions and exact matrix
arithmetic.

Index storage: every tensor, matrix and vector of the package is a dict
{index tuple: value} holding only its nonzero components, a matrix keyed
(row, column) and a vector (index,).  Entries are exact scalars
(GaussianRational) or rational expressions (RatExpr); both support
is_zero, +, -, * and /, and both accept integer operands.  `_accumulate`
sums (index, value) pairs into such a dict, and `_contract`, an einsum
that visits only nonzero entries, and `_sum` of a few of them express
every sparse law of the package, so its cost follows the number of
nonzero components, not the dimension.  One Gauss-Jordan elimination
serves determinants, inverses and linear solves over either field
without rounding; it works on rows {column: value} and visits only their
nonzero entries, as sympy's `sdm_irref` does.
"""

from __future__ import annotations


def _accumulate(pairs) -> dict:
    """The nonzero sums of the values of the (index, value) pairs,
    grouped by index."""
    acc = {}
    for idx, v in pairs:
        acc[idx] = acc[idx] + v if idx in acc else v
    return {idx: v for idx, v in acc.items() if not v.is_zero()}


def _contract(spec: str, *tensors) -> dict:
    """Sparse einsum over {index tuple: value} dicts of nonzero entries.

    `spec` names the slots of each operand and of the result, as in
    "abk,kc->abc"; a letter missing from the result is summed over, and a
    letter may appear only once in each operand.  Only combinations of
    nonzero entries that agree on their shared letters are visited.
    Returns the nonzero entries of the result."""
    ins, out = spec.split("->")
    letters = ""
    # (values of `letters`, product of the entries so far) per combination
    partial = [((), None)]
    for sub, T in zip(ins.split(","), tensors):
        shared = [(k, letters.index(ch)) for k, ch in enumerate(sub)
                  if ch in letters]
        new = [k for k, ch in enumerate(sub) if ch not in letters]
        matches = {}
        for idx, v in T.items():
            matches.setdefault(tuple(idx[k] for k, _ in shared),
                               []).append((idx, v))
        partial = [(vals + tuple(idx[k] for k in new),
                    v if prod is None else prod * v)
                   for vals, prod in partial
                   for idx, v in matches.get(
                       tuple(vals[j] for _, j in shared), ())]
        letters += "".join(sub[k] for k in new)
    place = [letters.index(ch) for ch in out]
    return _accumulate((tuple(vals[j] for j in place), prod)
                       for vals, prod in partial)


def _sum(terms) -> dict:
    """The nonzero entries of the sum of k * _contract(spec, *operands)
    over the terms (k, spec, operands); k = 1 and k = -1 take no product."""
    return _accumulate((idx, v if k == 1 else -v if k == -1 else k * v)
                       for k, spec, operands in terms
                       for idx, v in _contract(spec, *operands).items())


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
