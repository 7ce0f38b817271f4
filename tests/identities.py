"""Shared oracles for the geometry tests: connection identities computed
from their definitions, random polynomial connections, polynomial
coordinate changes with exact inverses, and the dense nested-list linear
algebra the package used before its matrices became dicts of nonzero
entries.  Dense tensors (`tensor_from_fn`, `to_lists`), substitution
into rational expressions (`subst`, `eval_at`) and the pairwise signed
sum of form terms (`pairwise_signed_sum`) live here too: only the
oracles use them."""

import random

from poissonforms.bracket import PoissonStructure, random_scalar
from poissonforms.forms import DiffForm, sort_indices
from poissonforms.geometry import (
    Tensor,
    coord_signature,
    covariant_derivative,
    curvature,
    torsion,
)
from poissonforms.ratexpr import Chart, RatExpr


def _nested(n, rank, fn, prefix=()):
    """Nested lists of fn(idx) over the index tuples idx of `rank` slots,
    each running over range(n)."""
    if len(prefix) == rank:
        return fn(prefix)
    return [_nested(n, rank, fn, prefix + (i,)) for i in range(n)]


def tensor_from_fn(chart, signature, fn):
    """The tensor whose component at each index tuple idx is fn(idx)."""
    return Tensor(chart, signature, _nested(chart.n, len(signature), fn))


def to_lists(t):
    """The components of a tensor as nested lists, zeros included."""
    return _nested(t.chart.n, t.rank, lambda idx: t[idx])


def subst(r, values):
    """r with coordinate j replaced by values[j] (RatExprs on a common
    chart); ZeroDivisionError when the denominator becomes zero."""
    if len(values) != r.chart.n:
        raise ValueError("need one value per coordinate")
    target = values[0].chart if values else r.chart
    num = _poly_subst(r.num, values, target)
    den = _poly_subst(r.den, values, target)
    if den.is_zero():
        raise ZeroDivisionError("substitution hits a pole")
    return num / den


def eval_at(r, point):
    """The value of r at a point given by one scalar per coordinate."""
    return subst(r, [RatExpr.const(r.chart, c) for c in point]).const_value()


def _poly_subst(p, values, target):
    out = RatExpr.zero(target)
    powers = {}
    for exps, c in p.ordered_terms():
        term = RatExpr.const(target, c)
        for j, k in enumerate(exps):
            if k:
                if (j, k) not in powers:
                    powers[j, k] = values[j] ** k
                term = term * powers[j, k]
        out = out + term
    return out


def pairwise_signed_sum(chart, terms):
    """The form forms._signed_sum builds from the same terms, computed as
    it once was: each term one RatExpr product, added pairwise to the
    running RatExpr of its sorted index tuple."""
    acc = {}
    for idxs, s, factors in terms:
        sign, key = sort_indices(idxs)
        if sign:
            c = factors[0]
            for m in factors[1:]:
                c = c * m
            if sign != s:
                c = -c
            acc[key] = acc[key] + c if key in acc else c
    return DiffForm(chart, {key: c for key, c in acc.items() if c})


def darboux_p(chart):
    one = RatExpr.const(chart, 1)
    zero = RatExpr.zero(chart)
    n = chart.n
    half = n // 2
    P = [[zero] * n for _ in range(n)]
    for k in range(half):
        P[k][half + k] = one
        P[half + k][k] = -one
    return P


def random_connection(chart, rng, degree=2):
    n = chart.n
    G = [[[random_scalar(chart, rng, degree) for _ in range(n)]
          for _ in range(n)] for _ in range(n)]
    return PoissonStructure(chart, darboux_p(chart), G)


def cyclic_curvature_torsion_residual(s):
    """Sum over cyclic (b,c,d) of R^a_{bcd} - grad_b T^a_{cd} + T^a_{bk} T^k_{cd};
    vanishes for every connection."""
    R = curvature(s, "gamma")
    T = torsion(s)
    DT = covariant_derivative(T, s, "gamma")
    chart = s.chart
    n = chart.n

    def comp(idx):
        a, b, c, d = idx
        val = RatExpr.zero(chart)
        for x, y, z in ((b, c, d), (c, d, b), (d, b, c)):
            val = val + R[a, x, y, z] - DT[x, a, y, z]
            for k in range(n):
                val = val + T[a, x, k] * T[k, y, z]
        return val

    return tensor_from_fn(chart, coord_signature("uddd"), comp)


def curvature_twist_residual(s):
    """Difference of the two curvatures minus its torsion expression;
    vanishes for every connection."""
    R = curvature(s, "gamma")
    Rt = curvature(s, "tilde")
    T = torsion(s)
    DT = covariant_derivative(T, s, "gamma")
    chart = s.chart
    n = chart.n

    def comp(idx):
        a, b, c, d = idx
        val = Rt[a, b, c, d] - R[a, b, c, d] + DT[c, a, d, b] + DT[d, a, b, c]
        for k in range(n):
            val = (val - T[a, b, k] * T[k, c, d]
                   - T[a, c, k] * T[k, d, b]
                   - T[a, d, k] * T[k, b, c])
        return val

    return tensor_from_fn(chart, coord_signature("uddd"), comp)


def flat_twist_residual(s):
    """For flat connections the twisted curvature equals grad T."""
    Rt = curvature(s, "tilde")
    T = torsion(s)
    DT = covariant_derivative(T, s, "gamma")
    return tensor_from_fn(s.chart, coord_signature("uddd"),
                          lambda i: Rt[i] - DT[i[1], i[0], i[2], i[3]])


def pure_gauge_connection(chart, rng, degree=2):
    """Flat connection from a unipotent matrix of polynomials."""
    n = chart.n
    one = RatExpr.const(chart, 1)
    zero = RatExpr.zero(chart)
    M = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            M[i][j] = random_scalar(chart, rng, degree)
    Minv = _invert_unipotent(M, chart)
    G = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                acc = zero
                for A in range(n):
                    acc = acc + M[a][A] * Minv[A][c].diff(b)
                G[a][b][c] = acc
    return PoissonStructure(chart, darboux_p(chart), G)


def _invert_unipotent(M, chart):
    n = len(M)
    one = RatExpr.const(chart, 1)
    zero = RatExpr.zero(chart)
    N = [[M[i][j] if i != j else zero for j in range(n)] for i in range(n)]
    inv = [[one if i == j else zero for j in range(n)] for i in range(n)]
    power = [[one if i == j else zero for j in range(n)] for i in range(n)]
    sign = -1
    for _ in range(1, n):
        nxt = [[zero] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                acc = zero
                for k in range(n):
                    acc = acc + power[i][k] * N[k][j]
                nxt[i][j] = acc
        power = nxt
        for i in range(n):
            for j in range(n):
                term = power[i][j]
                inv[i][j] = inv[i][j] + (term if sign > 0 else -term)
        sign = -sign
    return inv


class PolyChange:
    """Invertible polynomial coordinate change between two charts of the
    same dimension; both directions are stored and checked exactly."""

    def __init__(self, old, new, forward, inverse):
        self.old = old
        self.new = new
        self.forward = list(forward)
        self.inverse = list(inverse)
        for j in range(old.n):
            back = subst(self.forward[j], self.inverse)
            if back != RatExpr.variable(new, j):
                raise ValueError("maps do not invert each other")
            fore = subst(self.inverse[j], self.forward)
            if fore != RatExpr.variable(old, j):
                raise ValueError("maps do not invert each other")

    def push_scalar(self, f):
        return subst(f, self.inverse)

    def jac_forward(self):
        """d new^a / d old^g, written in the new coordinates."""
        return [[subst(self.forward[a].diff(g), self.inverse)
                 for g in range(self.old.n)] for a in range(self.old.n)]

    def jac_inverse(self):
        """d old^k / d new^b, already in the new coordinates."""
        return [[self.inverse[k].diff(b) for b in range(self.old.n)]
                for k in range(self.old.n)]


def random_shear_change(old, new, rng, degree=2):
    """x' = x + r(y + q(x)), y' = y + q(x) on two-dimensional charts."""
    if old.n != 2:
        raise ValueError("shears are built for dimension two")
    x_o = RatExpr.variable(old, 0)
    y_o = RatExpr.variable(old, 1)
    x_n = RatExpr.variable(new, 0)
    y_n = RatExpr.variable(new, 1)
    q = [rng.randint(-2, 2) for _ in range(degree + 1)]
    r = [rng.randint(-2, 2) for _ in range(degree + 1)]
    w = y_o + _eval_uni(q, x_o)
    forward = [x_o + _eval_uni(r, w), w]
    xb = x_n - _eval_uni(r, y_n)
    inverse = [xb, y_n - _eval_uni(q, xb)]
    return PolyChange(old, new, forward, inverse)


def _eval_uni(coeffs, x):
    chart = x.chart
    acc = RatExpr.zero(chart)
    for c in reversed(coeffs):
        acc = acc * x + RatExpr.const(chart, c)
    return acc


def transform_structure(s, change):
    """Rebuild P and Gamma in the new coordinates."""
    old, new = change.old, change.new
    n = old.n
    J = [[change.forward[a].diff(g) for g in range(n)] for a in range(n)]
    K = change.jac_inverse()
    P2 = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            acc = RatExpr.zero(old)
            for g in range(n):
                for d in range(n):
                    if s.P[g, d].is_zero():
                        continue
                    acc = acc + J[a][g] * J[b][d] * s.P[g, d]
            P2[a][b] = subst(acc, change.inverse)
    G2 = [[[None] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        inner = [[RatExpr.zero(old) for _ in range(n)] for _ in range(n)]
        for k in range(n):
            for l in range(n):
                acc = -change.forward[a].diff(k).diff(l)
                for d in range(n):
                    acc = acc + J[a][d] * s.Gamma[d, k, l]
                inner[k][l] = acc
        pushed = [[subst(inner[k][l], change.inverse) for l in range(n)] for k in range(n)]
        for b in range(n):
            for c in range(n):
                acc = RatExpr.zero(new)
                for k in range(n):
                    for l in range(n):
                        acc = acc + K[k][b] * K[l][c] * pushed[k][l]
                G2[a][b][c] = acc
    return PoissonStructure(new, P2, G2)


def transform_tensor(t, change):
    """Push a coordinate tensor through the change slot by slot."""
    new = change.new
    Jn = change.jac_forward()
    K = change.jac_inverse()

    def comp(idx):
        acc = RatExpr.zero(new)
        for src, base in t.nonzero_components():
            factor = subst(base, change.inverse)
            for slot, (pos, _) in enumerate(t.signature):
                mat = Jn[idx[slot]][src[slot]] if pos == "up" else K[src[slot]][idx[slot]]
                factor = factor * mat
                if factor.is_zero():
                    break
            acc = acc + factor
        return acc

    return tensor_from_fn(new, t.signature, comp)


def sparse_matrix(rows):
    """The nonzero entries of a nested-list matrix, keyed (row, column)."""
    return {(i, j): v for i, row in enumerate(rows)
            for j, v in enumerate(row) if not v.is_zero()}


def sparse_vector(values):
    """The nonzero entries of a list, keyed (index,)."""
    return {(i,): v for i, v in enumerate(values) if not v.is_zero()}


# -- dense linear algebra over nested lists ---------------------------------
#
# The elimination the package ran before `linalg` moved to dicts of
# nonzero entries, kept verbatim as the reference for the sparse solver
# and for the dense oracles, so that those do not share the code they
# check.


def _dense_gauss_jordan(rows, ncols: int):
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


def dense_det(M):
    """Determinant of a square matrix: the signed product of its pivots."""
    n = len(M)
    pivots, swaps = _dense_gauss_jordan([row[:] for row in M], n)
    if len(pivots) < n:
        return M[0][0] * 0
    det = pivots[0][1]
    for _, value in pivots[1:]:
        det = det * value
    return -det if swaps % 2 else det


def dense_invert(M):
    """Inverse of a square matrix; None when it is singular."""
    n = len(M)
    zero = M[0][0] * 0
    one = zero + 1
    rows = [row[:] + [one if i == j else zero for j in range(n)]
            for i, row in enumerate(M)]
    pivots, _ = _dense_gauss_jordan(rows, n)
    if len(pivots) < n:
        return None
    return [row[n:] for row in rows]


def dense_solve(A, b):
    """A particular solution W of A W = b, free variables set to zero;
    None when the system is inconsistent.  A needs at least one row."""
    n = len(A[0])
    rows = [row[:] + [v] for row, v in zip(A, b)]
    pivots, _ = _dense_gauss_jordan(rows, n)
    if any(not row[n].is_zero() for row in rows[len(pivots):]):
        return None
    W = [A[0][0] * 0] * n
    for row, (col, _) in zip(rows, pivots):
        W[col] = row[n]
    return W
