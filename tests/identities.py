"""Shared oracles for the geometry tests: connection identities computed
from their definitions, random polynomial connections, and polynomial
coordinate changes with exact inverses."""

import random

from poissonforms.bracket import PoissonStructure, random_scalar
from poissonforms.geometry import (
    Tensor,
    coord_signature,
    covariant_derivative,
    curvature,
    torsion,
)
from poissonforms.ratexpr import Chart, RatExpr


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

    return Tensor.from_fn(chart, coord_signature("uddd"), comp)


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

    return Tensor.from_fn(chart, coord_signature("uddd"), comp)


def flat_twist_residual(s):
    """For flat connections the twisted curvature equals grad T."""
    Rt = curvature(s, "tilde")
    T = torsion(s)
    DT = covariant_derivative(T, s, "gamma")
    return Tensor.from_fn(s.chart, coord_signature("uddd"),
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
            back = self.forward[j].subst(self.inverse)
            if back != RatExpr.variable(new, j):
                raise ValueError("maps do not invert each other")
            fore = self.inverse[j].subst(self.forward)
            if fore != RatExpr.variable(old, j):
                raise ValueError("maps do not invert each other")

    def push_scalar(self, f):
        return f.subst(self.inverse)

    def jac_forward(self):
        """d new^a / d old^g, written in the new coordinates."""
        return [[self.forward[a].diff(g).subst(self.inverse)
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
            P2[a][b] = acc.subst(change.inverse)
    G2 = [[[None] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        inner = [[RatExpr.zero(old) for _ in range(n)] for _ in range(n)]
        for k in range(n):
            for l in range(n):
                acc = -change.forward[a].diff(k).diff(l)
                for d in range(n):
                    acc = acc + J[a][d] * s.Gamma[d, k, l]
                inner[k][l] = acc
        pushed = [[inner[k][l].subst(change.inverse) for l in range(n)] for k in range(n)]
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
    old, new = change.old, change.new
    n = old.n
    Jn = change.jac_forward()
    K = change.jac_inverse()

    def comp(idx):
        acc = RatExpr.zero(new)
        for src in t.indices():
            base = t[src]
            if base.is_zero():
                continue
            factor = base.subst(change.inverse)
            for slot, (pos, _) in enumerate(t.signature):
                mat = Jn[idx[slot]][src[slot]] if pos == "up" else K[src[slot]][idx[slot]]
                factor = factor * mat
                if factor.is_zero():
                    break
            acc = acc + factor
        return acc

    return Tensor.from_fn(new, t.signature, comp)
