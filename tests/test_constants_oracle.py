"""Sparse constants laws against dense references.

The closure laws of `check_constants` contract dicts of nonzero entries.
The references below are the same laws written over dense nested lists:
every index is visited, and each law reports its first nonzero component
in `itertools.product` order.  On random dim-2 and dim-3 constants,
failing ones included, both must give the same report.

`transform_constants` applies the tensor law for F -> N F + V; the
reference substitutes F = N^{-1}(F' - V) into N P Nᵀ, with N^{-1} from
the dense solver in `identities`, and reads the constants back off the
derivatives of the result at the origin.
"""

import itertools
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from poissonforms.canonical import (CanonicalConstants, CanonicalTransform,
                                    canonical_chart, check_constants,
                                    poisson_matrix, transform_constants)
from poissonforms.ratexpr import RatExpr
from poissonforms.report import VerificationReport, component
from poissonforms.scalars import GaussianRational

from identities import dense_invert, eval_at, subst

ZERO = GaussianRational(0)


def dense(T: dict, dim: int, rank: int):
    """Nested lists holding the entries of a sparse constants dict."""
    if rank == 0:
        return T.get((), ZERO)
    return [dense({k[1:]: v for k, v in T.items() if k[0] == i}, dim, rank - 1)
            for i in range(dim)]


def _sum_of_products(terms):
    """The sum of k * x * y over the terms (k, x, y); a product with a
    zero factor is skipped, not multiplied."""
    acc = ZERO
    for k, x, y in terms:
        if x and y:
            acc = acc + k * (x * y)
    return acc


def dense_yang_baxter_defect(Rt, n, A, B, C, D, E, F):
    return _sum_of_products(term for K in range(n) for term in (
        (1, Rt[A][B][K][E], Rt[K][C][D][F]), (-1, Rt[A][C][K][F], Rt[K][B][D][E]),
        (1, Rt[A][B][D][K], Rt[K][C][E][F]), (-1, Rt[A][K][D][E], Rt[B][C][K][F]),
        (1, Rt[A][C][D][K], Rt[B][K][E][F]), (-1, Rt[A][K][D][F], Rt[B][C][E][K])))


def dense_yang_baxter_symmetrized(Rt, n, A, B, C, D, E, F):
    """The defect summed over the distinct permutations of (D,E,F): the
    coefficient of the cubic monomial F^D F^E F^F."""
    acc = ZERO
    for p in set(itertools.permutations((D, E, F))):
        acc = acc + dense_yang_baxter_defect(Rt, n, A, B, C, *p)
    return acc


def _cyc(A, B, C):
    return ((A, B, C), (B, C, A), (C, A, B))


def dense_check_constants(c: CanonicalConstants) -> VerificationReport:
    rep = VerificationReport()
    n = c.dim
    Rt, f, g = dense(c.Rt, n, 4), dense(c.f, n, 3), dense(c.g, n, 2)

    bad = next(((law, (A, B, C, D))
                for A, B, C, D in itertools.product(range(n), repeat=4)
                for law, want in (("antisymmetry", -Rt[B][A][C][D]),
                                  ("symmetry", Rt[A][B][D][C]))
                if Rt[A][B][C][D] != want), None)
    rep.add("rt-index-symmetry", bad is None, "0" if bad is None else bad[0],
            "" if bad is None else component(bad[1]))

    bad = next(((A, B, C) for A in range(n) for B in range(n) for C in range(n)
                if f[A][B][C] != -f[B][A][C]), None)
    rep.add("f-index-symmetry", bad is None,
            "" if bad is None else str(f[bad[0]][bad[1]][bad[2]] + f[bad[1]][bad[0]][bad[2]]),
            "" if bad is None else component(bad))

    bad = next(((A, B) for A in range(n) for B in range(n)
                if g[A][B] != -g[B][A]), None)
    rep.add("g-index-symmetry", bad is None,
            "" if bad is None else str(g[bad[0]][bad[1]] + g[bad[1]][bad[0]]),
            "" if bad is None else component(bad))

    rep.add_first_nonzero("yang-baxter", (
        (ABC + DEF, dense_yang_baxter_symmetrized(Rt, n, *ABC, *DEF))
        for ABC in itertools.product(range(n), repeat=3)
        for DEF in itertools.combinations_with_replacement(range(n), 3)))

    def quad(idx):
        A, B, C, D, E = idx
        return _sum_of_products(
            term for X, Y, Z in _cyc(A, B, C) for F in range(n)
            for term in ((2, Rt[X][Y][F][D], f[Z][F][E]),
                         (1, f[X][Y][F], Rt[Z][F][D][E])))

    rep.add_first_nonzero("jacobi-quadratic", (
        (i, quad(i)) for i in itertools.product(range(n), repeat=5)))

    def lin(idx):
        A, B, C, D = idx
        return _sum_of_products(
            term for X, Y, Z in _cyc(A, B, C) for E in range(n)
            for term in ((1, Rt[X][Y][E][D], g[Z][E]),
                         (1, f[X][Y][E], f[Z][E][D])))

    rep.add_first_nonzero("jacobi-linear", (
        (i, lin(i)) for i in itertools.product(range(n), repeat=4)))

    def const(idx):
        A, B, C = idx
        return _sum_of_products((1, f[X][Y][D], g[Z][D])
                                for X, Y, Z in _cyc(A, B, C) for D in range(n))

    rep.add_first_nonzero("jacobi-constant", (
        (i, const(i)) for i in itertools.product(range(n), repeat=3)))
    return rep


def substituted_constants(c: CanonicalConstants,
                          t: CanonicalTransform) -> CanonicalConstants:
    """Constants of N P(N^{-1}(F' - V)) Nᵀ, read off its value and
    derivatives at the origin."""
    n = c.dim
    chart = canonical_chart(n)
    P = poisson_matrix(c, chart)
    N, V = dense(t.N, n, 2), dense(t.V, n, 1)
    Ninv = dense_invert(N)
    phi = [RatExpr.variable(chart, k) for k in range(n)]
    back = [sum((RatExpr.const(chart, Ninv[A][B])
                 * (phi[B] - RatExpr.const(chart, V[B])) for B in range(n)),
                RatExpr.zero(chart))
            for A in range(n)]
    origin = [ZERO] * n
    rt, f, g = [], [], []
    for A, B in itertools.product(range(n), repeat=2):
        P2 = subst(sum((RatExpr.const(chart, N[A][E] * N[B][F]) * P[E, F]
                        for E in range(n) for F in range(n)),
                       RatExpr.zero(chart)), back)
        g.append((A, B, eval_at(P2, origin)))
        for C in range(n):
            dC = P2.diff(C)
            f.append((A, B, C, eval_at(dC, origin)))
            for D in range(n):
                rt.append((A, B, C, D, eval_at(dC.diff(D), origin)))
    return CanonicalConstants.from_entries(n, rt, f, g)


_scalars = st.builds(GaussianRational,
                     st.builds(Fraction, st.integers(-2, 2), st.integers(1, 2)),
                     st.sampled_from([0, 0, 1, -1]))


@st.composite
def constants(draw, complete_rt=None):
    """Random sparse constants; with the index symmetries completed or
    not, so that both the symmetry laws and the closure laws fail at
    varying components."""
    n = draw(st.sampled_from([2, 3]))

    def entries(rank):
        idx = st.tuples(*[st.integers(0, n - 1)] * rank)
        return draw(st.lists(st.tuples(idx, _scalars), max_size=4))

    complete = draw(st.booleans()) if complete_rt is None else complete_rt
    rt, f, g = [], [], []
    for (A, B, C, D), v in entries(4):
        if not complete:
            rt.append((A, B, C, D, v))
        elif A != B:
            rt += [(A, B, C, D, v), (A, B, D, C, v),
                   (B, A, C, D, -v), (B, A, D, C, -v)]
    for (A, B, C), v in entries(3):
        if not complete:
            f.append((A, B, C, v))
        elif A != B:
            f += [(A, B, C, v), (B, A, C, -v)]
    for (A, B), v in entries(2):
        if not complete:
            g.append((A, B, v))
        elif A != B:
            g += [(A, B, v), (B, A, -v)]
    return CanonicalConstants.from_entries(n, rt, f, g)


@settings(max_examples=40, deadline=None)
@given(constants())
def test_check_constants_matches_dense_loops(c):
    assert check_constants(c).to_dict() == dense_check_constants(c).to_dict()


def test_dense_reference_sees_failures():
    """Constants with the index symmetries completed that fail all four
    closure laws: both sides report the same first components."""
    c = CanonicalConstants.from_entries(
        3, rt=[(1, 0, 0, 2, 1), (1, 0, 2, 0, 1), (0, 1, 0, 2, -1),
               (0, 1, 2, 0, -1), (2, 1, 2, 1, 1), (2, 1, 1, 2, 1),
               (1, 2, 2, 1, -1), (1, 2, 1, 2, -1)],
        f=[(2, 1, 1, 1), (1, 2, 1, -1)],
        g=[(0, 1, 1), (1, 0, -1)])
    rep = check_constants(c)
    assert rep.to_dict() == dense_check_constants(c).to_dict()
    assert sorted(ch.name for ch in rep.failures) == [
        "jacobi-constant", "jacobi-linear", "jacobi-quadratic", "yang-baxter"]


@st.composite
def transforms(draw):
    """Constants with the index symmetries completed, and a random affine
    change N, V of the same dimension."""
    c = draw(constants(complete_rt=True))
    n = c.dim
    row = st.lists(_scalars, min_size=n, max_size=n)
    return c, draw(st.lists(row, min_size=n, max_size=n)), draw(row)


@settings(max_examples=25, deadline=None)
@given(transforms())
def test_transform_matches_substitution(case):
    c, N, V = case
    try:
        t = CanonicalTransform(N, V)
    except ValueError:
        assume(False)
    assert transform_constants(c, t) == substituted_constants(c, t)
