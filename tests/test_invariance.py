"""Metamorphic oracle: a linear change of coordinates does not change which
laws hold.

Under x' = N x, with M = N^-1, a structure becomes P' = N P N^T and
Gamma'^b_{ld} = N^b_j Gamma^j_{ge} M^g_l M^e_d, every entry taken at
x = M x'.  Every law the package checks is tensorial, so each one passes,
fails or does not apply on both sides alike; only the residuals and the
locations of failures may differ.  On complex charts N maps holomorphic
coordinates to holomorphic ones and acts on their partners by the
conjugate matrix, so the pairing and the bidegrees are kept.
"""

import pytest

from poissonforms.bracket import PoissonStructure, SamplePlan, verify_axioms
from poissonforms.canonical import (CanonicalConstants, CanonicalTransform,
                                    build_canonical, check_constants,
                                    transform_constants)
from poissonforms.complexforms import verify_complex_axioms
from poissonforms.geometry import Tensor, check_integrability, coord_signature
from poissonforms.linalg import _contract, invert_matrix
from poissonforms.onedim import HermitianTriple, one_dim_chart, triple_constants
from poissonforms.parsing import parse_scalar
from poissonforms.ratexpr import Chart, RatExpr
from poissonforms.scalars import GaussianRational as G

from identities import subst

PLAN = SamplePlan(count=2)


def _matrix(rows) -> dict:
    return {(i, j): G.coerce(v) for i, row in enumerate(rows)
            for j, v in enumerate(row) if v != 0}


def transform(s: PoissonStructure, N: dict) -> PoissonStructure:
    """s in the coordinates x' = N x, on a chart with the same names."""
    chart, n = s.chart, s.chart.n
    N, M = ({idx: RatExpr.const(chart, v) for idx, v in T.items()}
            for T in (N, invert_matrix(N, n)))
    x = _contract("jk,k->j", M, {(k,): RatExpr.variable(chart, k)
                                 for k in range(n)})
    old = [x.get((j,), RatExpr.zero(chart)) for j in range(n)]

    def at_old(T):
        return {idx: subst(v, old) for idx, v in T.components.items()}

    P = _contract("aj,jk,bk->ab", N, at_old(s.P), N)
    Gamma = _contract("bj,jge,gl,ed->bld", N, at_old(s.Gamma), M, M)
    return PoissonStructure(chart, Tensor._of(chart, coord_signature("uu"), P),
                            Tensor._of(chart, coord_signature("udd"), Gamma))


def verdicts(s: PoissonStructure) -> dict:
    """{law: "fail" | "pass" | "not-applicable"} over every law checked on
    s: the geometry laws and the bracket laws, those of complex charts
    included."""
    rep = check_integrability(s)
    rep.extend(verify_axioms(s, PLAN))
    if s.chart.is_complex():
        rep.extend(verify_complex_axioms(s, PLAN))
    seen = {}
    for c in rep.checks:
        seen.setdefault(c.name, set()).add(c.status)
    return {name: next(v for v in ("fail", "pass", "not-applicable")
                       if v in statuses)
            for name, statuses in seen.items()}


def darboux2():
    ch = Chart(("q", "p"))
    return PoissonStructure(ch, [[0, 1], [-1, 0]])


def scaled_darboux4():
    """Darboux P on (q1, q2, p1, p2) with the constant connection
    Gamma^1_{10} = 1, Gamma^3_{30} = -1, the generator of q2 -> t q2,
    p2 -> p2 / t along q1: it keeps every law, and it tells an up slot
    from a down one, which no connection in dimension two does."""
    ch = Chart(("q1", "q2", "p1", "p2"))
    G = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    G[1][1][0], G[3][3][0] = 1, -1
    return PoissonStructure(
        ch, [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]], G)


def broken_darboux2():
    """Darboux P with the flat connection Gamma^0_{00} = 1, which breaks
    the laws that tie Gamma to P."""
    ch = Chart(("q", "p"))
    return PoissonStructure(ch, [[0, 1], [-1, 0]],
                            [[[1, 0], [0, 0]], [[0, 0], [0, 0]]])


def so3():
    """Lie-Poisson structure of so(3): P^{ab} = eps_{abc} x^c, singular."""
    ch = Chart(("x", "y", "z"))
    P = [["0", "z", "-y"], ["-z", "0", "x"], ["y", "-x", "0"]]
    return PoissonStructure(ch, [[parse_scalar(v, ch) for v in row]
                                 for row in P])


TRIPLES = [HermitianTriple(1, 0, 1), HermitianTriple(1, G(1, 2), -1),
           HermitianTriple(0, 1, 0)]
REAL_N = _matrix([[1, 2], [1, 3]])
ONEDIM_N = _matrix([[G(1, 2), 0], [0, G(1, -2)]])


@pytest.mark.parametrize("make, N", [
    (darboux2, REAL_N), (broken_darboux2, REAL_N),
    (scaled_darboux4, _matrix([[2, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1],
                               [1, 0, 0, 1]])),
    (so3, _matrix([[1, 1, 0], [0, 1, 2], [1, 0, 1]]))],
    ids=["darboux2", "broken-darboux2", "scaled-darboux4", "so3"])
def test_real_structures_keep_their_verdicts(make, N):
    s = make()
    assert verdicts(transform(s, N)) == verdicts(s)


@pytest.mark.parametrize("t", TRIPLES, ids=str)
def test_onedim_triples_keep_their_verdicts(t):
    s, _ = build_canonical(triple_constants(t), one_dim_chart())
    assert verdicts(transform(s, ONEDIM_N)) == verdicts(s)


def test_oracle_sees_passes_and_failures():
    assert set(verdicts(scaled_darboux4()).values()) == {"pass"}
    for make in (broken_darboux2, so3):
        assert "fail" in verdicts(make()).values()


@pytest.mark.parametrize("c, chart, N, V", [
    (triple_constants(TRIPLES[1]), one_dim_chart(),
     [[G(1, 2), 0], [0, G(1, -2)]], [G(1, 1), G(1, -1)]),
    (CanonicalConstants.from_entries(2, g=[(0, 1, 1), (1, 0, -1)],
                                     f=[(0, 1, 0, 1), (1, 0, 0, -1)]),
     None, [[1, 2], [1, 3]], [1, 0])], ids=["onedim", "affine-real"])
def test_transformed_constants_build_the_same_laws(c, chart, N, V):
    """build_canonical(transform_constants(c, t)) passes the laws c does."""
    c2 = transform_constants(c, CanonicalTransform(N, V))
    assert check_constants(c2).passed and check_constants(c).passed
    s, _ = build_canonical(c, chart)
    s2, _ = build_canonical(c2, chart)
    assert verdicts(s2) == verdicts(s)
    assert set(verdicts(s).values()) == {"pass"}
