"""Sparse connection geometry and generator brackets against dense
references.

The laws in `geometry`, and the bracket's generator table, contract
dicts of nonzero components.  The references below are the same laws
written as loops over every index of the nested arrays
`s.P.to_lists()` and `s.Gamma.to_lists()`, each law reporting its first
nonzero component in `itertools.product` order.  On random connections,
flat ones, polynomial coefficient matrices and matrices that are not
Poisson, every tensor must equal its reference and `check_integrability`
must give the same report; on random real and complex structures,
`coord_dx` and `bracket_scalars` must equal their dense loops.
"""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from poissonforms.bracket import PoissonStructure, random_scalar
from poissonforms.canonical import build_canonical
from poissonforms.geometry import (Metric, Tensor, _add_first_nonzero,
                                   check_integrability,
                                   connection_from_metric, coord_signature,
                                   covariant_derivative, curvature,
                                   cyclic_jacobi, torsion)
from poissonforms.forms import DiffForm
from poissonforms.linalg import invert_matrix
from poissonforms.ratexpr import Chart, RatExpr
from poissonforms.report import VerificationReport

from identities import pure_gauge_connection, random_connection
from test_bracket import sphere_structure
from test_complex import product_chart, product_constants


def dense_gamma(s, which):
    G = s.Gamma.to_lists()
    if which == "gamma":
        return G
    n = s.chart.n
    return [[[G[a][c][b] for c in range(n)] for b in range(n)]
            for a in range(n)]


def dense_torsion(s):
    G = s.Gamma.to_lists()
    return Tensor.from_fn(s.chart, coord_signature("udd"),
                          lambda i: G[i[0]][i[1]][i[2]] - G[i[0]][i[2]][i[1]])


def dense_curvature(s, which):
    G = dense_gamma(s, which)
    n = s.chart.n

    def comp(idx):
        a, b, c, d = idx
        val = G[a][d][b].diff(c) - G[a][c][b].diff(d)
        for k in range(n):
            val = val + G[a][c][k] * G[k][d][b] - G[a][d][k] * G[k][c][b]
        return val

    return Tensor.from_fn(s.chart, coord_signature("uddd"), comp)


def dense_covariant_derivative(U, s, which):
    G = dense_gamma(s, which)
    n = s.chart.n

    def comp(idx):
        d, rest = idx[0], idx[1:]
        val = U[rest].diff(d)
        for slot, (pos, _) in enumerate(U.signature):
            here = rest[slot]
            for m in range(n):
                other = rest[:slot] + (m,) + rest[slot + 1:]
                if pos == "up":
                    val = val + G[here][d][m] * U[other]
                else:
                    val = val - U[other] * G[m][d][here]
        return val

    return Tensor.from_fn(s.chart, (("down", "coordinate"),) + U.signature,
                          comp)


def dense_cyclic_jacobi(s):
    P = s.P.to_lists()
    n = s.chart.n

    def comp(idx):
        a, b, c = idx
        val = RatExpr.zero(s.chart)
        for d in range(n):
            val = (val + P[a][d] * P[b][c].diff(d)
                   + P[b][d] * P[c][a].diff(d)
                   + P[c][d] * P[a][b].diff(d))
        return val

    return Tensor.from_fn(s.chart, coord_signature("uuu"), comp)


def dense_transport(s):
    """W^{ab}_{kl} = P^{ag} Rt^b_{gkl}, with Rt the twisted curvature."""
    Rt = dense_curvature(s, "tilde")
    P = s.P.to_lists()
    n = s.chart.n

    def comp(idx):
        a, b, k, l = idx
        val = RatExpr.zero(s.chart)
        for g in range(n):
            val = val + P[a][g] * Rt[b, g, k, l]
        return val

    return Tensor.from_fn(s.chart, coord_signature("uudd"), comp)


def dense_check_integrability(s):
    rep = VerificationReport()
    chart = s.chart
    _add_first_nonzero(rep, "jacobi-cyclic",
                       dense_cyclic_jacobi(s).nonzero_components())
    names = ["flatness", "poisson-parallel", "curvature-transport"]
    if chart.is_complex():
        names.append("block-diagonal")
    if invert_matrix(s.P.to_lists()) is None:
        for name in names:
            rep.add_not_applicable(name)
        return rep
    _add_first_nonzero(rep, "flatness",
                       dense_curvature(s, "gamma").nonzero_components())
    _add_first_nonzero(rep, "poisson-parallel", dense_covariant_derivative(
        s.P, s, "tilde").nonzero_components())
    _add_first_nonzero(rep, "curvature-transport", dense_covariant_derivative(
        dense_transport(s), s, "gamma").nonzero_components())
    if chart.is_complex():
        n = chart.n
        holo = chart.is_holo
        G = s.Gamma.to_lists()
        _add_first_nonzero(rep, "block-diagonal", (
            ((a, b, c), G[a][b][c])
            for a in range(n) for b in range(n) for c in range(n)
            if holo(a) != holo(c)))
    return rep


def dense_connection_from_metric(metric, s):
    chart = s.chart
    P = s.P.to_lists()
    Pinv = invert_matrix(P)
    h = metric.h
    hi = metric.hinv
    n = chart.n
    half = RatExpr.const(chart, 1) / RatExpr.const(chart, 2)

    def comp(idx):
        a, b, g = idx
        total = RatExpr.zero(chart)
        for dl in range(n):
            if Pinv[b][dl].is_zero():
                continue
            for ep in range(n):
                if h[g][ep].is_zero():
                    continue
                inner = RatExpr.zero(chart)
                for k in range(n):
                    inner = (inner
                             + hi[ep][k] * P[a][dl].diff(k)
                             + hi[a][k] * P[dl][ep].diff(k)
                             - hi[dl][k] * P[ep][a].diff(k)
                             + P[ep][k] * hi[a][dl].diff(k)
                             - P[a][k] * hi[dl][ep].diff(k)
                             - P[dl][k] * hi[ep][a].diff(k))
                total = total + Pinv[b][dl] * h[g][ep] * inner
        return half * total

    return Tensor.from_fn(chart, coord_signature("udd"), comp)


def assert_matches_dense(s):
    """Every law of `geometry` on s equals its dense reference."""
    assert torsion(s) == dense_torsion(s)
    assert cyclic_jacobi(s) == dense_cyclic_jacobi(s)
    for which in ("gamma", "tilde"):
        assert curvature(s, which) == dense_curvature(s, which)
        for U in (s.P, dense_torsion(s)):
            assert (covariant_derivative(U, s, which)
                    == dense_covariant_derivative(U, s, which))
    assert (check_integrability(s).to_dict()
            == dense_check_integrability(s).to_dict())


def antisymmetric(chart, rng, degree):
    """A random antisymmetric matrix of polynomials."""
    n = chart.n
    zero = RatExpr.zero(chart)
    P = [[zero] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            P[a][b] = random_scalar(chart, rng, degree)
            P[b][a] = -P[a][b]
    return P


@st.composite
def structures(draw):
    """A random or flat connection on a two-dimensional chart with a
    constant or polynomial P, or a linear P on three or four coordinates,
    generically not Poisson, with a sparse random connection."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    kind = draw(st.sampled_from(["random", "flat", "not-poisson"]))
    if kind != "not-poisson":
        ch = Chart(("q", "p"))
        make = random_connection if kind == "random" else pure_gauge_connection
        s = make(ch, rng, degree=draw(st.integers(1, 2)))
        if draw(st.booleans()):
            s = PoissonStructure(ch, antisymmetric(ch, rng, 1), s.Gamma)
        return s
    ch = Chart(("x", "y", "w", "v")[:draw(st.integers(3, 4))])
    n = ch.n
    zero = RatExpr.zero(ch)
    G = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for _ in range(draw(st.integers(0, 4))):
        a, b, c = (rng.randrange(n) for _ in range(3))
        G[a][b][c] = random_scalar(ch, rng, 1)
    return PoissonStructure(ch, antisymmetric(ch, rng, 1), G)


@settings(max_examples=20, deadline=None)
@given(structures())
def test_geometry_matches_dense_loops(s):
    assert_matches_dense(s)


def test_dense_reference_sees_failures():
    """A linear P on four coordinates that is not Poisson, with a
    connection that is neither flat nor parallel: every law fails, and
    both sides report the same first components."""
    ch = Chart(("x", "y", "w", "v"))
    P = [["0", "x", "1", "y"], ["-x", "0", "w", "1"],
         ["-1", "-w", "0", "v"], ["-y", "-1", "-v", "0"]]
    zero = RatExpr.zero(ch)
    G = [[[zero] * 4 for _ in range(4)] for _ in range(4)]
    G[0][1][2] = RatExpr.variable(ch, 3)
    G[2][0][1] = RatExpr.variable(ch, 0)
    s = PoissonStructure(ch, P, G)
    assert_matches_dense(s)
    assert [c.name for c in check_integrability(s).failures] == [
        "jacobi-cyclic", "flatness", "poisson-parallel",
        "curvature-transport"]


def test_complex_charts_match_dense_loops():
    """The sphere, its connection corrupted off the holomorphic blocks,
    and the four-dimensional product structure."""
    sphere = sphere_structure()
    assert_matches_dense(sphere)
    G = sphere.Gamma.to_lists()
    G[0][0][1] = RatExpr.const(sphere.chart, 1)
    assert_matches_dense(PoissonStructure(sphere.chart, sphere.P, G))
    s, _ = build_canonical(product_constants(), product_chart())
    assert (check_integrability(s).to_dict()
            == dense_check_integrability(s).to_dict())


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 32), st.booleans())
def test_connection_from_metric_matches_dense_loop(seed, constant_p):
    """Random polynomial metrics h = Mᵀ D M with M unipotent, so that the
    inverse metric is polynomial too, with a constant or linear P."""
    rng = random.Random(seed)
    ch = Chart(("q", "p"))
    P = antisymmetric(ch, rng, 0 if constant_p else 1)
    assume(invert_matrix(P) is not None)
    m = random_scalar(ch, rng, 1)
    d0, d1 = rng.choice([1, 2, -1]), rng.choice([1, -3])
    metric = Metric(ch, [[d0, d0 * m], [d0 * m, d0 * m * m + d1]])
    s = PoissonStructure(ch, P)
    assert (connection_from_metric(metric, s)
            == dense_connection_from_metric(metric, s))


# -- generator brackets --------------------------------------------------


def dense_coord_dx(s):
    """(x^a, dx^b) = -P[a][g] Gamma[b][g][d] dx^d by loops over every
    index."""
    P, G = s.P.to_lists(), s.Gamma.to_lists()
    n = s.chart.n
    xd = [[None] * n for _ in range(n)]
    for al in range(n):
        for be in range(n):
            w = DiffForm.zero(s.chart)
            for g in range(n):
                if P[al][g].is_zero():
                    continue
                for d in range(n):
                    c = P[al][g] * G[be][g][d]
                    if c:
                        w = w + DiffForm.monomial(-c, (d,))
            xd[al][be] = w
    return xd


def dense_bracket_scalars(s, f, g):
    P = s.P.to_lists()
    n = s.chart.n
    out = RatExpr.zero(s.chart)
    df = [f.diff(j) for j in range(n)]
    dg = [g.diff(j) for j in range(n)]
    for a in range(n):
        if df[a].is_zero():
            continue
        for b in range(n):
            if P[a][b].is_zero() or dg[b].is_zero():
                continue
            out = out + P[a][b] * df[a] * dg[b]
    return out


def hermitian(chart, rng, degree):
    """A random antisymmetric matrix of polynomials with
    P[a][b].conj() == P[pr b][pr a], pr the conjugation of the chart:
    R[a][b] + conj(R[pr b][pr a]) for a random antisymmetric R."""
    R = antisymmetric(chart, rng, degree)
    pr = chart.conj_perm()
    n = chart.n
    return [[R[a][b] + R[pr[b]][pr[a]].conj() for b in range(n)]
            for a in range(n)]


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 32), st.booleans(), st.integers(2, 4))
def test_generator_brackets_match_dense_loops(seed, complex_chart, n):
    """Random P and a sparse random connection with nonzero entries, on a
    real chart of 2 to 4 coordinates or a complex chart of 2 or 4."""
    rng = random.Random(seed)
    if complex_chart:
        names = ("z1", "zb1", "z2", "zb2")[:2 if n < 4 else 4]
        ch = Chart(names, kind="complex",
                   pairs=tuple(zip(names[::2], names[1::2])))
        P = hermitian(ch, rng, 1)
    else:
        ch = Chart(("x", "y", "w", "v")[:n])
        P = antisymmetric(ch, rng, 1)
    n = ch.n
    zero = RatExpr.zero(ch)
    G = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for _ in range(rng.randint(1, 6)):
        a, b, c = (rng.randrange(n) for _ in range(3))
        G[a][b][c] = random_scalar(ch, rng, 1)
    s = PoissonStructure(ch, P, G)
    assume(not s.Gamma.is_zero())
    xd = dense_coord_dx(s)
    for a in range(n):
        for b in range(n):
            assert s.coord_dx(a, b) == xd[a][b]
    for _ in range(3):
        f = random_scalar(ch, rng, 2)
        g = random_scalar(ch, rng, 2)
        assert s.bracket_scalars(f, g) == dense_bracket_scalars(s, f, g)


@pytest.mark.parametrize("chart, P, message", [
    (Chart(("x", "y")), [["0", "0"], ["x", "0"]],
     "P is not antisymmetric at (0,1)"),
    (Chart(("x", "y", "w")),
     [["0", "1", "0"], ["-1", "0", "0"], ["y", "0", "0"]],
     "P is not antisymmetric at (0,2)"),
    (Chart(("z1", "zb1", "z2", "zb2"), kind="complex",
           pairs=(("z1", "zb1"), ("z2", "zb2"))),
     [["0"] * 4, ["0", "0", "0", "-z1"], ["0"] * 4, ["0", "z1", "0", "0"]],
     "P is not hermitian at (0,2)"),
    (Chart(("z", "zb"), kind="complex", pairs=(("z", "zb"),)),
     [["0", "i"], ["-i", "0"]], "P is not hermitian at (0,1)"),
])
def test_first_failing_pair_is_reported(chart, P, message):
    """The constructor names the first failing (a,b) in index order, even
    when the entry there is zero and only its partner is not."""
    with pytest.raises(ValueError) as exc:
        PoissonStructure(chart, P)
    assert str(exc.value) == message
