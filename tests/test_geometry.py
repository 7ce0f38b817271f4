import random

import pytest

from poissonforms.bracket import PoissonStructure
from poissonforms.geometry import (
    Metric,
    Tensor,
    check_integrability,
    connection_from_metric,
    coord_signature,
    covariant_derivative,
    curvature,
    cyclic_jacobi,
    torsion,
)
from poissonforms.linalg import (det_matrix, identity_matrix, invert_matrix,
                                 mat_mul, solve)
from poissonforms.parsing import parse_scalar
from poissonforms.ratexpr import Chart, RatExpr
from poissonforms.scalars import GaussianRational

from identities import (
    curvature_twist_residual,
    cyclic_curvature_torsion_residual,
    darboux_p,
    flat_twist_residual,
    pure_gauge_connection,
    random_connection,
    random_shear_change,
    transform_structure,
    transform_tensor,
)
from test_bracket import sphere_structure


@pytest.fixture
def darboux():
    ch = Chart(("q", "p"))
    return PoissonStructure(ch, darboux_p(ch))


def test_linalg_roundtrip():
    ch = Chart(("x", "y"))
    M = [[parse_scalar(v, ch) for v in row]
         for row in (("x + 1", "y"), ("y", "x"))]
    d = det_matrix(M)
    assert d == parse_scalar("x^2 + x - y^2", ch)
    inv = invert_matrix(M)
    assert mat_mul(M, inv) == identity_matrix(ch, 2)
    assert mat_mul(inv, M) == identity_matrix(ch, 2)
    singular = [[parse_scalar(v, ch) for v in row]
                for row in (("x", "x"), ("x", "x"))]
    assert invert_matrix(singular) is None


def test_linalg_row_swap_and_scalar_field():
    ch = Chart(("x",))
    swap = [[RatExpr.zero(ch), RatExpr.one(ch)],
            [RatExpr.one(ch), RatExpr.zero(ch)]]
    assert det_matrix(swap) == -1
    gr = GaussianRational
    M = [[gr(0), gr(1, 1)], [gr(2), gr(3)]]
    assert det_matrix(M) == gr(-2, -2)
    inv = invert_matrix(M)
    one, zero = gr(1), gr(0)
    for i in range(2):
        for j in range(2):
            got = sum((M[i][k] * inv[k][j] for k in range(2)), zero)
            assert got == (one if i == j else zero)
    assert invert_matrix([[gr(1), gr(0, 1)], [gr(0, 1), gr(-1)]]) is None
    assert det_matrix([[gr(1), gr(0, 1)], [gr(0, 1), gr(-1)]]) == 0


def test_solve_particular_solution():
    gr = GaussianRational
    # rank 2 in 3 unknowns, four equations: the third row is the sum of
    # the first two and the last is zero.
    A = [[gr(0), gr(1), gr(1)],
         [gr(2), gr(0), gr(4)],
         [gr(2), gr(1), gr(5)],
         [gr(0), gr(0), gr(0)]]
    b = [gr(3), gr(0, 2), gr(3, 2), gr(0)]
    W = solve(A, b)
    assert W == [gr(0, 1), gr(3), gr(0)]
    for row, v in zip(A, b):
        assert sum((x * w for x, w in zip(row, W)), gr(0)) == v
    assert solve(A, b[:2] + [gr(4), gr(0)]) is None
    assert solve(A, b[:3] + [gr(1)]) is None


def test_tensor_shape_and_signature():
    ch = Chart(("q", "p"))
    t = Tensor(ch, coord_signature("ud"), [["q", "0"], ["1", "p"]])
    assert t[0, 0] == parse_scalar("q", ch)
    assert t.rank == 2
    assert not t.is_zero()
    assert t.to_strings() == [["q", "0"], ["1", "p"]]
    with pytest.raises(ValueError):
        Tensor(ch, coord_signature("u"), ["q"])
    with pytest.raises(ValueError):
        Tensor(ch, (("sideways", "coordinate"),), ["q", "p"])


def test_tensor_lookup_needs_one_index_per_slot():
    ch = Chart(("q", "p"))
    t = Tensor(ch, coord_signature("ud"), [["q", "0"], ["1", "p"]])
    assert t[0, 1] == 0 and t[1, 0] == 1
    assert t.components == {(0, 0): parse_scalar("q", ch),
                            (1, 0): RatExpr.const(ch, 1),
                            (1, 1): parse_scalar("p", ch)}
    for idx in (0, (0,), (0, 1, 0), (-1, 0), (0, 2), (0, 0.5)):
        with pytest.raises(IndexError):
            t[idx]
    v = Tensor(ch, coord_signature("u"), ["q", "0"])
    assert v[0] == v[0,] == parse_scalar("q", ch)
    with pytest.raises(IndexError):
        v[2]


def test_torsion_flat_is_zero(darboux):
    assert torsion(darboux).is_zero()
    assert curvature(darboux, "gamma").is_zero()
    assert curvature(darboux, "tilde").is_zero()


def test_torsion_antisymmetry():
    rng = random.Random(7)
    ch = Chart(("q", "p"))
    s = random_connection(ch, rng)
    T = torsion(s)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                assert T[a, b, c] == -T[a, c, b]


def test_covariant_derivative_scalar_gradient(darboux):
    ch = darboux.chart
    f = Tensor(ch, (), "q^2*p")
    grad = covariant_derivative(f, darboux)
    assert grad[0,] == parse_scalar("2*q*p", ch)
    assert grad[1,] == parse_scalar("q^2", ch)


def test_covariant_derivative_rejects_frame_indices(darboux):
    ch = darboux.chart
    t = Tensor(ch, (("up", "frame"), ("down", "coordinate")),
               [["1", "0"], ["0", "1"]])
    with pytest.raises(ValueError):
        covariant_derivative(t, darboux)


def test_darboux_integrability(darboux):
    rep = check_integrability(darboux)
    assert rep.passed
    assert sorted(c.name for c in rep.checks) == [
        "curvature-transport", "flatness", "jacobi-cyclic", "poisson-parallel",
    ]


def test_sphere_integrability():
    st = sphere_structure()
    rep = check_integrability(st)
    assert rep.passed, rep.render_text()
    assert sorted(c.name for c in rep.checks) == [
        "block-diagonal", "curvature-transport", "flatness",
        "jacobi-cyclic", "poisson-parallel",
    ]


def test_corrupted_connection_breaks_flatness(darboux):
    ch = darboux.chart
    zero = RatExpr.zero(ch)
    G = [[[zero] * 2 for _ in range(2)] for _ in range(2)]
    G[0][0][0] = parse_scalar("p", ch)
    s = PoissonStructure(ch, darboux.P, G)
    rep = check_integrability(s)
    names = {c.name: c for c in rep.checks}
    assert names["jacobi-cyclic"].ok
    assert not names["flatness"].ok
    R = curvature(s, "gamma")
    idx = tuple(int(v) for v in
                names["flatness"].location.strip("component ()").split(","))
    assert str(R[idx]) == names["flatness"].residual
    assert not R[idx].is_zero()


def test_singular_p_reports_not_applicable():
    ch = Chart(("x", "y", "w"))
    zero = RatExpr.zero(ch)
    one = RatExpr.const(ch, 1)
    P = [[zero, one, zero], [-one, zero, zero], [zero, zero, zero]]
    rep = check_integrability(PoissonStructure(ch, P))
    names = {c.name: c for c in rep.checks}
    assert names["jacobi-cyclic"].ok
    for name in ("flatness", "poisson-parallel", "curvature-transport"):
        assert names[name].status == "not-applicable"
    assert rep.passed
    assert "[N/A]" in rep.render_text()


def test_cyclic_jacobi_catches_bad_p():
    ch = Chart(("x", "y", "w"))
    P = [["0", "x", "-1"], ["-x", "0", "0"], ["1", "0", "0"]]
    t = cyclic_jacobi(PoissonStructure(ch, P))
    assert t[0, 1, 2] == parse_scalar("1", ch)
    rep = check_integrability(PoissonStructure(ch, P))
    names = {c.name: c for c in rep.checks}
    assert not names["jacobi-cyclic"].ok


def test_cyclic_identity_random_connections():
    rng = random.Random(11)
    ch = Chart(("q", "p"))
    for _ in range(4):
        s = random_connection(ch, rng)
        assert cyclic_curvature_torsion_residual(s).is_zero()


def test_curvature_twist_identity_random_connections():
    rng = random.Random(12)
    ch = Chart(("q", "p"))
    for _ in range(4):
        s = random_connection(ch, rng)
        assert curvature_twist_residual(s).is_zero()


def test_identities_dimension_three():
    rng = random.Random(13)
    ch = Chart(("x", "y", "w"))
    n = ch.n
    G = [[[parse_scalar(str(rng.randint(-2, 2)), ch) * RatExpr.variable(ch, rng.randrange(n))
           for _ in range(n)] for _ in range(n)] for _ in range(n)]
    zero = RatExpr.zero(ch)
    one = RatExpr.const(ch, 1)
    P = [[zero, one, zero], [-one, zero, zero], [zero, zero, zero]]
    s = PoissonStructure(ch, P, G)
    assert cyclic_curvature_torsion_residual(s).is_zero()
    assert curvature_twist_residual(s).is_zero()


def test_flat_connection_twist_equals_grad_torsion():
    rng = random.Random(21)
    ch = Chart(("q", "p"))
    for _ in range(3):
        s = pure_gauge_connection(ch, rng)
        assert curvature(s, "gamma").is_zero()
        assert flat_twist_residual(s).is_zero()


def test_sphere_flat_twist():
    st = sphere_structure()
    assert curvature(st, "gamma").is_zero()
    assert flat_twist_residual(st).is_zero()


def test_transform_commutes_with_torsion_and_curvature():
    rng = random.Random(31)
    old = Chart(("x", "y"))
    new = Chart(("u", "v"))
    for _ in range(2):
        change = random_shear_change(old, new, rng)
        s = random_connection(old, rng, degree=1)
        s2 = transform_structure(s, change)
        assert transform_tensor(torsion(s), change) == torsion(s2)
        assert transform_tensor(curvature(s, "gamma"), change) == curvature(s2, "gamma")


def test_transform_keeps_integrability():
    rng = random.Random(32)
    old = Chart(("x", "y"))
    new = Chart(("u", "v"))
    change = random_shear_change(old, new, rng)
    s = PoissonStructure(old, darboux_p(old))
    s2 = transform_structure(s, change)
    assert check_integrability(s2).passed


def test_metric_validation():
    ch = Chart(("q", "p"))
    with pytest.raises(ValueError):
        Metric(ch, [["0", "1"], ["2", "0"]])
    m = Metric(ch, [["0", "0"], ["0", "0"]])
    assert m.hinv is None
    s = PoissonStructure(ch, darboux_p(ch))
    with pytest.raises(ValueError):
        connection_from_metric(m, s)


def test_connection_from_constant_metric(darboux):
    m = Metric(darboux.chart, [["1", "0"], ["0", "1"]])
    got = connection_from_metric(m, darboux)
    assert got.is_zero()


def test_connection_from_metric_matches_sphere():
    st = sphere_structure()
    ch = st.chart
    p = parse_scalar("z*zb + 1", ch)
    hval = RatExpr.const(ch, 1) / (p * p)
    zero = RatExpr.zero(ch)
    m = Metric(ch, [[zero, hval], [hval, zero]])
    bare = PoissonStructure(ch, st.P)
    got = connection_from_metric(m, bare)
    assert got == st.Gamma


def test_connection_from_metric_postconditions():
    st = sphere_structure()
    ch = st.chart
    p = parse_scalar("z*zb + 1", ch)
    hval = RatExpr.const(ch, 1) / (p * p)
    zero = RatExpr.zero(ch)
    m = Metric(ch, [[zero, hval], [hval, zero]])
    got = connection_from_metric(m, PoissonStructure(ch, st.P))
    s = PoissonStructure(ch, st.P, got)
    assert covariant_derivative(m.as_tensor(), s, "gamma").is_zero()
    assert covariant_derivative(s.P, s, "tilde").is_zero()
