import itertools
from fractions import Fraction

import pytest

from poissonforms.bracket import PoissonStructure, SamplePlan, verify_axioms
from poissonforms.canonical import (
    CanonicalConstants,
    CanonicalTransform,
    Frame,
    build_canonical,
    canonical_chart,
    check_constants,
    e_basis,
    find_torsion_zero,
    frame_curvature,
    poisson_matrix,
    transform_constants,
    xi_realization,
)
from poissonforms.forms import DiffForm
from poissonforms.geometry import check_integrability, cyclic_jacobi, torsion
from poissonforms.parsing import parse_scalar
from poissonforms.ratexpr import Chart, RatExpr
from poissonforms.scalars import GaussianRational

from identities import dense_invert, eval_at, flat_twist_residual, to_lists
from test_bracket import sphere_structure
from test_constants_oracle import (dense, dense_yang_baxter_defect,
                                   dense_yang_baxter_symmetrized)

QUICK = SamplePlan(count=4)


def darboux_constants(dim):
    return CanonicalConstants.from_entries(
        dim, g=[e for k in range(0, dim, 2) for e in ((k, k + 1, 1),
                                                      (k + 1, k, -1))])


def sphere_real_constants():
    """Rt = eps x delta: P^{01} = (u1^2 + u2^2)/2 + 1."""
    return CanonicalConstants.from_entries(
        2,
        rt=[(0, 1, 0, 0, 1), (0, 1, 1, 1, 1), (1, 0, 0, 0, -1), (1, 0, 1, 1, -1)],
        g=[(0, 1, 1), (1, 0, -1)])


def mixed_constants():
    """Rt = eps x offdiag: P^{01} = u1*u2 + 1, the 1-D complex structure
    written out in components."""
    return CanonicalConstants.from_entries(
        2,
        rt=[(0, 1, 0, 1, 1), (0, 1, 1, 0, 1), (1, 0, 0, 1, -1), (1, 0, 1, 0, -1)],
        g=[(0, 1, 1), (1, 0, -1)])


def rank_one_constants():
    """Rt = eps x (v v^T) with v = (1,0): P^{01} = u1^2/2 + 1."""
    return CanonicalConstants.from_entries(
        2,
        rt=[(0, 1, 0, 0, 1), (1, 0, 0, 0, -1)],
        g=[(0, 1, 1), (1, 0, -1)])


def affine_constants():
    """Rt = 0, nonzero linear part: P^{01} = u1 + 1."""
    return CanonicalConstants.from_entries(
        2,
        f=[(0, 1, 0, 1), (1, 0, 0, -1)],
        g=[(0, 1, 1), (1, 0, -1)])


def cybe_violating_constants():
    """dim-3 Rt with the right index symmetries whose symmetrized
    Yang-Baxter tensor is nonzero; f = g = 0 so every other check passes."""
    return CanonicalConstants.from_entries(
        3,
        rt=[(0, 1, 2, 2, -1), (0, 2, 0, 0, -1), (1, 0, 2, 2, 1),
            (1, 2, 0, 0, -1), (2, 0, 0, 0, 1), (2, 1, 0, 0, 1)])


def entry(T, *idx):
    """A component of sparse constants; absent entries are zero."""
    return T.get(idx, GaussianRational(0))


def yang_baxter_defect(c, *idx):
    """One component of the Yang-Baxter defect of c's Rt, with (A,B,C) the
    output and (D,E,F) the input indices, from the dense reference loops."""
    return dense_yang_baxter_defect(dense(c.Rt, c.dim, 4), c.dim, *idx)


def yang_baxter_symmetrized(c, *idx):
    """The defect summed over the distinct permutations of (D,E,F)."""
    return dense_yang_baxter_symmetrized(dense(c.Rt, c.dim, 4), c.dim, *idx)


def failure_names(rep):
    return sorted(c.name for c in rep.failures)


def test_constants_shape_and_coercion():
    c = darboux_constants(2)
    assert entry(c.g, 0, 1) == GaussianRational(1)
    assert entry(c.Rt, 0, 0, 0, 0).is_zero()
    with pytest.raises(ValueError):
        CanonicalConstants.from_entries(0)
    with pytest.raises(ValueError):
        CanonicalConstants.from_entries(2, g=[(0, 1)])
    d = CanonicalConstants.from_entries(2, g=[(0, 1, Fraction(1, 2)), (1, 0, Fraction(-1, 2))])
    assert entry(d.g, 0, 1) == GaussianRational(Fraction(1, 2))


@pytest.mark.parametrize("entries", [
    {"g": [(-1, 0, 1)]}, {"g": [(2, 0, 1)]}, {"g": [(0, 1)]},
    {"g": [(0, 1, 0, 1)]}, {"f": [(0, 1, 2, 1)]}, {"f": [(0, 1, 1, 0, 1)]},
    {"rt": [(0, 1, 0, 5, 1)]}, {"rt": [(0, 1, 0, 1)]}])
def test_from_entries_rejects_bad_entries(entries):
    """A negative or too large index, or the wrong number of indices, is
    refused instead of written somewhere else or raising IndexError."""
    with pytest.raises(ValueError):
        CanonicalConstants.from_entries(2, **entries)


def test_from_entries_keeps_nonzero_entries():
    c = CanonicalConstants.from_entries(
        2, g=[(0, 1, 3), (0, 1, 1), (1, 0, 0)], f=[(1, 1, 0, 0)])
    assert c.g == {(0, 1): GaussianRational(1)}
    assert c.f == {}


def test_check_constants_trivial_pass():
    rep = check_constants(darboux_constants(4))
    assert rep.passed
    assert sorted(c.name for c in rep.checks) == [
        "f-index-symmetry", "g-index-symmetry", "jacobi-constant",
        "jacobi-linear", "jacobi-quadratic", "rt-index-symmetry",
        "yang-baxter"]


def test_check_constants_reports_bad_g():
    c = CanonicalConstants.from_entries(2, g=[(0, 1, 1), (1, 0, 1)])
    rep = check_constants(c)
    assert failure_names(rep) == ["g-index-symmetry"]
    bad = rep.failures[0]
    assert bad.location == "component (0,1)"
    assert bad.residual == "2"


def test_check_constants_reports_bad_rt():
    c = CanonicalConstants.from_entries(2, rt=[(0, 1, 0, 0, 1)])
    rep = check_constants(c)
    assert "rt-index-symmetry" in failure_names(rep)
    assert rep.failures[0].residual == "antisymmetry"


def test_check_constants_dim2_battery():
    for c in (sphere_real_constants(), mixed_constants(), rank_one_constants()):
        rep = check_constants(c)
        assert rep.passed, failure_names(rep)
    # the rank-one tensor satisfies the commutator identity even before
    # symmetrization; the full-rank ones do not, yet they still define
    # consistent brackets (their built structures pass every axiom below)
    r1 = rank_one_constants()
    assert all(yang_baxter_defect(r1, *idx).is_zero()
               for idx in itertools.product(range(2), repeat=6))
    sph = sphere_real_constants()
    assert not yang_baxter_defect(sph, 0, 0, 1, 0, 1, 0).is_zero()
    assert all(yang_baxter_symmetrized(sph, *idx).is_zero()
               for idx in itertools.product(range(2), repeat=6))


def test_check_constants_dim3_violation():
    rep = check_constants(cybe_violating_constants())
    assert failure_names(rep) == ["yang-baxter"]
    bad = rep.failures[0]
    assert bad.location == "component (0,1,2,0,2,2)"
    assert bad.residual == "-2"


def test_cybe_violation_breaks_scalar_jacobi():
    c = cybe_violating_constants()
    ch = canonical_chart(3)
    s = PoissonStructure(ch, poisson_matrix(c, ch))
    J = cyclic_jacobi(s)
    assert J[0, 1, 2] == parse_scalar("1/2*u1*u3^2", ch)
    # cubic residual is -1/4 of the commutator tensor contracted with the
    # symmetric coordinate product, on every index triple
    quarter = RatExpr.const(ch, Fraction(1, 4))
    phi = [RatExpr.variable(ch, k) for k in range(3)]
    for A, B, C in itertools.product(range(3), repeat=3):
        contr = RatExpr.zero(ch)
        for D, E, F in itertools.product(range(3), repeat=3):
            v = yang_baxter_defect(c, A, B, C, D, E, F)
            if not v.is_zero():
                contr = contr + RatExpr.const(ch, v) * phi[D] * phi[E] * phi[F]
        assert (J[A, B, C] + quarter * contr).is_zero()
    with pytest.raises(ValueError):
        build_canonical(c)


@pytest.mark.parametrize("dim", [2, 4])
def test_build_darboux(dim):
    c = darboux_constants(dim)
    s, fr = build_canonical(c)
    assert s.chart.names == tuple(f"u{k + 1}" for k in range(dim))
    for A in range(dim):
        for B in range(dim):
            assert s.P[A, B] == RatExpr.const(s.chart, entry(c.g, A, B))
            for C in range(dim):
                assert s.Gamma[A, B, C].is_zero()
    assert check_integrability(s).passed
    assert verify_axioms(s, QUICK).passed
    assert fr.M.components == s.P.components
    assert fr.Phi == [RatExpr.variable(s.chart, k) for k in range(dim)]


def test_build_rejects_bad_input():
    with pytest.raises(ValueError):
        build_canonical(cybe_violating_constants())
    with pytest.raises(ValueError):
        build_canonical(CanonicalConstants.from_entries(2))
    with pytest.raises(ValueError):
        build_canonical(darboux_constants(2), Chart(("x", "y", "z")))


@pytest.mark.parametrize("make", [sphere_real_constants, mixed_constants,
                                  rank_one_constants, affine_constants],
                         ids=["sphere-real", "mixed", "rank-one", "affine"])
def test_build_fixture_battery(make):
    c = make()
    assert check_constants(c).passed
    s, fr = build_canonical(c)
    assert check_integrability(s).passed
    assert verify_axioms(s, QUICK).passed
    n = c.dim
    # twisted curvature moved to the frame equals the stored constants
    Rtf = frame_curvature(s, fr)
    for A, B, C, D in itertools.product(range(n), repeat=4):
        assert (Rtf.get((A, B, C, D), RatExpr.zero(s.chart))
                - RatExpr.const(s.chart, entry(c.Rt, C, D, A, B))).is_zero()
    # torsion contracted into the frame equals the derivative of P
    T = torsion(s)
    Pinv = dense_invert(to_lists(s.P))
    origin = [GaussianRational(0)] * n
    for A, B, C in itertools.product(range(n), repeat=3):
        acc = RatExpr.zero(s.chart)
        for E, F, G in itertools.product(range(n), repeat=3):
            acc = acc + Pinv[A][E] * T[E, F, G] * s.P[F, B] * s.P[G, C]
        assert (acc - s.P[B, C].diff(A)).is_zero()
        assert eval_at(acc, origin) == entry(c.f, B, C, A)
    # twisted curvature equals the covariant derivative of torsion
    assert flat_twist_residual(s).is_zero()


def test_frame_validation():
    ch = canonical_chart(2)
    one = RatExpr.one(ch)
    zero = RatExpr.zero(ch)
    with pytest.raises(ValueError):
        Frame(ch, [[one, zero], [zero, one]], [[one, one], [zero, one]],
              [RatExpr.variable(ch, 0), RatExpr.variable(ch, 1)])


def test_e_basis_darboux():
    s, fr = build_canonical(darboux_constants(2))
    es, rep = e_basis(s, fr)
    assert rep.passed
    ch = s.chart
    assert es[0] == -DiffForm.d_coord(ch, 1)
    assert es[1] == DiffForm.d_coord(ch, 0)
    assert s.bracket(es[0], es[1]).is_zero()


def test_e_basis_sphere_real():
    s, fr = build_canonical(sphere_real_constants())
    es, rep = e_basis(s, fr)
    assert rep.passed
    names = {c.name for c in rep.checks}
    assert names == {"frame-kills-functions", "frame-bracket-constants"}
    # brackets with coordinates vanish even though the e_A are not closed
    assert not es[0].ext_d().is_zero()
    for A in range(2):
        for a in range(2):
            assert s.bracket(es[A], DiffForm.coord(s.chart, a)).is_zero()


def test_xi_darboux():
    s, fr = build_canonical(darboux_constants(2))
    xi, rep = xi_realization(s, fr, QUICK)
    assert rep.passed
    ch = s.chart
    want = (DiffForm.d_coord(ch, 1) * DiffForm.coord(ch, 0)
            - DiffForm.d_coord(ch, 0) * DiffForm.coord(ch, 1))
    assert xi == want
    assert {c.name for c in rep.checks} == {
        "xi-exterior-functions", "xi-on-differentials", "xi-derivative",
        "xi-exterior-sampled", "xi-exterior-forms"}
    assert s.bracket(xi, DiffForm.d_coord(ch, 0)).is_zero()


def test_xi_sphere_real_length_element():
    s, fr = build_canonical(sphere_real_constants())
    xi, rep = xi_realization(s, fr, QUICK)
    assert rep.passed
    es = fr.one_forms()
    # with no linear part the derivative of xi is the frame area element
    assert (xi.ext_d() - (es[0] * es[1] - es[1] * es[0])).is_zero()


def test_xi_affine_nonzero_on_differentials():
    s, fr = build_canonical(affine_constants())
    xi, rep = xi_realization(s, fr, QUICK)
    assert rep.passed
    names = {c.name for c in rep.checks}
    assert "xi-exterior-forms" not in names
    es = fr.one_forms()
    ch = s.chart
    got = s.bracket(xi, DiffForm.d_coord(ch, 1))
    want = (es[0] * es[1]).scale(parse_scalar("u1 + 1", ch))
    assert got == want
    assert not got.is_zero()
    # so the exterior-derivative realization fails on one-forms here
    assert got != DiffForm.d_coord(ch, 1).ext_d()


@pytest.mark.parametrize("entry", ["u1^3 + 1", "1/u1 + 1"])
def test_xi_needs_quadratic_p(entry):
    """A cubic P has no constants to compare with, and a pole at the
    origin has no Taylor constants at all: both are rejected."""
    _, fr = build_canonical(darboux_constants(2))
    ch = fr.chart
    p = parse_scalar(entry, ch)
    zero = RatExpr.zero(ch)
    s = PoissonStructure(ch, [[zero, p], [-p, zero]])
    with pytest.raises(ValueError, match="quadratic"):
        xi_realization(s, fr, QUICK)


def test_find_torsion_zero_unique():
    c = CanonicalConstants.from_entries(
        2,
        rt=[(0, 1, 0, 0, 1), (0, 1, 1, 1, 1), (1, 0, 0, 0, -1), (1, 0, 1, 1, -1)],
        f=[(0, 1, 0, -1), (0, 1, 1, -2), (1, 0, 0, 1), (1, 0, 1, 2)],
        g=[(0, 1, 1), (1, 0, -1)])
    t = find_torsion_zero(c)
    assert t.V == {(0,): GaussianRational(-1), (1,): GaussianRational(-2)}
    assert t.N == CanonicalTransform.identity(2).N
    c2 = transform_constants(c, t)
    assert all(entry(c2.f, A, B, C).is_zero()
               for A in range(2) for B in range(2) for C in range(2))
    assert c2.Rt == c.Rt
    assert entry(c2.g, 0, 1) == GaussianRational(Fraction(-3, 2))


def test_find_torsion_zero_edges():
    for c in (sphere_real_constants(), darboux_constants(2)):
        t = find_torsion_zero(c)
        assert t.V == {}
        assert t.N == CanonicalTransform.identity(2).N
    assert find_torsion_zero(affine_constants()) is None


def test_transform_identity_and_group_action():
    c = sphere_real_constants()
    assert transform_constants(c, CanonicalTransform.identity(2)) == c
    t1 = CanonicalTransform([[1, 1], [0, 1]], [1, 0])
    t2 = CanonicalTransform([[1, 0], [2, 1]], [0, -1])
    assert (transform_constants(transform_constants(c, t1), t2)
            == transform_constants(c, t2.compose(t1)))


def test_transform_translation_oracle():
    c = sphere_real_constants()
    t = CanonicalTransform([[1, 0], [0, 1]], [2, -3])
    ct = transform_constants(c, t)
    assert ct.Rt == c.Rt
    half = GaussianRational(Fraction(1, 2))
    for A in range(2):
        for B in range(2):
            for C in range(2):
                want = entry(c.f, A, B, C) - sum(
                    (entry(c.Rt, A, B, C, D) * entry(t.V, D)
                     for D in range(2)),
                    GaussianRational(0))
                assert entry(ct.f, A, B, C) == want
            want = entry(c.g, A, B) - sum(
                (entry(c.f, A, B, C) * entry(t.V, C) for C in range(2)),
                GaussianRational(0))
            for C in range(2):
                for D in range(2):
                    want = want + (half * entry(c.Rt, A, B, C, D)
                                   * entry(t.V, C) * entry(t.V, D))
            assert entry(ct.g, A, B) == want


def test_transform_rotation_oracle():
    c = darboux_constants(2)
    t = CanonicalTransform([[2, 1], [1, 1]])
    ct = transform_constants(c, t)
    for A in range(2):
        for B in range(2):
            want = sum((entry(t.N, A, E) * entry(c.g, E, F)
                        * entry(t.N, B, F)
                        for E in range(2) for F in range(2)),
                       GaussianRational(0))
            assert entry(ct.g, A, B) == want


def test_transform_rejects_singular():
    with pytest.raises(ValueError):
        CanonicalTransform([[1, 1], [1, 1]])


def test_complex_recast_matches_reference():
    ch = Chart(("z", "zb"), kind="complex", pairs=(("z", "zb"),))
    s, fr = build_canonical(mixed_constants(), ch)
    ref = sphere_structure()
    for a in range(2):
        for b in range(2):
            assert (s.P[a, b] - ref.P[a, b]).is_zero()
            for c in range(2):
                assert (s.Gamma[a, b, c] - ref.Gamma[a, b, c]).is_zero()
    es, rep = e_basis(s, fr)
    assert rep.passed
