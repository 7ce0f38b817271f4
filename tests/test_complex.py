import pytest

from poissonforms.bracket import PoissonStructure, SamplePlan, verify_axioms
from poissonforms.canonical import (CanonicalConstants, build_canonical,
                                    check_constants, xi_realization)
from poissonforms.complexforms import (
    eta_forms,
    frame_split,
    kahler_form,
    verify_complex_axioms,
)
from poissonforms.forms import DiffForm
from poissonforms.parsing import parse_form, parse_scalar
from poissonforms.ratexpr import Chart, RatExpr
from poissonforms.scalars import GaussianRational

from test_bracket import sphere_structure
from test_canonical import mixed_constants

QUICK = SamplePlan(count=4)

AXIOM_NAMES = [
    "bidegree-additivity",
    "connection-block-diagonal",
    "curvature-conjugation",
    "curvature-vanishing-pattern",
    "delta-leibniz",
    "deltabar-leibniz",
    "hermiticity",
    "potential-conjugation",
]

ETA_NAMES = [
    "eta-bidegree",
    "eta-conjugation",
    "eta-exterior-forms",
    "eta-exterior-sampled",
    "eta-on-coordinates",
    "etabar-bidegree",
    "etabar-exterior-forms",
    "etabar-exterior-sampled",
    "etabar-on-coordinates",
]

KAHLER_NAMES = [
    "delta-eta-frame",
    "deltabar-etabar-frame",
    "eta-closed",
    "etabar-closed",
    "kahler-alternate",
    "kahler-bidegree",
    "kahler-central-forms",
    "kahler-central-functions",
    "kahler-closed",
    "kahler-from-frame",
    "kahler-star",
    "metric-covariant-derivative",
]


def zchart():
    return Chart(("z", "zb"), kind="complex", pairs=(("z", "zb"),))


def sphere_build():
    return build_canonical(mixed_constants(), zchart())


def flat_build():
    return build_canonical(
        CanonicalConstants.from_entries(2, g=[(0, 1, 1), (1, 0, -1)]), zchart())


def linear_constants():
    """P^{01} = z + zb + 1: nonzero linear part, hermitian."""
    return CanonicalConstants.from_entries(
        2,
        f=[(0, 1, 0, 1), (0, 1, 1, 1), (1, 0, 0, -1), (1, 0, 1, -1)],
        g=[(0, 1, 1), (1, 0, -1)])


def product_constants():
    """Two independent curved blocks: P^{02} = z1*zb1 + 1 and
    P^{13} = z2*zb2 + 1."""
    return CanonicalConstants.from_entries(
        4,
        rt=[(0, 2, 0, 2, 1), (0, 2, 2, 0, 1), (2, 0, 0, 2, -1), (2, 0, 2, 0, -1),
            (1, 3, 1, 3, 1), (1, 3, 3, 1, 1), (3, 1, 1, 3, -1), (3, 1, 3, 1, -1)],
        g=[(0, 2, 1), (2, 0, -1), (1, 3, 1), (3, 1, -1)])


def product_chart():
    return Chart(("z1", "z2", "zb1", "zb2"), kind="complex",
                 pairs=(("z1", "zb1"), ("z2", "zb2")))


# -- chart guards -----------------------------------------------------


def test_real_chart_rejected():
    s, fr = build_canonical(mixed_constants())
    with pytest.raises(ValueError, match="complex chart"):
        verify_complex_axioms(s, QUICK)
    with pytest.raises(ValueError, match="complex chart"):
        frame_split(s.chart, fr)
    with pytest.raises(ValueError, match="complex chart"):
        eta_forms(s, fr, QUICK)
    with pytest.raises(ValueError, match="complex chart"):
        kahler_form(s, fr, plan=QUICK)


def test_frame_split():
    s, fr = flat_build()
    assert frame_split(s.chart, fr) == ((1,), (0,))
    ch = s.chart
    from poissonforms.canonical import Frame

    mixed = Frame(ch, [[1, 1], [0, 1]], [[1, -1], [0, 1]],
                  [RatExpr.variable(ch, 0), RatExpr.variable(ch, 1)])
    with pytest.raises(ValueError, match="not block-split at row 0"):
        frame_split(ch, mixed)


# -- complex axiom verification ---------------------------------------


@pytest.mark.parametrize("builder", [sphere_build, flat_build],
                         ids=["sphere", "flat"])
def test_axioms_pass_on_canonical_builds(builder):
    s, fr = builder()
    rep = verify_complex_axioms(s, QUICK)
    assert rep.passed
    assert sorted({c.name for c in rep.checks}) == AXIOM_NAMES
    assert all(c.status == "pass" for c in rep.checks)


def test_axioms_pass_on_direct_sphere():
    s = sphere_structure()
    rep = verify_complex_axioms(s, QUICK)
    assert rep.passed
    quads = [c for c in rep.checks if c.name.startswith("curvature-")]
    assert quads and all(c.status == "pass" for c in quads)


def test_axioms_pass_with_linear_part():
    s, fr = build_canonical(linear_constants(), zchart())
    assert s.P[0, 1] == parse_scalar("z + zb + 1", s.chart)
    rep = verify_complex_axioms(s, QUICK)
    assert rep.passed


def test_shared_laws_agree_between_reports():
    """Both reports compute the split Leibniz, hermiticity and bidegree
    residuals with the same code; on the sphere with zero connection some
    of them fail, and each generator pair must read the same in both."""
    ch = Chart(("z", "zb"), kind="complex", pairs=(("z", "zb"),))
    p = parse_scalar("z*zb + 1", ch)
    s = PoissonStructure(ch, [[RatExpr.zero(ch), p], [-p, RatExpr.zero(ch)]])
    plan = SamplePlan(count=0)
    real = {(c.name, c.location): c.residual
            for c in verify_axioms(s, plan).checks}
    cplx = {(c.name, c.location): c.residual
            for c in verify_complex_axioms(s, plan).checks}
    pairs = {("axiom-dleibniz-holo", "delta-leibniz"),
             ("axiom-dleibniz-antiholo", "deltabar-leibniz"),
             ("axiom-hermiticity", "hermiticity"),
             ("axiom-bidegree", "bidegree-additivity")}
    seen = 0
    for axiom, name in pairs:
        locs = {loc for n, loc in real if n == axiom}
        assert locs == {loc for n, loc in cplx if n == name}
        assert len(locs) == 16
        for loc in locs:
            assert real[axiom, loc] == cplx[name, loc]
            seen += real[axiom, loc] not in ("0", "")
    assert seen


def test_bracket_of_conjugate_pair_is_real():
    s = sphere_structure()
    ch = s.chart
    fg = s.bracket(DiffForm.coord(ch, 0), DiffForm.coord(ch, 1))
    assert fg == DiffForm.from_scalar(s.P[0, 1])
    assert fg.star() == fg


def test_corrupted_mixed_connection_fails_with_witness():
    s, fr = sphere_build()
    ch = s.chart
    G = [[[s.Gamma[a, b, c] for c in range(2)] for b in range(2)]
         for a in range(2)]
    G[0][0][1] = G[0][0][1] + RatExpr.one(ch)
    bad = PoissonStructure(ch, s.P, G)
    rep = verify_complex_axioms(bad, QUICK)
    assert not rep.passed
    hits = [c for c in rep.checks
            if c.name == "connection-block-diagonal" and not c.ok]
    assert [(c.location, c.residual) for c in hits] == [("component (0,0,1)", "1")]
    assert parse_scalar(hits[0].residual, ch) == bad.Gamma[0, 0, 1]


def test_quartic_structure_fails_split_leibniz():
    ch = zchart()
    p = parse_scalar("z^2*zb^2 + 1", ch)
    dp, dpb = p.diff(0), p.diff(1)
    z0 = RatExpr.zero(ch)
    G = [[[-dp / p, z0], [-dpb / p, z0]],
         [[z0, -dp / p], [z0, -dpb / p]]]
    s = PoissonStructure(ch, [[z0, p], [-p, z0]], G)
    rep = verify_complex_axioms(s, SamplePlan(count=2))
    assert not rep.passed
    na = sorted(c.name for c in rep.checks if c.status == "not-applicable")
    assert na == ["curvature-conjugation", "curvature-vanishing-pattern",
                  "potential-conjugation"]
    fails = {(c.name, c.location): c.residual
             for c in rep.checks if not c.ok}
    assert fails[("delta-leibniz", "generators (z,d[z])")] == "2*z^2*d[z]^d[zb]"
    assert fails[("deltabar-leibniz", "generators (z,d[z])")] == "-2*z^2*d[z]^d[zb]"
    assert fails[("bidegree-additivity", "generators (d[z],d[z])")] == \
        "bidegrees [(1, 1)]"
    got = parse_form(fails[("delta-leibniz", "generators (z,d[z])")], ch)
    other = parse_form(fails[("deltabar-leibniz", "generators (z,d[z])")], ch)
    assert (got + other).is_zero()


def test_pole_at_origin_is_not_quadratic():
    """P = 1/(z*zb) + 1 has no Taylor constants at the origin; the
    quadratic checks are not applicable rather than an error."""
    ch = zchart()
    p = parse_scalar("1/(z*zb) + 1", ch)
    z0 = RatExpr.zero(ch)
    s = PoissonStructure(ch, [[z0, p], [-p, z0]])
    rep = verify_complex_axioms(s, SamplePlan(count=0))
    na = sorted(c.name for c in rep.checks if c.status == "not-applicable")
    assert na == ["curvature-conjugation", "curvature-vanishing-pattern",
                  "potential-conjugation"]


# -- eta and etabar ----------------------------------------------------


def test_eta_sphere_closed_forms():
    s, fr = sphere_build()
    ch = s.chart
    eta, etabar, rep = eta_forms(s, fr, QUICK)
    assert rep.passed
    assert sorted({c.name for c in rep.checks}) == ETA_NAMES
    assert eta == parse_form("(-zb/(z*zb+1))*d[z]", ch)
    assert etabar == parse_form("(z/(z*zb+1))*d[zb]", ch)
    assert eta.star() == -etabar
    assert s.bracket(eta, DiffForm.coord(ch, 1)).is_zero()
    assert s.bracket(eta, DiffForm.d_coord(ch, 0)).is_zero()
    assert s.bracket(eta, DiffForm.coord(ch, 0)) == DiffForm.d_coord(ch, 0)
    assert s.bracket(etabar, DiffForm.coord(ch, 1)) == DiffForm.d_coord(ch, 1)


def test_eta_flat():
    s, fr = flat_build()
    ch = s.chart
    eta, etabar, rep = eta_forms(s, fr, QUICK)
    assert rep.passed
    assert eta == parse_form("-zb*d[z]", ch)
    assert etabar == parse_form("z*d[zb]", ch)


def test_eta_with_linear_part_skips_form_realization():
    s, fr = build_canonical(linear_constants(), zchart())
    eta, etabar, rep = eta_forms(s, fr, QUICK)
    assert rep.passed
    na = sorted(c.name for c in rep.checks if c.status == "not-applicable")
    assert na == ["eta-exterior-forms", "etabar-exterior-forms"]
    assert eta == parse_form("(-zb/(z+zb+1))*d[z]", s.chart)
    assert etabar == parse_form("(z/(z+zb+1))*d[zb]", s.chart)


def test_eta_nonquadratic_raises():
    ch = zchart()
    _, fr = flat_build()
    p = parse_scalar("z^2*zb^2 + 1", ch)
    z0 = RatExpr.zero(ch)
    s = PoissonStructure(ch, [[z0, p], [-p, z0]])
    with pytest.raises(ValueError, match="quadratic"):
        eta_forms(s, fr, QUICK)


# -- the central two-form ----------------------------------------------


def test_kahler_sphere():
    s, fr = sphere_build()
    ch = s.chart
    K, rep = kahler_form(s, fr, plan=QUICK)
    assert rep.passed
    assert sorted({c.name for c in rep.checks}) == KAHLER_NAMES
    assert all(c.status == "pass" for c in rep.checks)
    assert K == parse_form("(1/(z*zb+1)^2)*d[z]*d[zb]", ch)
    assert s.bracket(K, DiffForm.d_coord(ch, 0)).is_zero()
    assert K.star() == K


def test_kahler_flat():
    s, fr = flat_build()
    ch = s.chart
    K, rep = kahler_form(s, fr, plan=QUICK)
    assert rep.passed
    assert K == parse_form("d[z]*d[zb]", ch)
    assert K.ext_d().is_zero()


def test_kahler_closedness_needs_mixed_constants():
    """g pairs z1 with z2 and zb1 with zb2 and has no entry pairing a
    holomorphic row with an antiholomorphic one, so K is zero and the
    closedness laws do not apply."""
    c = CanonicalConstants.from_entries(
        4, g=[(0, 1, 1), (1, 0, -1), (2, 3, -1), (3, 2, 1)])
    s, fr = build_canonical(c, product_chart())
    K, rep = kahler_form(s, fr, plan=QUICK)
    assert rep.passed
    assert K.is_zero()
    assert sorted(c.name for c in rep.checks
                  if c.status == "not-applicable") == [
        "eta-closed", "etabar-closed", "kahler-closed"]


def test_kahler_user_metric_flat():
    s, fr = flat_build()
    ch = s.chart
    K, rep = kahler_form(s, fr, h=[[0, 0], [2, 0]], plan=QUICK)
    assert rep.passed
    assert sorted({c.name for c in rep.checks}) == [
        "kahler-bidegree", "kahler-central-functions", "kahler-star",
        "metric-covariant-derivative"]
    assert K == parse_form("-2*d[z]*d[zb]", ch)
    assert K.ext_d().is_zero()


def test_kahler_user_metric_imaginary_fails_star():
    s, fr = flat_build()
    K, rep = kahler_form(s, fr, h=[[0, 0], [GaussianRational(0, 1), 0]],
                         plan=QUICK)
    assert not rep.passed
    bad = [c for c in rep.checks if not c.ok]
    assert [(c.name, c.residual) for c in bad] == [
        ("kahler-star", "2*i*d[z]^d[zb]")]
    assert parse_form(bad[0].residual, s.chart) == K.star() - K


def test_kahler_user_metric_errors():
    s, fr = flat_build()
    with pytest.raises(ValueError, match="degenerate frame metric"):
        kahler_form(s, fr, h=[[0, 0], [0, 0]], plan=QUICK)
    with pytest.raises(ValueError, match="pair holomorphic"):
        kahler_form(s, fr, h=[[0, 1], [0, 0]], plan=QUICK)
    with pytest.raises(ValueError, match="n x n"):
        kahler_form(s, fr, h=[[0, 0]], plan=QUICK)


def test_kahler_with_linear_part():
    s, fr = build_canonical(linear_constants(), zchart())
    with pytest.raises(ValueError, match="vanishing linear part"):
        kahler_form(s, fr, plan=QUICK)
    K, rep = kahler_form(s, fr, h=[[0, 0], [1, 0]], plan=QUICK)
    assert rep.passed
    assert K == parse_form("(-1/(z+zb+1)^2)*d[z]*d[zb]", s.chart)


# -- two holomorphic dimensions ----------------------------------------


def test_product_structure_full_stack():
    c = product_constants()
    assert check_constants(c).passed
    ch = product_chart()
    s, fr = build_canonical(c, ch)
    assert s.P[0, 2] == parse_scalar("z1*zb1 + 1", ch)
    assert frame_split(ch, fr) == ((2, 3), (0, 1))

    plan = SamplePlan(count=2)
    rep = verify_complex_axioms(s, plan)
    assert rep.passed

    eta, etabar, rep = eta_forms(s, fr, plan)
    assert rep.passed
    assert eta == parse_form(
        "(-zb1/(z1*zb1+1))*d[z1] + (-zb2/(z2*zb2+1))*d[z2]", ch)
    assert etabar == parse_form(
        "(z1/(z1*zb1+1))*d[zb1] + (z2/(z2*zb2+1))*d[zb2]", ch)

    K, rep = kahler_form(s, fr, plan=plan)
    assert rep.passed
    assert K == parse_form(
        "(1/(z1*zb1+1)^2)*d[z1]*d[zb1] + (1/(z2*zb2+1)^2)*d[z2]*d[zb2]", ch)


@pytest.mark.parametrize("builder", [
    sphere_build,
    lambda: build_canonical(product_constants(), product_chart())],
    ids=["sphere", "product"])
def test_xi_splits_into_eta_and_etabar(builder):
    """xi sums the potentials of all frame rows, eta and etabar those of
    the holomorphic and the antiholomorphic rows."""
    s, fr = builder()
    plan = SamplePlan(count=0)
    xi, _ = xi_realization(s, fr, plan)
    eta, etabar, _ = eta_forms(s, fr, plan)
    assert not eta.is_zero() and not etabar.is_zero()
    assert xi == eta + etabar
