import random
from fractions import Fraction

import pytest

from poissonforms.bracket import SamplePlan, verify_axioms
from poissonforms.complexforms import verify_complex_axioms
from poissonforms.forms import DiffForm
from poissonforms.geometry import check_integrability
from poissonforms.onedim import (
    HermitianTriple,
    MoebiusMap,
    build_one_dim,
    centering_translation,
    classify,
    diagonalize,
    eta_kahler,
    gaussian_curvature,
    moebius,
    one_dim_chart,
    p_scalar,
    triple_constants,
)
from poissonforms.canonical import check_constants
from poissonforms.parsing import parse_form, parse_scalar
from poissonforms.ratexpr import RatExpr
from poissonforms.scalars import GaussianRational

QUICK = SamplePlan(count=4)
I = GaussianRational(0, 1)


def rand_gr(rng):
    return GaussianRational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                            Fraction(rng.randint(-4, 4), rng.randint(1, 3)))


def rand_map(rng):
    while True:
        try:
            return MoebiusMap(rand_gr(rng), rand_gr(rng),
                              rand_gr(rng), rand_gr(rng))
        except ValueError:
            continue


def rand_triple(rng):
    while True:
        t = HermitianTriple(Fraction(rng.randint(-3, 3)), rand_gr(rng),
                            Fraction(rng.randint(-3, 3)))
        if not t.is_zero():
            return t


# -- types --------------------------------------------------------------


def test_triple_validation():
    t = HermitianTriple(Fraction(1, 2), GaussianRational(1, 2), 3)
    assert t.det == GaussianRational(Fraction(3, 2)) - GaussianRational(5)
    with pytest.raises(ValueError, match="a must be real"):
        HermitianTriple(I, 0, 1)
    with pytest.raises(ValueError, match="c must be real"):
        HermitianTriple(1, 0, I)
    with pytest.raises(AttributeError):
        t.a = GaussianRational(2)


def test_moebius_map_validation():
    with pytest.raises(ValueError, match="degenerate map"):
        MoebiusMap(1, 1, 1, 1)
    m = MoebiusMap(1, 2, 3, 4)
    assert m.det == GaussianRational(-2)
    assert MoebiusMap.identity().compose(m) == m
    assert m.compose(MoebiusMap.identity()) == m


# -- construction --------------------------------------------------------


@pytest.mark.parametrize("a,b,c", [
    (1, 0, 1), (0, 1, 0), (1, 0, -1), (1, 1, 1),
    (Fraction(1, 2), GaussianRational(1, 2), 3)])
def test_build_generator_brackets(a, b, c):
    t = HermitianTriple(a, b, c)
    assert check_constants(triple_constants(t)).passed
    s = build_one_dim(t)
    ch = s.chart
    P = p_scalar(t)
    assert s.P[0, 1] == P
    S = P.diff(1)
    assert s.coord_dx(0, 0) == DiffForm(ch, {(0,): S})
    want = DiffForm(ch, {(0, 1): RatExpr.const(ch, t.a)})
    assert s.dx_dx(0, 1) == want


def test_build_examples():
    ch = one_dim_chart()
    s = build_one_dim(HermitianTriple(1, 0, 1))
    assert s.coord_dx(0, 0) == parse_form("z*d[z]", ch)
    s = build_one_dim(HermitianTriple(0, 1, 0))
    assert s.P[0, 1] == parse_scalar("z + zb", ch)
    assert s.coord_dx(0, 0) == parse_form("d[z]", ch)


@pytest.mark.parametrize("a,b,c", [(1, 0, 1), (0, 1, 0), (1, 1, 1)])
def test_build_passes_all_verifications(a, b, c):
    s = build_one_dim(HermitianTriple(a, b, c))
    assert verify_axioms(s, QUICK).passed
    assert verify_complex_axioms(s, QUICK).passed
    assert check_integrability(s).passed


def test_build_rejects_zero_triple():
    with pytest.raises(ValueError, match="identically zero"):
        build_one_dim(HermitianTriple(0, 0, 0))


# -- congruence action ---------------------------------------------------


def test_moebius_identity_and_translation():
    t = HermitianTriple(1, 1, 1)
    assert moebius(t, MoebiusMap.identity()) == t
    m = MoebiusMap(1, -1, 0, 1)
    assert moebius(t, m) == HermitianTriple(1, 0, 0)
    assert centering_translation(t) == m


def test_moebius_group_action_and_det_factor():
    rng = random.Random(7)
    for _ in range(10):
        t = rand_triple(rng)
        m1, m2 = rand_map(rng), rand_map(rng)
        assert moebius(moebius(t, m1), m2) == moebius(t, m1.compose(m2))
        factor = m1.det * m1.det.conjugate()
        assert moebius(t, m1).det == factor * t.det


def test_diagonalize_kills_b_and_preserves_class():
    rng = random.Random(7)
    for _ in range(10):
        t = rand_triple(rng)
        td = moebius(t, diagonalize(t))
        assert td.b.is_zero()
        prod = td.a * td.c
        by_sign = ("plane" if prod.is_zero()
                   else "sphere" if prod.re > 0 else "lobachevskian")
        assert by_sign == classify(t)


def test_diagonalize_branches():
    for t in [HermitianTriple(2, 1 + I, -1),
              HermitianTriple(0, 1 + I, 3),
              HermitianTriple(0, 1 + I, 0)]:
        assert moebius(t, diagonalize(t)).b.is_zero()
    with pytest.raises(ValueError, match="nonzero leading"):
        centering_translation(HermitianTriple(0, 1, 1))


# -- classification and curvature ----------------------------------------


@pytest.mark.parametrize("a,b,c,kind,curv", [
    (1, 0, 1, "sphere", 2),
    (1, 0, -1, "lobachevskian", -2),
    (0, 1, 0, "lobachevskian", -2),
    (0, 0, 3, "plane", 0),
    (1, 1, 1, "plane", 0),
    (2, 1, 1, "sphere", 2),
    (1, 2, 1, "lobachevskian", -6),
    (0, I, 0, "lobachevskian", -2),
])
def test_classify_and_curvature(a, b, c, kind, curv):
    t = HermitianTriple(a, b, c)
    assert classify(t) == kind
    k = gaussian_curvature(t)
    assert k.is_const()
    assert k == RatExpr.const(one_dim_chart(), curv)
    assert k == RatExpr.const(one_dim_chart(), 2) * RatExpr.const(
        one_dim_chart(), t.det)


def test_classify_invariant_under_congruence():
    rng = random.Random(11)
    for _ in range(10):
        t = rand_triple(rng)
        m = rand_map(rng)
        assert classify(moebius(t, m)) == classify(t)


def test_zero_triple_errors():
    z = HermitianTriple(0, 0, 0)
    with pytest.raises(ValueError, match="identically zero"):
        classify(z)
    with pytest.raises(ValueError, match="degenerate metric"):
        gaussian_curvature(z)
    with pytest.raises(ValueError, match="identically zero"):
        diagonalize(z)


# -- the eta / K package --------------------------------------------------


def test_eta_kahler_sphere():
    t = HermitianTriple(1, 0, 1)
    eta, etabar, K, rep = eta_kahler(t, QUICK)
    ch = one_dim_chart()
    assert rep.passed
    assert not [c for c in rep.checks if c.status == "not-applicable"]
    assert eta == parse_form("(-zb/(z*zb+1))*d[z]", ch)
    assert etabar == parse_form("(z/(z*zb+1))*d[zb]", ch)
    assert K == parse_form("(1/(z*zb+1)^2)*d[z]*d[zb]", ch)
    names = {c.name for c in rep.checks}
    assert {"kahler-metric-coefficient", "kahler-eta-derivative",
            "kahler-default-coefficient", "kahler-central-forms",
            "kahler-central-functions"} <= names


def test_eta_kahler_linear_triple():
    t = HermitianTriple(0, 1, 0)
    eta, etabar, K, rep = eta_kahler(t, QUICK)
    ch = one_dim_chart()
    assert rep.passed
    na = sorted(c.name for c in rep.checks if c.status == "not-applicable")
    assert na == ["eta-exterior-forms", "etabar-exterior-forms",
                  "kahler-default-coefficient", "kahler-eta-derivative"]
    assert eta == parse_form("(-zb/(z+zb))*d[z]", ch)
    assert K == parse_form("(1/(z+zb)^2)*d[z]*d[zb]", ch)
    s = build_one_dim(t)
    assert s.bracket(K, DiffForm.coord(ch, 0)).is_zero()
    assert s.bracket(K, DiffForm.d_coord(ch, 0)).is_zero()


def test_eta_kahler_degenerate_constant_block():
    t = HermitianTriple(1, 0, 0)
    eta, etabar, K, rep = eta_kahler(t, QUICK)
    ch = one_dim_chart()
    assert rep.passed
    assert eta == parse_form("(-1/z)*d[z]", ch)
    assert K == parse_form("(1/(z^2*zb^2))*d[z]*d[zb]", ch)
