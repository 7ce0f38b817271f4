"""Acceptance battery: ten end-to-end criteria, one test per criterion.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line
per criterion.  Criterion 8 ends with a documented unattainable clause
and is expected to fail; the analysis is in README.md, section "Tests".
"""

import itertools
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from poissonforms.bracket import (PoissonStructure, SamplePlan, random_form,
                                  verify_axioms)
from poissonforms.canonical import (build_canonical, canonical_chart,
                                    check_constants, e_basis,
                                    frame_curvature, poisson_matrix,
                                    xi_realization)
from poissonforms.complexforms import verify_complex_axioms
from poissonforms.files import constants_to_dict, structure_to_dict
from poissonforms.forms import DiffForm
from poissonforms.geometry import (Metric, check_integrability,
                                   connection_from_metric,
                                   covariant_derivative, curvature,
                                   cyclic_jacobi, torsion)
from poissonforms.onedim import (HermitianTriple, build_one_dim, classify,
                                 eta_kahler, gaussian_curvature, moebius)
from poissonforms.parsing import parse_scalar
from poissonforms.ratexpr import Chart, RatExpr
from poissonforms.scalars import GaussianRational

from identities import (curvature_twist_residual,
                        cyclic_curvature_torsion_residual, darboux_p,
                        dense_invert, flat_twist_residual, random_connection,
                        random_shear_change, to_lists, transform_structure,
                        transform_tensor)
from test_canonical import (affine_constants, cybe_violating_constants,
                            darboux_constants, entry, mixed_constants,
                            rank_one_constants, sphere_real_constants,
                            yang_baxter_defect)
from test_complex import (flat_build, linear_constants, product_chart,
                          product_constants, sphere_build, zchart)
from test_onedim import rand_map

QUICK = SamplePlan(count=4)


def passed_names(rep):
    return {c.name for c in rep.checks if c.status == "pass"}


def test_criterion_01_axiom_battery():
    """Bracket axioms hold exactly on Darboux structures in dimensions two
    and four, on generator pairs and triples plus 25 sampled forms of
    degree at most two, in under five seconds."""
    start = time.monotonic()
    for names in [("q", "p"), ("q1", "q2", "p1", "p2")]:
        ch = Chart(names)
        s = PoissonStructure(ch, darboux_p(ch))
        rep = verify_axioms(s, SamplePlan())
        assert rep.passed
        locs = [c.location for c in rep.checks]
        assert any(loc.startswith("generators") for loc in locs)
        assert any(loc.startswith("sample") for loc in locs)
        assert {"axiom-antisymmetry", "axiom-degree", "axiom-derivation",
                "axiom-dleibniz", "axiom-jacobi"} <= passed_names(rep)
    assert time.monotonic() - start < 5.0


def test_criterion_02_canonical_completeness():
    """Every constants fixture passing the closure checks builds a
    structure that passes the integrability and axiom batteries exactly."""
    c = mixed_constants()
    assert c.Rt
    assert not c.f
    for make, plan in [(lambda: darboux_constants(2), SamplePlan()),
                       (mixed_constants, SamplePlan()),
                       (sphere_real_constants, QUICK),
                       (rank_one_constants, QUICK),
                       (affine_constants, QUICK)]:
        c = make()
        assert check_constants(c).passed
        s, _ = build_canonical(c)
        assert check_integrability(s).passed
        assert verify_axioms(s, plan).passed


def test_criterion_03_closure_necessity():
    """A constants fixture violating only the quadratic closure gives a
    nonzero scalar Jacobi residual whose cubic part is -1/4 of the
    closure defect contracted with the coordinates."""
    c = cybe_violating_constants()
    rep = check_constants(c)
    assert [x.name for x in rep.failures] == ["yang-baxter"]
    ch = canonical_chart(3)
    s = PoissonStructure(ch, poisson_matrix(c, ch))
    J = cyclic_jacobi(s)
    assert not J.is_zero()
    quarter = RatExpr.const(ch, Fraction(1, 4))
    phi = [RatExpr.variable(ch, k) for k in range(3)]
    for A, B, C in itertools.product(range(3), repeat=3):
        contr = RatExpr.zero(ch)
        for D, E, F in itertools.product(range(3), repeat=3):
            v = yang_baxter_defect(c, A, B, C, D, E, F)
            if not v.is_zero():
                contr = contr + RatExpr.const(ch, v) * phi[D] * phi[E] * phi[F]
        assert (J[A, B, C] + quarter * contr).is_zero()


def test_criterion_04_frame_identities():
    """Frame one-forms kill functions, their mutual brackets reproduce
    the stored constants, frame torsion equals the gradient of P, and
    the twisted curvature equals the covariant derivative of torsion."""
    for make in [lambda: darboux_constants(2), sphere_real_constants,
                 mixed_constants, rank_one_constants, affine_constants]:
        c = make()
        s, fr = build_canonical(c)
        n = c.dim
        _, rep = e_basis(s, fr)
        assert rep.passed
        assert {"frame-kills-functions",
                "frame-bracket-constants"} <= passed_names(rep)
        Rtf = frame_curvature(s, fr)
        for A, B, C, D in itertools.product(range(n), repeat=4):
            assert (Rtf.get((A, B, C, D), RatExpr.zero(s.chart))
                    - RatExpr.const(s.chart, entry(c.Rt, C, D, A, B))).is_zero()
        T = torsion(s)
        Pinv = dense_invert(to_lists(s.P))
        for A, B, C in itertools.product(range(n), repeat=3):
            acc = RatExpr.zero(s.chart)
            for E, F, G in itertools.product(range(n), repeat=3):
                acc = acc + Pinv[A][E] * T[E, F, G] * s.P[F, B] * s.P[G, C]
            assert (acc - s.P[B, C].diff(A)).is_zero()
        assert flat_twist_residual(s).is_zero()


def test_criterion_05_xi_realization():
    """xi reproduces the exterior derivative on all coordinates and 25
    sampled polynomials; on sampled forms exactly when the linear part
    vanishes, with the twist formula holding when it does not."""
    for make, zero_f in [(lambda: darboux_constants(2), True),
                         (mixed_constants, True),
                         (affine_constants, False)]:
        s, fr = build_canonical(make())
        xi, rep = xi_realization(s, fr, SamplePlan())
        assert rep.passed
        names = passed_names(rep)
        assert {"xi-exterior-functions", "xi-exterior-sampled",
                "xi-on-differentials", "xi-derivative"} <= names
        samples = [c for c in rep.checks if c.name == "xi-exterior-sampled"]
        assert len(samples) == 25
        assert ("xi-exterior-forms" in names) == zero_f
        if not zero_f:
            ch = s.chart
            twisted = [s.bracket(xi, DiffForm.d_coord(ch, a))
                       for a in range(ch.n)]
            assert any(not w.is_zero() for w in twisted)


def test_criterion_06_identity_battery():
    """The cyclic curvature-torsion identity and the two-curvature twist
    identity hold for 10 random polynomial connections regardless of
    integrability; torsion and curvature commute with 5 sampled
    polynomial coordinate changes."""
    rng = random.Random(17)
    ch2 = Chart(("q", "p"))
    ch3 = Chart(("x", "y", "w"))
    for k in range(10):
        ch = ch3 if k >= 8 else ch2
        s = random_connection(ch, rng, degree=1 if k >= 8 else 2)
        assert cyclic_curvature_torsion_residual(s).is_zero()
        assert curvature_twist_residual(s).is_zero()
    new = Chart(("u", "v"))
    for _ in range(5):
        change = random_shear_change(ch2, new, rng, degree=1)
        s = random_connection(ch2, rng, degree=1)
        s2 = transform_structure(s, change)
        assert transform_tensor(torsion(s), change) == torsion(s2)
        assert (transform_tensor(curvature(s, "gamma"), change)
                == curvature(s2, "gamma"))


def test_criterion_07_metric_connection():
    """The metric-derived connection annihilates the metric and the
    Poisson matrix and equals the independently built connection, on the
    one-dimensional inverse-square metric and on constant-frame-metric
    fixtures."""
    cases = []
    for t in [HermitianTriple(1, 0, 1), HermitianTriple(0, 1, 0)]:
        cases.append(build_one_dim(t))
    for make in [sphere_real_constants, mixed_constants]:
        cases.append(build_canonical(make())[0])
    for s in cases:
        ch = s.chart
        p = s.P[0, 1]
        hval = RatExpr.const(ch, 1) / (p * p)
        zero = RatExpr.zero(ch)
        m = Metric(ch, [[zero, hval], [hval, zero]])
        got = connection_from_metric(m, PoissonStructure(ch, s.P))
        assert got == s.Gamma
        s2 = PoissonStructure(ch, s.P, got)
        assert covariant_derivative(m.h, s2, "gamma").is_zero()
        assert covariant_derivative(s2.P, s2, "tilde").is_zero()


def test_criterion_08_one_dimensional_suite():
    """Classification, constant curvature with matching sign, congruence
    invariance under 10 random maps, centrality of the two-form, and
    delta realization for centered triples, in under ten seconds.  The
    final clause asserts the one documented unattainable label and is
    expected to fail; see README.md, section "Tests"."""
    start = time.monotonic()
    assert classify(HermitianTriple(1, 0, 1)) == "sphere"
    assert classify(HermitianTriple(1, 0, -1)) == "lobachevskian"
    sign_of = {"plane": 0, "sphere": 1, "lobachevskian": -1}
    rng = random.Random(5)
    maps = [rand_map(rng) for _ in range(10)]
    for t in [HermitianTriple(1, 0, 1), HermitianTriple(1, 0, -1),
              HermitianTriple(0, 1, 0), HermitianTriple(1, 1, 1),
              HermitianTriple(0, 0, 3)]:
        k = gaussian_curvature(t)
        assert k.is_const()
        v = k.const_value()
        assert v.im == 0
        want = sign_of[classify(t)]
        assert (v.re > 0) - (v.re < 0) == want
        for m in maps:
            assert classify(moebius(t, m)) == classify(t)

    plan = SamplePlan(count=10)
    s = build_one_dim(HermitianTriple(1, 0, 1))
    ch = s.chart
    eta, etabar, K, rep = eta_kahler(HermitianTriple(1, 0, 1), plan)
    assert rep.passed
    assert not [c for c in rep.checks if c.status == "not-applicable"]
    assert {"eta-exterior-forms", "etabar-exterior-forms",
            "kahler-central-functions",
            "kahler-central-forms"} <= passed_names(rep)
    for arg in [DiffForm.coord(ch, 0), DiffForm.coord(ch, 1),
                DiffForm.d_coord(ch, 0), DiffForm.d_coord(ch, 1)]:
        assert s.bracket(K, arg).is_zero()
    rng2 = random.Random(9)
    for _ in range(5):
        w = random_form(ch, rng2, 2, rng2.randrange(0, 3))
        assert (s.bracket(eta, w) - w.d_holo()).is_zero()
    _, _, _, rep2 = eta_kahler(HermitianTriple(1, 0, -1), plan)
    assert rep2.passed
    assert time.monotonic() - start < 10.0

    got = classify(HermitianTriple(0, 1, 0))
    assert got == "plane", (
        f"classify((0,1,0)) = {got!r}; the label 'plane' is unattainable: "
        "the congruence-invariant determinant ac - |b|^2 = -1 is negative, "
        "diagonalization gives (1, 0, -1), and the curvature is -2; "
        "analysis in README.md, section 'Tests'")


def test_criterion_09_complex_axioms():
    """Conjugation pairing, split-derivative Leibniz laws, bidegree
    additivity, and connection block-diagonality pass on all complex
    fixtures; a corrupted connection yields a failing report with a
    re-verifiable residual."""
    builds = [sphere_build(), flat_build(),
              build_canonical(linear_constants(), zchart()),
              build_canonical(product_constants(), product_chart())]
    for (s, _), plan in zip(builds, [SamplePlan(count=8), SamplePlan(count=8),
                                     SamplePlan(count=8), QUICK]):
        rep = verify_complex_axioms(s, plan)
        assert rep.passed
        assert {"hermiticity", "delta-leibniz", "deltabar-leibniz",
                "bidegree-additivity",
                "connection-block-diagonal"} <= passed_names(rep)

    s, _ = sphere_build()
    ch = s.chart
    G = [[[s.Gamma[a, b, c] for c in range(2)] for b in range(2)]
         for a in range(2)]
    G[0][0][1] = G[0][0][1] + RatExpr.one(ch)
    bad = PoissonStructure(ch, s.P, G)
    rep = verify_complex_axioms(bad, QUICK)
    assert not rep.passed
    hits = [c for c in rep.checks
            if c.name == "connection-block-diagonal" and not c.ok]
    assert hits
    assert parse_scalar(hits[0].residual, ch) == bad.Gamma[0, 0, 1]


def test_criterion_10_cli(tmp_path):
    """The command line emits byte-identical reports across runs, exits
    0 on pass, 1 on violations, 2 on malformed input, and its build
    output re-verifies cleanly."""
    def run(*argv):
        p = subprocess.run([sys.executable, "-m", "poissonforms.cli", *argv],
                           capture_output=True)
        return p.returncode, p.stdout

    darboux = tmp_path / "darboux.json"
    darboux.write_text(json.dumps(
        {"chart": {"coords": ["x", "y"], "kind": "real"},
         "P": [["0", "1"], ["-1", "0"]]}) + "\n")
    bad_cybe = tmp_path / "bad_cybe.json"
    bad_cybe.write_text(json.dumps(
        constants_to_dict(cybe_violating_constants())) + "\n")
    good = tmp_path / "constants.json"
    good.write_text(json.dumps(constants_to_dict(mixed_constants())) + "\n")

    for fmt in ("text", "machine"):
        first = run("verify", str(darboux), "--count", "3", "--format", fmt)
        second = run("verify", str(darboux), "--count", "3", "--format", fmt)
        assert first == second
        assert first[0] == 0

    code, out = run("canonical", "check", str(bad_cybe),
                    "--format", "machine")
    assert code == 1
    fails = [c for c in json.loads(out)["checks"] if c["status"] == "fail"]
    assert [c["name"] for c in fails] == ["yang-baxter"]
    assert fails[0]["residual"] != "0"

    assert run("verify", str(tmp_path / "missing.json"))[0] == 2
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    assert run("verify", str(garbage))[0] == 2

    built = tmp_path / "structure.json"
    code, _ = run("canonical", "build", str(good), "--emit", str(built))
    assert code == 0
    code, out = run("verify", str(built), "--count", "2")
    assert code == 0
    assert out.decode().splitlines()[-1].endswith("status: pass")

    code, out = run("onedim", "classify", "--a", "1", "--b", "0", "--c", "-1")
    assert (code, out) == (0, b"lobachevskian\n")
