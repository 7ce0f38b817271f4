"""Freeze expectations for the complex layer tests.

Run from the root of a checkout: python3 scripts/freeze_complex.py.  The
values go to stdout, which is the same on every run; wall-clock times go
to stderr."""

import sys
import time

sys.path.insert(0, "src")
sys.path.insert(0, "tests")

from poissonforms.bracket import PoissonStructure, SamplePlan, verify_axioms
from poissonforms.canonical import (CanonicalConstants, build_canonical,
                                    check_constants, e_basis)
from poissonforms.complexforms import (eta_forms, frame_split, kahler_form,
                                       verify_complex_axioms)
from poissonforms.forms import DiffForm
from poissonforms.parsing import parse_form, parse_scalar
from poissonforms.ratexpr import Chart, RatExpr
from poissonforms.scalars import GaussianRational

from test_canonical import mixed_constants
from test_bracket import sphere_structure

QUICK = SamplePlan(count=4)


def show_report(tag, rep):
    names = sorted({c.name for c in rep.checks})
    print(f"{tag}: passed={rep.passed} names={names}")
    for c in rep.sorted().checks:
        if c.status != "pass":
            print(f"  {c.status}: {c.name} @ {c.location} residual={c.residual}")


t0 = time.time()
zchart = Chart(("z", "zb"), kind="complex", pairs=(("z", "zb"),))

print("== sphere (canonical complex build) ==")
s, fr = build_canonical(mixed_constants(), zchart)
rep = verify_complex_axioms(s, QUICK)
show_report("axioms", rep)

eta, etabar, rep = eta_forms(s, fr, QUICK)
show_report("eta", rep)
print("eta =", eta)
print("etabar =", etabar)
print("eta == -zb/p dz:", eta == parse_form("(-zb/(z*zb+1))*d[z]", zchart))
print("etabar == z/p dzb:", etabar == parse_form("(z/(z*zb+1))*d[zb]", zchart))
print("(eta, zb) =", s.bracket(eta, DiffForm.coord(zchart, 1)))
print("(eta, dz) =", s.bracket(eta, DiffForm.d_coord(zchart, 0)))

K, rep = kahler_form(s, fr, plan=QUICK)
show_report("kahler", rep)
print("K =", K)
print("K == 1/p^2 dz dzb:", K == parse_form("(1/(z*zb+1)^2)*d[z]*d[zb]", zchart))

print("\n== sphere direct (non-canonical chart route) ==")
s2 = sphere_structure()
rep = verify_complex_axioms(s2, QUICK)
show_report("axioms", rep)

print("\n== corrupted Gamma ==")
G = [[[s.Gamma[a, b, c] for c in range(2)] for b in range(2)] for a in range(2)]
G[0][0][1] = G[0][0][1] + RatExpr.one(zchart)
sbad = PoissonStructure(zchart, s.P, G)
rep = verify_complex_axioms(sbad, QUICK)
fails = [c for c in rep.sorted().checks if c.status == "fail"]
print("passed:", rep.passed)
print("block fails:", [(c.name, c.location, c.residual)
                       for c in fails if c.name == "connection-block-diagonal"])
print("other failing names:", sorted({c.name for c in fails
                                      if c.name != "connection-block-diagonal"}))

print("\n== flat complex dim 2 ==")
flat = CanonicalConstants.from_entries(2, g=[(0, 1, 1), (1, 0, -1)])
s3, fr3 = build_canonical(flat, zchart)
print("split:", frame_split(zchart, fr3))
rep = verify_complex_axioms(s3, QUICK)
show_report("axioms", rep)
eta3, etabar3, rep = eta_forms(s3, fr3, QUICK)
show_report("eta", rep)
print("eta =", eta3, "| etabar =", etabar3)
K3, rep = kahler_form(s3, fr3, plan=QUICK)
show_report("kahler", rep)
print("K =", K3)
print("ext_d K =", K3.ext_d())

print("\n== flat complex dim 2, user h ==")
K3h, rep = kahler_form(s3, fr3, h=[[0, 0], [2, 0]], plan=QUICK)
show_report("kahler-h", rep)
print("K_h =", K3h, "| d K_h zero:", K3h.ext_d().is_zero())

print("\n== user h with imaginary coefficient (star must fail) ==")
Kim, rep = kahler_form(s3, fr3, h=[[0, 0], [GaussianRational(0, 1), 0]],
                       plan=QUICK)
show_report("kahler-imag", rep)
print("K_im =", Kim)

print("\n== degenerate h ==")
try:
    kahler_form(s3, fr3, h=[[0, 0], [0, 0]], plan=QUICK)
    print("no error")
except ValueError as e:
    print("ValueError:", e)

print("\n== h off the split blocks ==")
try:
    kahler_form(s3, fr3, h=[[0, 1], [0, 0]], plan=QUICK)
    print("no error")
except ValueError as e:
    print("ValueError:", e)

print("\n== product of two curved structures, dim 4 ==")
c4 = CanonicalConstants.from_entries(
    4,
    rt=[(0, 2, 0, 2, 1), (0, 2, 2, 0, 1), (2, 0, 0, 2, -1), (2, 0, 2, 0, -1),
        (1, 3, 1, 3, 1), (1, 3, 3, 1, 1), (3, 1, 1, 3, -1), (3, 1, 3, 1, -1)],
    g=[(0, 2, 1), (2, 0, -1), (1, 3, 1), (3, 1, -1)])
rep = check_constants(c4)
show_report("constants", rep)
ch4 = Chart(("z1", "z2", "zb1", "zb2"), kind="complex",
            pairs=(("z1", "zb1"), ("z2", "zb2")))
s4, fr4 = build_canonical(c4, ch4)
print("P[0][2] =", s4.P[0, 2], "| P[1][3] =", s4.P[1, 3])
print("split:", frame_split(ch4, fr4))
t1 = time.time()
rep = verify_complex_axioms(s4, SamplePlan(count=2))
show_report("axioms", rep)
print("axioms time:", round(time.time() - t1, 2), file=sys.stderr)
t1 = time.time()
eta4, etabar4, rep = eta_forms(s4, fr4, SamplePlan(count=2))
show_report("eta", rep)
print("eta =", eta4)
t1 = time.time()
K4, rep = kahler_form(s4, fr4, plan=SamplePlan(count=2))
show_report("kahler", rep)
print("K =", K4)
print("kahler time:", round(time.time() - t1, 2), file=sys.stderr)

print("\n== mixed-support frame row must raise ==")
try:
    from poissonforms.canonical import Frame
    badf = Frame(zchart, [[1, 1], [0, 1]], [[1, -1], [0, 1]],
                 [RatExpr.variable(zchart, 0), RatExpr.variable(zchart, 1)])
    frame_split(zchart, badf)
    print("no error")
except ValueError as e:
    print("ValueError:", e)

print("\n== real chart rejected ==")
try:
    from poissonforms.canonical import canonical_chart
    sr, frr = build_canonical(mixed_constants())
    verify_complex_axioms(sr, QUICK)
    print("no error")
except ValueError as e:
    print("ValueError:", e)

print("total:", round(time.time() - t0, 2), "s", file=sys.stderr)
