"""Freeze expectations for the one-dimensional module.

Run from the root of a checkout: python3 scripts/freeze_onedim.py.  The
values go to stdout, which is the same on every run; the wall-clock total
goes to stderr."""

import random
import sys
import time

sys.path.insert(0, "src")

from fractions import Fraction

from poissonforms.bracket import SamplePlan, verify_axioms
from poissonforms.complexforms import verify_complex_axioms
from poissonforms.forms import DiffForm
from poissonforms.geometry import check_integrability
from poissonforms.onedim import (HermitianTriple, MoebiusMap, build_one_dim,
                                 centering_translation, classify, diagonalize,
                                 eta_kahler, gaussian_curvature, moebius,
                                 one_dim_chart, p_scalar)
from poissonforms.parsing import parse_form, parse_scalar
from poissonforms.scalars import GaussianRational

QUICK = SamplePlan(count=4)
t0 = time.time()
ch = one_dim_chart()
i = GaussianRational(0, 1)

print("== builds and generator brackets ==")
for a, b, c in [(1, 0, 1), (0, 1, 0), (1, 0, -1), (1, 1, 1),
                (Fraction(1, 2), GaussianRational(1, 2), 3)]:
    t = HermitianTriple(a, b, c)
    s = build_one_dim(t)
    S = p_scalar(t).diff(1)
    z_dz = s.coord_dx(0, 0)
    want = DiffForm(ch, {(0,): S})
    print(f"  ({a},{b},{c}): (z,zb)={s.P[0, 1]} (z,dz)-S*dz zero:"
          f" {(z_dz - want).is_zero()} (dz,dzb)={s.dx_dx(0, 1)}")

print("\n== axioms / integrability on builds ==")
for a, b, c in [(1, 0, 1), (0, 1, 0), (1, 1, 1)]:
    t = HermitianTriple(a, b, c)
    s = build_one_dim(t)
    r1 = verify_axioms(s, QUICK)
    r2 = verify_complex_axioms(s, QUICK)
    r3 = check_integrability(s)
    print(f"  ({a},{b},{c}): axioms={r1.passed} complex={r2.passed}"
          f" integrability={r3.passed}")

print("\n== moebius ==")
t = HermitianTriple(1, 1, 1)
print("identity:", moebius(t, MoebiusMap.identity()) == t)
m = MoebiusMap(1, -1, 0, 1)
print("translate (1,1,1):", moebius(t, m))
print("centering matches:", centering_translation(t) == m)
rng = random.Random(7)


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


ok_group = ok_det = ok_diag = ok_cls = True
for k in range(10):
    tt = HermitianTriple(Fraction(rng.randint(-3, 3)), rand_gr(rng),
                         Fraction(rng.randint(-3, 3)))
    if tt.is_zero():
        continue
    m1, m2 = rand_map(rng), rand_map(rng)
    lhs = moebius(moebius(tt, m1), m2)
    rhs = moebius(tt, m1.compose(m2))
    ok_group = ok_group and lhs == rhs
    t2 = moebius(tt, m1)
    factor = m1.det * m1.det.conjugate()
    ok_det = ok_det and t2.det == factor * tt.det
    dm = diagonalize(tt)
    td = moebius(tt, dm)
    ok_diag = ok_diag and td.b.is_zero()
    bysign = ("plane" if (td.a * td.c).is_zero()
              else "sphere" if (td.a * td.c).re > 0 else "lobachevskian")
    ok_cls = ok_cls and bysign == classify(tt)
print("group action:", ok_group, "| det factor:", ok_det,
      "| diagonalize kills b:", ok_diag, "| classify cross-check:", ok_cls)

print("\n== classify + curvature ==")
for a, b, c in [(1, 0, 1), (1, 0, -1), (0, 1, 0), (0, 0, 3), (1, 1, 1),
                (2, 1, 1), (1, 2, 1), (0, i, 0)]:
    t = HermitianTriple(a, b, c)
    k = gaussian_curvature(t)
    print(f"  ({a},{b},{c}): classify={classify(t)} curvature={k}"
          f" const={k.is_const()} 2det={2 * t.det}")

print("\n== eta_kahler (1,0,1) ==")
t = HermitianTriple(1, 0, 1)
eta, etabar, K, rep = eta_kahler(t, QUICK)
print("passed:", rep.passed)
print("eta:", eta == parse_form("(-zb/(z*zb+1))*d[z]", ch))
print("K:", K == parse_form("(1/(z*zb+1)^2)*d[z]*d[zb]", ch))
print("names:", sorted({c.name for c in rep.checks}))
nas = sorted(c.name for c in rep.checks if c.status == "not-applicable")
print("NA:", nas)

print("\n== eta_kahler (0,1,0) ==")
t = HermitianTriple(0, 1, 0)
eta, etabar, K, rep = eta_kahler(t, QUICK)
print("passed:", rep.passed)
print("eta:", eta, "|", eta == parse_form("(-zb/(z+zb))*d[z]", ch))
print("K:", K == parse_form("(1/(z+zb)^2)*d[z]*d[zb]", ch))
nas = sorted(c.name for c in rep.checks if c.status == "not-applicable")
print("NA:", nas)
print("(K,z):", build_one_dim(t).bracket(K, DiffForm.coord(ch, 0)))

print("\n== eta_kahler (1,0,0) degenerate g ==")
t = HermitianTriple(1, 0, 0)
eta, etabar, K, rep = eta_kahler(t, QUICK)
print("passed:", rep.passed)
print("eta:", eta, "| K:", K)
for c in rep.sorted().checks:
    if c.status == "fail":
        print("  fail:", c.name, c.location, c.residual[:70])

print("\n== errors ==")
for fn, args in [(HermitianTriple, (i, 0, 1)), (HermitianTriple, (1, 0, i)),
                 (MoebiusMap, (1, 1, 1, 1)),
                 (classify, (HermitianTriple(0, 0, 0),)),
                 (build_one_dim, (HermitianTriple(0, 0, 0),)),
                 (gaussian_curvature, (HermitianTriple(0, 0, 0),)),
                 (diagonalize, (HermitianTriple(0, 0, 0),)),
                 (centering_translation, (HermitianTriple(0, 1, 1),))]:
    try:
        fn(*args)
        print("  no error:", fn.__name__, args)
    except ValueError as e:
        print(f"  {fn.__name__}: {e}")

print("total:", round(time.time() - t0, 2), "s", file=sys.stderr)
