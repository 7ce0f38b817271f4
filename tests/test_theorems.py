"""Theorem oracle: for an invertible P, the bracket laws hold exactly when
the geometric conditions hold.

`verify_axioms` checks the laws on the brackets of the generators, and
`check_integrability` checks flatness, the parallel transport of P and
of the twisted curvature, and the cyclic Jacobi identity, on the
tensors alone.  One side expands brackets of forms, the other contracts
tensors, so a wrong term on either side shows up as a structure on
which their verdicts part.  Random structures with P constant or linear and Gamma zero,
constant or linear mostly fail, so most passing cases come from
`build_canonical`.  With a singular P the geometric conditions do not
apply and the equivalence is not claimed.
"""

import random

import pytest

from poissonforms.bracket import PoissonStructure, SamplePlan, verify_axioms
from poissonforms.canonical import build_canonical
from poissonforms.geometry import check_integrability
from poissonforms.linalg import invert_matrix
from poissonforms.ratexpr import Chart, RatExpr

from test_canonical import (affine_constants, darboux_constants,
                            mixed_constants, rank_one_constants,
                            sphere_real_constants)
from test_complex import (linear_constants, product_chart, product_constants,
                          zchart)

GENERATORS_ONLY = SamplePlan(count=0)


def verdicts(s: PoissonStructure) -> tuple:
    return (verify_axioms(s, GENERATORS_ONLY).passed,
            check_integrability(s).passed)


def _entry(chart: Chart, rng: random.Random, linear: bool) -> RatExpr:
    """A nonzero constant, plus small multiples of some coordinates when
    `linear` holds."""
    v = RatExpr.const(chart, rng.choice([-2, -1, 1, 2]))
    for k in range(chart.n):
        if linear and rng.random() < 0.5:
            v = v + rng.randint(-2, 2) * RatExpr.variable(chart, k)
    return v


def random_structure(rng: random.Random, n: int, p_kind: str, g_kind: str):
    """P with `p_kind` entries above the diagonal (all of them in dimension
    two, about half in dimension four), and zero Gamma or one to three
    entries of kind `g_kind`."""
    chart = Chart(f"x{k}" for k in range(n))
    zero = RatExpr.zero(chart)
    P = [[zero] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if n == 2 or rng.random() < 0.6:
                P[a][b] = _entry(chart, rng, p_kind == "linear")
                P[b][a] = -P[a][b]
    G = [[[zero] * n for _ in range(n)] for _ in range(n)]
    if g_kind != "zero":
        for _ in range(rng.randint(1, 3)):
            a, b, c = (rng.randrange(n) for _ in range(3))
            G[a][b][c] = _entry(chart, rng, g_kind == "linear")
    return PoissonStructure(chart, P, G)


@pytest.mark.parametrize("g_kind", ["zero", "constant", "linear"])
@pytest.mark.parametrize("p_kind", ["constant", "linear"])
@pytest.mark.parametrize("n,count", [(2, 6), (4, 2)])
def test_axioms_hold_iff_integrable_on_random_structures(n, count, p_kind,
                                                         g_kind):
    rng = random.Random(f"{n} {p_kind} {g_kind}")
    seen = 0
    while seen < count:
        s = random_structure(rng, n, p_kind, g_kind)
        if invert_matrix(s.P.components, n) is None:
            continue
        seen += 1
        axioms, integrable = verdicts(s)
        assert axioms == integrable, (s.P, s.Gamma)


BUILDS = {
    "darboux2": (darboux_constants(2), None),
    "darboux4": (darboux_constants(4), None),
    "sphere_real": (sphere_real_constants(), None),
    "mixed": (mixed_constants(), None),
    "rank_one": (rank_one_constants(), None),
    "affine": (affine_constants(), None),
    "product4": (product_constants(), None),
    "sphere_complex": (mixed_constants(), zchart()),
    "linear_complex": (linear_constants(), zchart()),
    "product4_complex": (product_constants(), product_chart()),
}


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_canonical_builds_pass_both(name):
    c, chart = BUILDS[name]
    s, _ = build_canonical(c, chart) if chart else build_canonical(c)
    assert verdicts(s) == (True, True)


@pytest.mark.parametrize("name", ["sphere_real", "affine", "product4"])
def test_moved_connection_fails_both(name):
    """A canonical build with one Gamma entry moved off its value."""
    c, _ = BUILDS[name]
    s, _ = build_canonical(c)
    n = s.n
    G = [[[s.Gamma[a, b, d] for d in range(n)] for b in range(n)]
         for a in range(n)]
    G[0][1][1] = G[0][1][1] + RatExpr.variable(s.chart, 0)
    assert verdicts(PoissonStructure(s.chart, s.P, G)) == (False, False)
