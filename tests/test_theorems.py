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

Both sides are laws of the structure, not of its coordinates: under a
polynomial change of coordinates with a polynomial inverse, the laws
that fail stay the same.  This is claimed only for structures that pass
`axiom-dleibniz`; without it the bracket depends on the coordinates.
"""

import random
from itertools import product

import pytest

from poissonforms.bracket import PoissonStructure, SamplePlan, verify_axioms
from poissonforms.canonical import build_canonical
from poissonforms.geometry import Tensor, check_integrability, coord_signature
from poissonforms.linalg import _contract, _sum, invert_matrix
from poissonforms.ratexpr import Chart, RatExpr

from identities import subst
from test_canonical import (affine_constants, darboux_constants,
                            mixed_constants, rank_one_constants,
                            sphere_real_constants)
from test_complex import (linear_constants, product_chart, product_constants,
                          zchart)
from test_invariance import scaled_darboux4

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


def moved_connection(s: PoissonStructure) -> PoissonStructure:
    """s with Gamma^0_{11} moved off its value by x^0."""
    n = s.n
    G = [[[s.Gamma[a, b, d] for d in range(n)] for b in range(n)]
         for a in range(n)]
    G[0][1][1] = G[0][1][1] + RatExpr.variable(s.chart, 0)
    return PoissonStructure(s.chart, s.P, G)


@pytest.mark.parametrize("name", ["sphere_real", "affine", "product4"])
def test_moved_connection_fails_both(name):
    """A canonical build with one Gamma entry moved off its value."""
    c, _ = BUILDS[name]
    s, _ = build_canonical(c)
    assert verdicts(moved_connection(s)) == (False, False)


# -- nonlinear changes of coordinates ----------------------------------


def sheared(s: PoissonStructure, j: int, q) -> PoissonStructure:
    """s in the coordinates x'^j = x^j + q(x), the others kept, on the same
    chart; q(x) is a polynomial free of x^j, so x^j = x'^j - q(x') is the
    inverse.  With J = dx'/dx and K = dx/dx', everything taken at
    x = psi(x'): P' = J P J^T and
    Gamma'^b_{ld} = J^b_j Gamma^j_{ge} K^g_l K^e_d + J^b_j d_l K^j_d."""
    chart, n = s.chart, s.n
    x = [RatExpr.variable(chart, k) for k in range(n)]
    forward = x[:j] + [x[j] + q(x)] + x[j + 1:]
    psi = x[:j] + [x[j] - q(x)] + x[j + 1:]

    def at_old(T: dict) -> dict:
        return {idx: subst(v, psi) for idx, v in T.items()}

    def nonzero(entries) -> dict:
        return {idx: v for idx, v in entries if v}

    pairs = list(product(range(n), repeat=2))
    J = at_old(nonzero(((a, g), forward[a].diff(g)) for a, g in pairs))
    K = nonzero(((a, g), psi[a].diff(g)) for a, g in pairs)
    dK = nonzero(((a, l, d), psi[a].diff(d).diff(l))
                 for a, l, d in product(range(n), repeat=3))
    P = _contract("aj,jk,bk->ab", J, at_old(s.P.components), J)
    Gamma = _sum([
        (1, "bj,jge,gl,ed->bld", [J, at_old(s.Gamma.components), K, K]),
        (1, "bj,jld->bld", [J, dK])])
    return PoissonStructure(chart, Tensor._of(chart, coord_signature("uu"), P),
                            Tensor._of(chart, coord_signature("udd"), Gamma))


def failing_laws(s: PoissonStructure) -> tuple:
    """The names of the failing laws of verify_axioms and of
    check_integrability."""
    return tuple({c.name for c in rep.checks if c.status == "fail"} for rep in
                 (verify_axioms(s, GENERATORS_ONLY), check_integrability(s)))


# x1 -> x1 + x0^2, then x0 -> x0 - x1, in dimension two, and
# x1 -> x1 + x0 x2 in dimension four.  Larger changes make the
# denominators of product4 and sphere_real costly to reduce.
SHEARS = {2: [(1, lambda x: x[0] ** 2), (0, lambda x: -x[1])],
          4: [(1, lambda x: x[0] * x[2])]}
NONLINEAR_CASES = ["darboux2", "darboux4", "sphere_real", "mixed", "rank_one",
                   "affine", "product4", "moved_darboux4",
                   "moved_sphere_real", "moved_affine", "scaled_darboux4"]


def nonlinear_case(name: str) -> PoissonStructure:
    """A real canonical build, one with its connection moved, or the
    scaled Darboux structure of `test_invariance`."""
    if name == "scaled_darboux4":
        return scaled_darboux4()
    s, _ = build_canonical(BUILDS[name.removeprefix("moved_")][0])
    return moved_connection(s) if name.startswith("moved_") else s


@pytest.mark.parametrize("name", NONLINEAR_CASES)
def test_failing_laws_survive_nonlinear_changes(name):
    s = nonlinear_case(name)
    want = failing_laws(s)
    assert "axiom-dleibniz" not in want[0]
    for j, q in SHEARS[s.n]:
        s = sheared(s, j, q)
        assert failing_laws(s) == want
