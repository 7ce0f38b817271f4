import pytest

from poissonforms.bracket import (PoissonStructure, SamplePlan, _generators,
                                  verify_axioms)
from poissonforms.complexforms import verify_complex_axioms
from poissonforms.forms import DiffForm
from poissonforms.onedim import HermitianTriple, build_one_dim
from poissonforms.parsing import parse_form, parse_scalar
from poissonforms.ratexpr import Chart, RatExpr


@pytest.fixture
def darboux():
    ch = Chart(("q", "p"))
    return PoissonStructure(ch, [["0", "1"], ["-1", "0"]])


def sphere_structure():
    """Quadratic structure on a paired complex chart; the connection keeps
    every bracket law exact."""
    ch = Chart(("z", "zb"), kind="complex", pairs=(("z", "zb"),))
    p = parse_scalar("z*zb + 1", ch)
    dp = p.diff("z")
    s = p.diff("zb")
    zero = RatExpr.zero(ch)
    gamma = [[[zero] * 2 for _ in range(2)] for _ in range(2)]
    gamma[0][0][0] = -dp / p
    gamma[0][1][0] = -s / p
    gamma[1][0][1] = -dp / p
    gamma[1][1][1] = -s / p
    return PoissonStructure(ch, [[zero, p], [-p, zero]], gamma)


def test_antisymmetry_validation():
    ch = Chart(("x", "y"))
    with pytest.raises(ValueError):
        PoissonStructure(ch, [["0", "1"], ["1", "0"]])
    with pytest.raises(ValueError):
        PoissonStructure(ch, [["x", "1"], ["-1", "0"]])


def test_scalar_bracket(darboux):
    ch = darboux.chart
    q = parse_scalar("q", ch)
    p = parse_scalar("p", ch)
    assert darboux.bracket_scalars(q, p) == 1
    assert darboux.bracket_scalars(p, q) == -1
    f = parse_scalar("q^2*p", ch)
    g = parse_scalar("q + p", ch)
    assert darboux.bracket_scalars(f, g) == parse_scalar("2*q*p - q^2", ch)


def test_flat_structure_kills_differentials(darboux):
    assert darboux.coord_dx(0, 0).is_zero()
    assert darboux.coord_dx(0, 1).is_zero()
    assert darboux.dx_dx(1, 0).is_zero()


def test_flat_bracket_by_hand(darboux):
    ch = darboux.chart
    w = parse_form("q*d[q]", ch)
    v = parse_form("p*d[p]", ch)
    assert darboux.bracket(w, v) == parse_form("d[q]^d[p]", ch)
    assert darboux.bracket(v, w) == parse_form("d[q]^d[p]", ch)
    f = parse_form("q^2", ch)
    assert darboux.bracket(f, v) == parse_form("2*q*d[p]", ch)
    assert darboux.bracket(v, f) == parse_form("-2*q*d[p]", ch)


def test_sphere_generator_brackets():
    st = sphere_structure()
    ch = st.chart
    assert st.coord_dx(0, 0) == parse_form("z*d[z]", ch)
    assert st.coord_dx(1, 0) == parse_form("-zb*d[z]", ch)
    assert st.coord_dx(0, 1) == parse_form("z*d[zb]", ch)
    assert st.coord_dx(1, 1) == parse_form("-zb*d[zb]", ch)
    assert st.dx_dx(0, 0).is_zero()
    assert st.dx_dx(0, 1) == parse_form("d[z]^d[zb]", ch)
    assert st.dx_dx(1, 0) == parse_form("d[z]^d[zb]", ch)


def test_sphere_axioms_hold():
    st = sphere_structure()
    rep = verify_axioms(st, SamplePlan(degree=2, count=8, seed=1))
    assert rep.passed, rep.render_text()


def test_darboux_axioms_hold(darboux):
    rep = verify_axioms(darboux, SamplePlan(degree=2, count=10, seed=0))
    assert rep.passed, rep.render_text()


def test_report_shape(darboux):
    rep = verify_axioms(darboux, SamplePlan(count=3))
    names = {c.name for c in rep.checks}
    assert names == {
        "axiom-antisymmetry",
        "axiom-degree",
        "axiom-jacobi",
        "axiom-derivation",
        "axiom-dleibniz",
    }
    pairs, triples = 16, 64
    assert len(rep.checks) == pairs * 3 + triples * 2 + 3 * 5
    d = rep.to_dict()
    assert d["summary"]["status"] == "pass"


def test_complex_checks_present():
    st = sphere_structure()
    rep = verify_axioms(st, SamplePlan(count=2, seed=3))
    names = {c.name for c in rep.checks}
    assert "axiom-hermiticity" in names
    assert "axiom-dleibniz-holo" in names
    assert "axiom-dleibniz-antiholo" in names
    assert "axiom-bidegree" in names
    assert rep.passed, rep.render_text()


def test_corrupted_connection_fails_jacobi():
    st = sphere_structure()
    ch = st.chart
    gamma = [[[st.Gamma[a, b, c] for c in range(2)] for b in range(2)] for a in range(2)]
    gamma[1][1][1] = gamma[1][1][1] + RatExpr.one(ch)
    bad = PoissonStructure(ch, st.P, gamma)
    rep = verify_axioms(bad, SamplePlan(count=0))
    fails = [c for c in rep.failures if c.name == "axiom-jacobi"]
    assert fails
    assert any("generators" in c.location for c in fails)
    assert all(c.residual != "0" for c in fails)


def test_hermitian_validation():
    ch = Chart(("z", "zb"), kind="complex", pairs=(("z", "zb"),))
    with pytest.raises(ValueError):
        PoissonStructure(ch, [["0", "i*z*zb + 1"], ["-(i*z*zb + 1)", "0"]])


def test_polynomial_in_polynomial_out():
    import random as _r

    from poissonforms.bracket import random_form, random_scalar

    ch = Chart(("x", "y", "w"))
    rng = _r.Random(7)
    p01 = random_scalar(ch, rng, 2)
    p02 = random_scalar(ch, rng, 2)
    p12 = random_scalar(ch, rng, 2)
    zero = RatExpr.zero(ch)
    P = [[zero, p01, p02], [-p01, zero, p12], [-p02, -p12, zero]]
    gamma = [[[random_scalar(ch, rng, 1) for _ in range(3)] for _ in range(3)]
             for _ in range(3)]
    st = PoissonStructure(ch, P, gamma)
    for k in range(5):
        f = random_form(ch, rng, 2, rng.randint(0, 2))
        g = random_form(ch, rng, 2, rng.randint(0, 2))
        out = st.bracket(f, g)
        assert all(c.is_poly() for c in out.parts.values())


# -- bracket memo ------------------------------------------------------------


class _CountingMemo(dict):
    """A bracket memo that records every store: bracket stores each
    result it computes, so the stores are the computations."""

    def __init__(self):
        super().__init__()
        self.stored = []

    def __setitem__(self, key, value):
        self.stored.append(key)
        super().__setitem__(key, value)


def _watch(structure):
    """Give `structure` a counting memo and record the distinct argument
    pairs of its bracket calls; returns (memo, pairs, calls)."""
    memo = _CountingMemo()
    structure._brackets = memo
    pairs, calls = set(), []
    bracket = structure.bracket

    def watched(f, g):
        calls.append(None)
        pairs.add((structure._as_form(f), structure._as_form(g)))
        return bracket(f, g)

    structure.bracket = watched
    return memo, pairs, calls


def _darboux4():
    ch = Chart(("q1", "q2", "p1", "p2"))
    P = [["0", "0", "1", "0"], ["0", "0", "0", "1"],
         ["-1", "0", "0", "0"], ["0", "-1", "0", "0"]]
    return PoissonStructure(ch, P)


def test_memo_computes_each_distinct_bracket_once():
    st = _darboux4()
    memo, pairs, calls = _watch(st)
    assert verify_axioms(st).passed
    assert (len(calls), len(pairs)) == (5189, 660)
    assert len(memo.stored) == len(pairs)
    assert set(memo.stored) == pairs


def test_memoized_brackets_equal_fresh_ones():
    st = sphere_structure()
    plan = SamplePlan(count=3, seed=5)
    assert verify_axioms(st, plan).passed
    assert verify_complex_axioms(st, plan).passed
    assert st._brackets
    for (f, g), got in st._brackets.items():
        assert got == PoissonStructure(st.chart, st.P, st.Gamma).bracket(f, g)


def test_complex_layer_reuses_generator_brackets():
    st = build_one_dim(HermitianTriple(1, 0, 1))
    memo, pairs, _ = _watch(st)
    assert verify_axioms(st).passed
    before = set(memo)
    memo.stored.clear()
    pairs.clear()
    assert verify_complex_axioms(st).passed
    gens = [g for g, _, _ in _generators(st)]
    gen_pairs = {(f, g) for f in gens for g in gens}
    assert len(gen_pairs) == 16
    assert gen_pairs <= pairs and gen_pairs <= before
    assert not gen_pairs & set(memo.stored)
    assert len(memo.stored) == len(set(memo.stored))
    assert set(memo.stored) == pairs - before
