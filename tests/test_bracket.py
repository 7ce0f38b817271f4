import collections
import hashlib
import random

import pytest

from poissonforms.bracket import (PoissonStructure, SamplePlan, _generators,
                                  _samples, random_form, random_scalar,
                                  verify_axioms)
from poissonforms.complexforms import verify_complex_axioms
from poissonforms.forms import DiffForm
from poissonforms.onedim import HermitianTriple, build_one_dim
from poissonforms.parsing import parse_form, parse_scalar
from poissonforms.polynomials import Poly
from poissonforms.ratexpr import Chart, RatExpr
from poissonforms.scalars import GaussianRational

from identities import random_connection


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


@pytest.mark.parametrize("connection", [False, True])
def test_polynomial_bracket_builds_no_expression_products(monkeypatch,
                                                         connection):
    """The bracket of two forms with polynomial coefficients, on Darboux-4
    with Gamma = 0 or a polynomial Gamma, multiplies and sums all its
    terms on integer coefficients: no RatExpr product or sum is taken
    once the structure's tables are built."""
    st = _darboux4()
    ch, rng = st.chart, random.Random(7)
    if connection:
        st = random_connection(ch, rng)
    f, g = (random_form(ch, rng, 2, 1) + random_form(ch, rng, 2, 2)
            for _ in range(2))
    want = st.bracket(f, g)
    calls = collections.Counter()

    def counted(name):
        op = getattr(RatExpr, name)

        def counting(self, other):
            calls[name] += 1
            return op(self, other)
        return counting

    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__",
                 "__rsub__"):
        monkeypatch.setattr(RatExpr, name, counted(name))
    got = PoissonStructure(st.chart, st.P, st.Gamma)
    for a in range(ch.n):
        for b in range(ch.n):
            got.dx_dx(a, b)
    calls.clear()
    assert got.bracket(f, g) == want
    assert want and calls == {}


def test_memo_computes_each_distinct_bracket_once():
    st = _darboux4()
    memo, pairs, calls = _watch(st)
    assert verify_axioms(st).passed
    assert (len(calls), len(pairs)) == (5189, 660)
    assert len(memo.stored) == len(pairs)
    assert set(memo.stored) == pairs


def test_generator_wedges_and_derivatives_are_built_once(monkeypatch):
    """64 generator pair wedges plus br(f, g) * h and g * br(f, h) for each
    of the 512 triples.  d of each distinct form once, 8 + 3 + 16 = 27:
    one d per generator, in the d-Leibniz law; one per distinct value
    among the 64 generator-pair brackets (0, 1 and -1), since each
    bracket result is the one canonical form of its value and keeps its
    d; and one per (x^a, dx^b) table form, whose d is (dx^a, dx^b)."""
    calls = collections.Counter()
    for name in ("__mul__", "partial_d"):
        method = getattr(DiffForm, name)

        def counted(self, other, _method=method, _name=name):
            calls[_name] += 1
            return _method(self, other)

        monkeypatch.setattr(DiffForm, name, counted)
    assert verify_axioms(_darboux4(), SamplePlan(count=0)).passed
    assert calls == {"__mul__": 64 + 2 * 512, "partial_d": 8 + 3 + 16}


# SHA-256 of the sample stream at each arity: the realization checks draw
# single forms, verify_complex_axioms pairs and verify_axioms triples.
SAMPLE_DIGESTS = {
    1: "d5d55c95f2721658b03f8f50678317a3ec57974762e19a4f0abc03b2e4cab04a",
    2: "e9bbac405e1a9bdbdf3287f6399c0b0465bcbee33bacb55e1a2ce309ba64eae0",
    3: "2c551919cdf74137428a7be684628fb049cbe6892b8dc69ca5273881b4094e6c",
}


@pytest.mark.parametrize("arity", sorted(SAMPLE_DIGESTS))
def test_sample_stream_is_pinned(arity):
    """The sampled forms of 20 plans on three charts, as text: a change
    to how a sample is built must draw the same forms."""
    charts = [Chart(("q", "p")), _darboux4().chart,
              build_one_dim(HermitianTriple(1, 0, 1)).chart]
    h = hashlib.sha256()
    for chart in charts:
        for k in range(20):
            plan = SamplePlan(degree=1 + k % 3, count=3, seed=k)
            for sample in _samples(chart, random.Random(plan.seed), plan,
                                   arity):
                for f, p in sample:
                    h.update(f"{p}:{f}\n".encode())
    assert h.hexdigest() == SAMPLE_DIGESTS[arity]


def test_memoized_brackets_equal_fresh_ones():
    st = sphere_structure()
    plan = SamplePlan(count=3, seed=5)
    assert verify_axioms(st, plan).passed
    assert verify_complex_axioms(st, plan).passed
    assert st._brackets
    for (f, g), got in st._brackets.items():
        assert got == PoissonStructure(st.chart, st.P, st.Gamma).bracket(f, g)


def test_equal_arguments_share_one_memo_entry(darboux):
    ch = darboux.chart
    f, f2 = (parse_form("q^2*d[p]", ch) for _ in range(2))
    g, g2 = (parse_form("p*q", ch) for _ in range(2))
    assert f is not f2 and g is not g2
    out = darboux.bracket(f, g)
    assert darboux.bracket(f2, g2) is out
    assert darboux.bracket(f2, g) is out
    assert len(darboux._brackets) == 1
    assert darboux.bracket(g, darboux.bracket(f, g)) is darboux.bracket(
        g2, darboux.bracket(f2, g2))


def test_bad_arguments_are_refused_on_every_call(darboux):
    f = parse_form("q*d[p]", darboux.chart)
    other = DiffForm.coord(Chart(("u", "v")), 0)
    for _ in range(3):
        darboux.bracket(f, f)
        with pytest.raises(TypeError):
            darboux.bracket(f, 1)
        with pytest.raises(TypeError):
            darboux.bracket("q", f)
        with pytest.raises(ValueError):
            darboux.bracket(f, other)
        with pytest.raises(ValueError):
            darboux.bracket(other, f)


def test_short_lived_arguments_never_hit_a_stale_id(darboux):
    """About 1000 temporary forms, each dropped after its bracket.  Were
    the id table not to hold its arguments, CPython would free them and
    give their ids to later forms of other values."""
    ch = darboux.chart
    q, p = RatExpr.variable(ch, 0), RatExpr.variable(ch, 1)
    for k in range(500):
        f = DiffForm.monomial(q * k + p, (k % 2,) if k % 3 else ())
        g = DiffForm.monomial(p * (k % 7) - q * q, () if k % 5 else (0,))
        fresh = PoissonStructure(ch, darboux.P).bracket(f, g)
        assert darboux.bracket(f, g) == fresh


def _replayed_scalar(chart, rng, degree, seen):
    """random_scalar as a sum of one RatExpr per monomial, making the
    same draws.  Adds "zero" to `seen` for a drawn zero coefficient and
    "cancel" for a monomial that cancels an earlier one."""
    n = chart.n
    out = RatExpr.zero(chart)
    drawn = {}
    for _ in range(rng.randint(1, 3)):
        exps = [0] * n
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(n)] += 1
        c = rng.randint(-3, 3)
        if chart.is_complex() and rng.random() < 0.4:
            coeff = GaussianRational(c, rng.randint(-2, 2))
        else:
            coeff = GaussianRational(c)
        e = tuple(exps)
        if not coeff:
            seen.add("zero")
        elif drawn.get(e) and not drawn[e] + coeff:
            seen.add("cancel")
        drawn[e] = drawn.get(e, 0) + coeff
        out = out + RatExpr(chart, Poly.monomial(n, e, coeff))
    return out


def _replayed_form(chart, rng, degree, form_degree, seen):
    """random_form as a sum of DiffForm.monomial terms, same draws."""
    out = DiffForm.zero(chart)
    for _ in range(rng.randint(1, 2)):
        idxs = tuple(sorted(rng.sample(range(chart.n), form_degree)))
        out = out + DiffForm.monomial(
            _replayed_scalar(chart, rng, degree, seen), idxs)
    return out


@pytest.mark.parametrize("chart", [
    _darboux4().chart, build_one_dim(HermitianTriple(1, 0, 1)).chart],
    ids=["real4", "onedim"])
def test_samples_are_built_in_one_pass_as_sums_were(chart):
    seen = set()
    for seed in range(200):
        rng, old = random.Random(seed), random.Random(seed)
        degree, form_degree = 1 + seed % 3, seed % 3
        got = [random_scalar(chart, rng, degree),
               random_form(chart, rng, degree, form_degree)]
        want = [_replayed_scalar(chart, old, degree, seen),
                _replayed_form(chart, old, degree, form_degree, seen)]
        assert got == want
        assert rng.getstate() == old.getstate()
        scalar, form = got
        assert all(form.parts.values())
        for c in [scalar, *form.parts.values()]:
            assert c.den.is_one() and c.num.den == 1
            assert (0, 0) not in c.num.coeffs.values()
    assert seen == {"zero", "cancel"}


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


def test_flat_bracket_differentiates_only_in_bracket_scalars(monkeypatch):
    """With Gamma = 0 every (c, dx^j) vanishes, so the bracket of two
    forms differentiates their coefficients only in its {b, a} terms:
    every diff runs while the generator of those terms is stepped."""
    st = _darboux4()
    ch = st.chart
    inside, calls = [], collections.Counter()
    diff = RatExpr.diff

    def counted_diff(self, which):
        calls["bracket_scalars" if inside else "elsewhere"] += 1
        return diff(self, which)

    scalar_terms = st._scalar_terms

    def watched_terms(f, g, idxs, s):
        terms = scalar_terms(f, g, idxs, s)
        while True:
            inside.append(None)
            try:
                term = next(terms, None)
            finally:
                inside.pop()
            if term is None:
                return
            yield term

    monkeypatch.setattr(RatExpr, "diff", counted_diff)
    st._scalar_terms = watched_terms
    f = parse_form("q1*p2*d[q1]^d[p1]", ch)
    g = parse_form("q2*p1*d[q2]^d[p2] + p1*d[q1]^d[q2]", ch)
    out = st.bracket(f, g)
    assert calls["bracket_scalars"] > 0
    assert calls["elsewhere"] == 0
    assert out == parse_form("(q1*p1 - q2*p2)*d[q1]^d[q2]^d[p1]^d[p2]", ch)
