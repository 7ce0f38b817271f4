"""Graded Poisson brackets on differential forms.

A structure is a chart, an antisymmetric coefficient matrix P acting on
functions, and a connection Gamma fixing the bracket of a coordinate with
a coordinate differential:

    (x^a, x^b)  = P[a, b]
    (x^a, dx^b) = -P[a, g] Gamma[b, g, d] dx^d        (summed)

Every other bracket follows by bilinearity, the graded derivation rule in
the second slot, and graded antisymmetry to flip into the first slot.
Brackets of two differentials come from the exterior derivative, so no
extra data is needed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .forms import DiffForm
from .geometry import Tensor, _contract, coord_signature
from .ratexpr import Chart, RatExpr
from .report import VerificationReport
from .scalars import GaussianRational


def _tensor(chart: Chart, spec: str, T) -> Tensor:
    """T as a coordinate tensor with signature `spec`: a Tensor with that
    signature on the chart, or a nested array read by the Tensor
    constructor."""
    if not isinstance(T, Tensor):
        return Tensor(chart, coord_signature(spec), T)
    if T.chart != chart or T.signature != coord_signature(spec):
        raise ValueError(f"expected a {spec} tensor on the structure's chart")
    return T


def _first_failure(P: Tensor, partner, holds):
    """The first (a, b) in index order where holds(P[a, b],
    P[partner(a, b)]) is false, for an involution `partner` of index
    pairs.  Both laws hold where both entries are zero, so only the
    nonzero entries and their partners are tried."""
    return min((ab for idx in P.components for ab in (idx, partner(*idx))
                if not holds(P[ab], P[partner(*ab)])), default=None)


class PoissonStructure:
    """Bracket data on a chart: P, a Tensor with signature uu, and Gamma, a
    Tensor with signature udd, each given as a Tensor or a nested array;
    Gamma[a, b, c] multiplies dx^c in the bracket with dx^a along
    direction b.  Gamma omitted means zero."""

    def __init__(self, chart: Chart, P, Gamma=None):
        P = _tensor(chart, "uu", P)
        bad = _first_failure(P, lambda a, b: (b, a), lambda v, w: v == -w)
        if bad is not None:
            raise ValueError("P is not antisymmetric at (%d,%d)" % bad)
        if chart.is_complex():
            pr = chart.conj_perm()
            bad = _first_failure(P, lambda a, b: (pr[b], pr[a]),
                                 lambda v, w: v.conj() == w)
            if bad is not None:
                raise ValueError("P is not hermitian at (%d,%d)" % bad)
        self.chart = chart
        self.P = P
        self.Gamma = (Tensor._of(chart, coord_signature("udd"), {})
                      if Gamma is None else _tensor(chart, "udd", Gamma))
        self._xd = None
        self._dd = None
        self._brackets = {}

    @property
    def n(self) -> int:
        return self.chart.n

    # -- generator brackets --------------------------------------------

    def coord_dx(self, a: int, b: int) -> DiffForm:
        """(x^a, dx^b) as a one-form."""
        if self._xd is None:
            chart, n = self.chart, self.n
            parts = [[{} for _ in range(n)] for _ in range(n)]
            for (al, be, d), v in _contract("ag,bgd->abd", self.P.components,
                                            self.Gamma.components).items():
                parts[al][be][(d,)] = -v
            self._xd = [[DiffForm(chart, p) for p in row] for row in parts]
        return self._xd[a][b]

    def dx_dx(self, a: int, b: int) -> DiffForm:
        """(dx^a, dx^b) as a two-form; forced by the d-Leibniz rule."""
        if self._dd is None:
            n = self.n
            self._dd = [[self.coord_dx(a2, b2).ext_d() for b2 in range(n)] for a2 in range(n)]
        return self._dd[a][b]

    def bracket_scalars(self, f: RatExpr, g: RatExpr) -> RatExpr:
        out = RatExpr.zero(self.chart)
        n = self.n
        df = [f.diff(j) for j in range(n)]
        dg = [g.diff(j) for j in range(n)]
        for (a, b), p in self.P.components.items():
            if not (df[a].is_zero() or dg[b].is_zero()):
                out = out + p * df[a] * dg[b]
        return out

    def _fn_dx(self, c: RatExpr, j: int) -> DiffForm:
        """(c, dx^j) for a function c, by the chain rule on coordinates."""
        out = DiffForm.zero(self.chart)
        for g in range(self.n):
            dc = c.diff(g)
            if dc:
                out = out + DiffForm.from_scalar(dc) * self.coord_dx(g, j)
        return out

    # -- full bracket ----------------------------------------------------

    def bracket(self, f: DiffForm, g: DiffForm) -> DiffForm:
        """Bracket of two forms, bilinear over monomial terms.  Each result
        is kept for the life of the structure: forms are immutable and
        canonical, so equal arguments have equal brackets."""
        f = self._as_form(f)
        g = self._as_form(g)
        key = (f, g)
        out = self._brackets.get(key)
        if out is None:
            out = DiffForm.zero(self.chart)
            for idxf, a in f.parts.items():
                for idxg, b in g.parts.items():
                    out = out + self._br_mono(a, idxf, b, idxg)
            self._brackets[key] = out
        return out

    def _as_form(self, f) -> DiffForm:
        if isinstance(f, DiffForm):
            if f.chart != self.chart:
                raise ValueError("form lives on a different chart")
            return f
        if isinstance(f, RatExpr):
            return DiffForm.from_scalar(f)
        if isinstance(f, (int, GaussianRational)):
            return DiffForm.const(self.chart, f)
        raise TypeError(f"cannot bracket {type(f).__name__}")

    def _dx_form(self, idxs: tuple) -> DiffForm:
        return DiffForm(self.chart, {idxs: RatExpr.one(self.chart)}) if idxs else \
            DiffForm.const(self.chart, 1)

    def _br_mono(self, a: RatExpr, I: tuple, b: RatExpr, J: tuple) -> DiffForm:
        """(a dxI, b dxJ): peel the second argument by the derivation rule."""
        if J:
            t1 = self._br_mono_fn(a, I, b) * self._dx_form(J)
            t2 = DiffForm.from_scalar(b) * self._br_form_dxs(a, I, J)
            return t1 + t2
        return self._br_mono_fn(a, I, b)

    def _br_mono_fn(self, a: RatExpr, I: tuple, b: RatExpr) -> DiffForm:
        """(a dxI, b) with b a function: flip, then expand (b, a dxI)."""
        fb = self.bracket_scalars(b, a)
        out = DiffForm.from_scalar(fb) * self._dx_form(I)
        if I:
            out = out + DiffForm.from_scalar(a) * self._br_fn_dxs(b, I)
        return -out

    def _br_fn_dxs(self, b: RatExpr, I: tuple) -> DiffForm:
        """(b, dxI) for a function b, peeling one factor at a time."""
        head = self._fn_dx(b, I[0])
        rest = I[1:]
        out = head * self._dx_form(rest)
        if rest:
            out = out + self._dx_form((I[0],)) * self._br_fn_dxs(b, rest)
        return out

    def _br_form_dxs(self, a: RatExpr, I: tuple, J: tuple) -> DiffForm:
        """(a dxI, dxJ) with J nonempty."""
        j1, rest = J[0], J[1:]
        out = self._br_one_dx(a, I, j1) * self._dx_form(rest)
        if rest:
            sub = self._dx_form((j1,)) * self._br_form_dxs(a, I, rest)
            if len(I) % 2:
                sub = -sub
            out = out + sub
        return out

    def _br_one_dx(self, a: RatExpr, I: tuple, j: int) -> DiffForm:
        """(a dxI, dx^j)."""
        if not I:
            return self._fn_dx(a, j)
        inner = -(self._fn_dx(a, j) * self._dx_form(I))
        inner = inner + DiffForm.from_scalar(a) * self._dx_dxs(j, I)
        if len(I) % 2 == 0:
            inner = -inner
        return inner

    def _dx_dxs(self, j: int, I: tuple) -> DiffForm:
        """(dx^j, dxI) with I nonempty."""
        i1, rest = I[0], I[1:]
        out = self.dx_dx(j, i1) * self._dx_form(rest)
        if rest:
            out = out - self._dx_form((i1,)) * self._dx_dxs(j, rest)
        return out


# -- sampled axiom checks ------------------------------------------------


@dataclass(frozen=True)
class SamplePlan:
    degree: int = 2
    count: int = 25
    seed: int = 0


def random_scalar(chart: Chart, rng: random.Random, degree: int) -> RatExpr:
    """Random polynomial with small integer (or Gaussian integer) coefficients."""
    n = chart.n
    out = RatExpr.zero(chart)
    for _ in range(rng.randint(1, 3)):
        exps = [0] * n
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(n)] += 1
        c = rng.randint(-3, 3)
        if chart.is_complex() and rng.random() < 0.4:
            coeff = GaussianRational(c, rng.randint(-2, 2))
        else:
            coeff = GaussianRational(c)
        term = RatExpr.const(chart, coeff)
        for jv, k in enumerate(exps):
            for _ in range(k):
                term = term * RatExpr.variable(chart, jv)
        out = out + term
    return out


def random_form(chart: Chart, rng: random.Random, degree: int, form_degree: int) -> DiffForm:
    out = DiffForm.zero(chart)
    n = chart.n
    for _ in range(rng.randint(1, 2)):
        idxs = tuple(sorted(rng.sample(range(n), form_degree)))
        out = out + DiffForm.monomial(random_scalar(chart, rng, degree), idxs)
    return out


def _sign(e: int) -> int:
    return -1 if e % 2 else 1


def _generators(structure: PoissonStructure) -> list:
    chart = structure.chart
    gens = []
    for a in range(chart.n):
        gens.append((DiffForm.coord(chart, a), 0, chart.names[a]))
    for a in range(chart.n):
        gens.append((DiffForm.d_coord(chart, a), 1, f"d[{chart.names[a]}]"))
    return gens


def _leibniz_residual(br, d, f, pf, g, fg):
    """d(f,g) - (d f, g) - (-1)^pf (f, d g) for a derivation d of the
    forms: ext_d, d_holo or d_antiholo."""
    res = d(fg) - br(d(f), g)
    rest = br(f, d(g))
    if _sign(pf) < 0:
        rest = -rest
    return res - rest


def _bidegs(chart: Chart, w: DiffForm) -> set:
    return {
        (sum(1 for j in idxs if chart.is_holo(j)),
         sum(1 for j in idxs if not chart.is_holo(j)))
        for idxs in w.parts
    }


def _split_pair_checks(rep, structure, f, pf, g, fg, loc, names):
    """The complex-chart laws of one pair with fg = (f,g): the holomorphic
    and antiholomorphic Leibniz rules, hermiticity, and bidegree
    additivity when f and g each have a single bidegree.  `names` gives
    the four check names in that order."""
    br = structure.bracket
    chart = structure.chart
    holo, antiholo, hermiticity, bidegree = names
    for name, d in ((holo, DiffForm.d_holo), (antiholo, DiffForm.d_antiholo)):
        dl = _leibniz_residual(br, d, f, pf, g, fg)
        rep.add(name, dl.is_zero(), str(dl), loc)

    herm = fg.star() - br(g.star(), f.star())
    rep.add(hermiticity, herm.is_zero(), str(herm), loc)

    bf, bg = _bidegs(chart, f), _bidegs(chart, g)
    if len(bf) == 1 and len(bg) == 1:
        (pfh, pfa), = bf
        (pgh, pga), = bg
        want = (pfh + pgh, pfa + pga)
        bad = sorted(_bidegs(chart, fg) - {want})
        rep.add(bidegree, not bad, f"bidegrees {bad}" if bad else "0", loc)


def _pair_checks(rep, structure, f, pf, g, pg, loc):
    br = structure.bracket
    fg = br(f, g)
    gf = br(g, f)
    anti = fg - gf if (pf * pg) % 2 else fg + gf
    rep.add("axiom-antisymmetry", anti.is_zero(), str(anti), loc)

    bad = sorted(d for d in fg.degrees() if d != pf + pg)
    rep.add("axiom-degree", not bad, f"degrees {bad}" if bad else "0", loc)

    dl = _leibniz_residual(br, DiffForm.ext_d, f, pf, g, fg)
    rep.add("axiom-dleibniz", dl.is_zero(), str(dl), loc)

    if structure.chart.is_complex():
        _split_pair_checks(rep, structure, f, pf, g, fg, loc,
                           ("axiom-dleibniz-holo", "axiom-dleibniz-antiholo",
                            "axiom-hermiticity", "axiom-bidegree"))


def _triple_checks(rep, structure, f, pf, g, pg, h, ph, loc):
    br = structure.bracket
    jac = br(f, br(g, h))
    t2 = br(g, br(h, f))
    if _sign(pf * (pg + ph)) < 0:
        t2 = -t2
    t3 = br(h, br(f, g))
    if _sign(ph * (pf + pg)) < 0:
        t3 = -t3
    jac = jac + t2 + t3
    rep.add("axiom-jacobi", jac.is_zero(), str(jac), loc)

    der = br(f, g * h) - br(f, g) * h
    rest = g * br(f, h)
    if _sign(pf * pg) < 0:
        rest = -rest
    der = der - rest
    rep.add("axiom-derivation", der.is_zero(), str(der), loc)


def verify_axioms(structure: PoissonStructure, plan: SamplePlan | None = None) -> VerificationReport:
    """Check the bracket laws exactly on all generator pairs and triples,
    then on sampled random forms."""
    plan = plan or SamplePlan()
    rng = random.Random(plan.seed)
    rep = VerificationReport()
    chart = structure.chart

    gens = _generators(structure)
    for f, pf, nf in gens:
        for g, pg, ng in gens:
            _pair_checks(rep, structure, f, pf, g, pg, f"generators ({nf},{ng})")
    for f, pf, nf in gens:
        for g, pg, ng in gens:
            for h, ph, nh in gens:
                _triple_checks(rep, structure, f, pf, g, pg, h, ph,
                               f"generators ({nf},{ng},{nh})")

    max_fd = min(chart.n, 2)
    for k in range(plan.count):
        loc = f"sample={k}"
        pf = rng.randint(0, max_fd)
        pg = rng.randint(0, max_fd)
        ph = rng.randint(0, max_fd)
        f = random_form(chart, rng, plan.degree, pf)
        g = random_form(chart, rng, plan.degree, pg)
        h = random_form(chart, rng, plan.degree, ph)
        _pair_checks(rep, structure, f, pf, g, pg, loc)
        _triple_checks(rep, structure, f, pf, g, pg, h, ph, loc)

    return rep
