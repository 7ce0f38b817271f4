"""Graded Poisson brackets on differential forms.

A structure is a chart, an antisymmetric coefficient matrix P acting on
functions, and a connection Gamma.  Three generator tables fix every
bracket, with (c, dx^j) = d_g c (x^g, dx^j) for a function c:

    (x^a, x^b)   = P[a, b]
    (x^a, dx^b)  = -P[a, g] Gamma[b, g, d] dx^d        (summed)
    (dx^a, dx^b) = d (x^a, dx^b)                       (d-Leibniz)

Bilinearity, the graded derivation rule and graded antisymmetry give,
with I<k and I>k the indices of I before and after position k,

  (a dx^I, b dx^J) = -{b, a} dx^I dx^J - a sum_k dx^I<k (b, dx^I_k) dx^I>k dx^J
                     + b sum_l (-1)^(|I| l) dx^J<l (a dx^I, dx^J_l) dx^J>l,
  (a dx^I, dx^j) = s a sum_k (-1)^k dx^I<k (dx^j, dx^I_k) dx^I>k
                   - s (a, dx^j) dx^I,  s = -1 for |I| even, +1 for odd.

`_law_arguments` is the one walk of law arguments, for `verify_axioms`
and `verify_complex_axioms`, and `_realization_arguments` the one walk
of the single forms that the realization checks of `canonical` and
`complexforms` bracket with; this module alone draws samples.
`verify_axioms` builds the wedge g * h of each distinct pair (g, h)
once.  The bracket keeps no derivatives or scalar tables itself: the
table (dx^a, dx^b) is the d that the one-form (x^a, dx^b) keeps, and
{b, a} and (c, dx^j) are never built.  Each of their terms goes to
forms._signed_sum as the unbuilt product P[p, q] d_p b d_q a, or
c' d_g c (x^g, dx^j)_d for the other coefficient c', with the
derivatives that b, a and c keep; a term whose indices repeat is dropped
there before its factors are multiplied.  `bracket_scalars` is the
function part of the same {f, g} terms.

A structure keeps one object per form value at the bracket boundary:
each argument is mapped, by its id, to the one canonical form with its
value, and each computed bracket becomes the canonical form of its
value.  Memo keys then compare by identity, a nested bracket meets its
inner result by identity, and the d that one form keeps serves every
equal form.  An argument is validated the first time it is seen; forms
are immutable, so later calls need no check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from .forms import DiffForm, _signed_sum
from .geometry import Tensor, _as_tensor, _first_failure, coord_signature
from .linalg import _contract
from .polynomials import _raw
from .ratexpr import Chart, RatExpr
from .report import VerificationReport


class PoissonStructure:
    """Bracket data on a chart: P, a Tensor with signature uu, and Gamma, a
    Tensor with signature udd, each given as a Tensor or a nested array;
    Gamma[a, b, c] multiplies dx^c in the bracket with dx^a along
    direction b.  Gamma omitted means zero.  A coefficient is
    differentiated only along the rows and columns P uses and the
    directions g with (x^g, dx^j) nonzero."""

    def __init__(self, chart: Chart, P, Gamma=None):
        P = _as_tensor(chart, coord_signature("uu"), P)
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
        udd = coord_signature("udd")
        self.Gamma = (Tensor._of(chart, udd, {}) if Gamma is None
                      else _as_tensor(chart, udd, Gamma))
        self._xd = None
        self._brackets = {}
        # form -> the canonical form of its value; id(argument) ->
        # (argument, canonical form), holding the argument so that its
        # id is not reused while the structure lives.
        self._by_value = {}
        self._by_id = {}

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
            # (c, dx^j) differentiates c only along these directions g.
            self._xd_cols = [[(g, parts[g][j]) for g in range(n)
                              if parts[g][j]] for j in range(n)]
        return self._xd[a][b]

    def dx_dx(self, a: int, b: int) -> DiffForm:
        """(dx^a, dx^b) as a two-form; forced by the d-Leibniz rule.  The
        one-form (x^a, dx^b) keeps its d, so this is built once."""
        return self.coord_dx(a, b).ext_d()

    def bracket_scalars(self, f: RatExpr, g: RatExpr) -> RatExpr:
        """{f, g} = P[a, b] d_a f d_b g, the function part of the sum of
        the same terms that the bracket of forms sums."""
        terms = self._scalar_terms(f, g, (), 1)
        return _signed_sum(self.chart, terms).scalar_part()

    def _scalar_terms(self, f: RatExpr, g: RatExpr, idxs: tuple, s: int):
        """The terms (idxs, s, (P[a, b], d_a f, d_b g)) of s {f, g} dx^idxs,
        one for each entry of P; g's derivative is read only where f's is
        nonzero."""
        for (a, b), p in self.P.components.items():
            if (fa := f.diff(a)) and (gb := g.diff(b)):
                yield idxs, s, (p, fa, gb)

    # -- full bracket ----------------------------------------------------

    def bracket(self, f: DiffForm, g: DiffForm) -> DiffForm:
        """Bracket of two forms, bilinear over monomial terms.  Each result
        is kept for the life of the structure, keyed by the canonical
        forms of the arguments: forms are immutable and canonical, so
        equal arguments have equal brackets."""
        by_id = self._by_id
        hit = by_id.get(id(f))
        f = self._canonical(f) if hit is None else hit[1]
        hit = by_id.get(id(g))
        g = self._canonical(g) if hit is None else hit[1]
        key = (f, g)
        out = self._brackets.get(key)
        if out is None:
            out = self._canonical(_signed_sum(self.chart, self._expand(f, g)))
            self._brackets[key] = out
        return out

    def _canonical(self, f) -> DiffForm:
        """The canonical form of the value of f, a form not seen by id
        before: validates f and records it in both tables."""
        out = self._by_value.setdefault(self._as_form(f), f)
        self._by_id[id(f)] = (f, out)
        return out

    def _as_form(self, f) -> DiffForm:
        if not isinstance(f, DiffForm):
            raise TypeError(f"cannot bracket {type(f).__name__}")
        if f.chart != self.chart:
            raise ValueError("form lives on a different chart")
        return f

    def _expand(self, f: DiffForm, g: DiffForm):
        """The terms of (a dxI, b dxJ) in the module docstring over the
        monomials of f and g, as (indices, sign, factors) for
        forms._signed_sum, each a product of coefficients, derivatives
        and table entries: P[p, q] d_p b d_q a for {b, a}, and
        a d_g b (x^g, dx^i)_d and b d_g a (x^g, dx^j)_d for (b, dx^i) and
        (a, dx^j)."""
        if self._xd is None:
            self.coord_dx(0, 0)
        cols = self._xd_cols
        for (I, a), (J, b) in product(f.parts.items(), g.parts.items()):
            if not set(I).intersection(J):  # else dx^I dx^J = 0: no {b, a}
                yield from self._scalar_terms(b, a, I + J, -1)
            for k, i in enumerate(I):
                lo, hi = I[:k], I[k + 1:] + J
                for gi, parts in cols[i]:
                    if db := b.diff(gi):
                        for d, v in parts.items():
                            yield lo + d + hi, -1, (a, db, v)
            s = 1 if len(I) % 2 else -1
            for l, j in enumerate(J):
                lo, hi = J[:l], J[l + 1:]
                sl = -s if len(I) * l % 2 else s
                for gj, parts in cols[j]:
                    if da := a.diff(gj):
                        for d, v in parts.items():
                            yield lo + d + I + hi, -sl, (b, da, v)
                for k, i in enumerate(I):
                    for pq, w in self.dx_dx(j, i).parts.items():
                        yield (lo + I[:k] + pq + I[k + 1:] + hi,
                               -sl if k % 2 else sl, (b, a, w))


# -- sampled axiom checks ------------------------------------------------


@dataclass(frozen=True)
class SamplePlan:
    degree: int = 2
    count: int = 25
    seed: int = 0


def random_scalar(chart: Chart, rng: random.Random, degree: int) -> RatExpr:
    """Random polynomial with small integer (or Gaussian integer)
    coefficients: one to three monomials, summed into one Poly of
    Gaussian-integer coefficients (a, b) over denominator 1, with those
    that cancel dropped."""
    n = chart.n
    coeffs = {}
    for _ in range(rng.randint(1, 3)):
        exps = [0] * n
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(n)] += 1
        a = rng.randint(-3, 3)
        b = 0
        if chart.is_complex() and rng.random() < 0.4:
            b = rng.randint(-2, 2)
        e = tuple(exps)
        a0, b0 = coeffs.get(e, (0, 0))
        coeffs[e] = (a0 + a, b0 + b)
    poly = _raw(n, {e: c for e, c in coeffs.items() if c != (0, 0)}, 1)
    return RatExpr._of(chart, poly, chart.unit)


def random_form(chart: Chart, rng: random.Random, degree: int, form_degree: int) -> DiffForm:
    """One or two terms of degree form_degree with random_scalar
    coefficients, summed into one form."""
    parts = {}
    n = chart.n
    for _ in range(rng.randint(1, 2)):
        idxs = tuple(sorted(rng.sample(range(n), form_degree)))
        c = random_scalar(chart, rng, degree)
        parts[idxs] = parts[idxs] + c if idxs in parts else c
    return DiffForm(chart, parts)


def _samples(chart: Chart, rng: random.Random, plan: SamplePlan, arity: int):
    """plan.count tuples of `arity` random (form, degree) pairs, each form
    of degree at most two: the one stream of sampled arguments.  Each
    tuple draws its degrees from rng first, then its forms."""
    top = min(chart.n, 2)
    for _ in range(plan.count):
        degrees = [rng.randint(0, top) for _ in range(arity)]
        yield [(random_form(chart, rng, plan.degree, p), p) for p in degrees]


def _generators(structure: PoissonStructure) -> list:
    """(form, degree, name) for each x^a, then each dx^a."""
    chart = structure.chart
    gens = [(DiffForm.coord(chart, a), 0) for a in range(chart.n)]
    gens += [(DiffForm.d_coord(chart, a), 1) for a in range(chart.n)]
    return [(f, p, str(f)) for f, p in gens]


def _law_arguments(structure: PoissonStructure, plan: SamplePlan,
                   arity: int):
    """(location, ((form, degree), ...)) for every generator pair, every
    generator triple when arity is 3, then each tuple that _samples draws
    at `arity` with plan.seed: its leading pair, then at arity 3 the
    whole triple.  The one walk of arguments for the bracket laws."""
    gens = _generators(structure)
    forms = [(f, p) for f, p, _ in gens]
    names = [name for _, _, name in gens]
    for r in range(2, arity + 1):
        for fs, ns in zip(product(forms, repeat=r), product(names, repeat=r)):
            yield f"generators ({','.join(ns)})", fs
    samples = _samples(structure.chart, random.Random(plan.seed), plan, arity)
    for k, args in enumerate(samples):
        for r in range(2, arity + 1):
            yield f"sample={k}", args[:r]


def _realization_arguments(chart: Chart, plan: SamplePlan, on_forms: bool):
    """(kind, location, w) for the realization checks: each coordinate
    x^a as kind 0, then plan.count sampled functions as kind 1 and, when
    on_forms holds, as many sampled forms as kind 2.  One generator
    seeded with plan.seed draws every sample."""
    for a in range(chart.n):
        x = DiffForm.coord(chart, a)
        yield 0, f"coordinate {x}", x
    rng = random.Random(plan.seed)
    for k in range(plan.count):
        w = DiffForm.from_scalar(random_scalar(chart, rng, plan.degree))
        yield 1, f"sample {k}", w
    if on_forms:
        for k, ((w, _),) in enumerate(_samples(chart, rng, plan, 1)):
            yield 2, f"sample {k}", w


def _leibniz_residual(br, d, f, pf, g, fg):
    """d(f,g) - (d f, g) - (-1)^pf (f, d g) for a derivation d of the
    forms: ext_d, d_holo or d_antiholo."""
    res = d(fg) - br(d(f), g)
    rest = br(f, d(g))
    return res + rest if pf % 2 else res - rest


def _split_pair_checks(rep, structure, f, pf, g, fg, loc, names):
    """The complex-chart laws of one pair with fg = (f,g): the holomorphic
    and antiholomorphic Leibniz rules, hermiticity, and bidegree
    additivity when f and g each have a single bidegree.  `names` gives
    the four check names in that order."""
    br = structure.bracket
    holo, antiholo, hermiticity, bidegree = names
    for name, d in ((holo, DiffForm.d_holo), (antiholo, DiffForm.d_antiholo)):
        rep.add_residual(name, _leibniz_residual(br, d, f, pf, g, fg), loc)

    rep.add_residual(hermiticity, fg.star() - br(g.star(), f.star()), loc)

    bf, bg = f.bidegrees(), g.bidegrees()
    if len(bf) == 1 and len(bg) == 1:
        (pfh, pfa), = bf
        (pgh, pga), = bg
        want = (pfh + pgh, pfa + pga)
        bad = sorted(fg.bidegrees() - {want})
        rep.add(bidegree, not bad, f"bidegrees {bad}" if bad else "0", loc)


def _pair_checks(rep, structure, args, loc):
    (f, pf), (g, pg) = args
    br = structure.bracket
    fg = br(f, g)
    gf = br(g, f)
    rep.add_residual("axiom-antisymmetry",
                     fg - gf if (pf * pg) % 2 else fg + gf, loc)

    bad = sorted(d for d in fg.degrees() if d != pf + pg)
    rep.add("axiom-degree", not bad, f"degrees {bad}" if bad else "0", loc)

    rep.add_residual("axiom-dleibniz",
                     _leibniz_residual(br, DiffForm.ext_d, f, pf, g, fg), loc)

    if structure.chart.is_complex():
        _split_pair_checks(rep, structure, f, pf, g, fg, loc,
                           ("axiom-dleibniz-holo", "axiom-dleibniz-antiholo",
                            "axiom-hermiticity", "axiom-bidegree"))


def _triple_checks(rep, structure, args, gh, loc):
    """Jacobi and the derivation rule on one triple, with gh = g * h."""
    (f, pf), (g, pg), (h, ph) = args
    br = structure.bracket
    jac = br(f, br(g, h))
    t2 = br(g, br(h, f))
    jac = jac - t2 if pf * (pg + ph) % 2 else jac + t2
    t3 = br(h, br(f, g))
    jac = jac - t3 if ph * (pf + pg) % 2 else jac + t3
    rep.add_residual("axiom-jacobi", jac, loc)

    der = br(f, gh) - br(f, g) * h
    rest = g * br(f, h)
    der = der + rest if pf * pg % 2 else der - rest
    rep.add_residual("axiom-derivation", der, loc)


def verify_axioms(structure: PoissonStructure, plan: SamplePlan | None = None) -> VerificationReport:
    """Check the bracket laws exactly on all generator pairs and triples,
    then on sampled random forms.  The wedge g * h of each distinct pair
    is built once, here, and shared by the triples (f, g, h)."""
    rep = VerificationReport()
    wedges = {}
    for loc, args in _law_arguments(structure, plan or SamplePlan(), 3):
        if len(args) == 2:
            _pair_checks(rep, structure, args, loc)
        else:
            _, (g, _), (h, _) = args
            if (g, h) not in wedges:
                wedges[g, h] = g * h
            _triple_checks(rep, structure, args, wedges[g, h], loc)
    return rep
