"""Complex-chart layer of the bracket.

Verifies the split-derivative Leibniz rules, holomorphic degree
bookkeeping, conjugation laws and connection block structure; builds the
paired one-forms eta = -e_a F^a (holomorphic frame rows) and
etabar = -e_abar F^abar (antiholomorphic rows) that realize the split
exterior derivatives on functions; and builds the central (1,1)-form
K = deltabar(eta) with constant frame coefficients, or its analogue for
a user-supplied constant hermitian frame metric.
"""

from __future__ import annotations

import itertools
import random

from .bracket import (PoissonStructure, SamplePlan, _generators,
                      _split_pair_checks, random_form, random_scalar)
from .canonical import Frame, _constants_from_p, poisson_matrix
from .forms import DiffForm
from .geometry import (Tensor, coord_signature, covariant_derivative,
                       off_block_components)
from .linalg import det_matrix
from .ratexpr import Chart, RatExpr
from .report import VerificationReport
from .scalars import GaussianRational


def _require_complex(chart: Chart):
    if not chart.is_complex():
        raise ValueError("complex layer needs a complex chart")


def frame_split(chart: Chart, fr: Frame):
    """Frame rows grouped by coordinate support of e_A: rows supported on
    holomorphic coordinates, then rows supported on antiholomorphic ones.
    Raises when any row mixes the two."""
    _require_complex(chart)
    holo, anti = [], []
    for A in range(chart.n):
        sup = {b for b in range(chart.n) if not fr.Minv[A][b].is_zero()}
        if sup and sup <= chart.holo:
            holo.append(A)
        elif sup and not (sup & chart.holo):
            anti.append(A)
        else:
            raise ValueError(f"frame is not block-split at row {A}")
    return tuple(holo), tuple(anti)


def _quadratic_constants(s: PoissonStructure):
    """Constants read off P when P really is quadratic, else None."""
    cons = _constants_from_p(s.P, s.chart)
    P2 = poisson_matrix(cons, s.chart)
    n = s.chart.n
    for a in range(n):
        for b in range(n):
            if s.P[a][b] != P2[a][b]:
                return None
    return cons


def verify_complex_axioms(s: PoissonStructure,
                          plan: SamplePlan | None = None) -> VerificationReport:
    """Check the complex-chart laws: split Leibniz rules for the
    holomorphic and antiholomorphic derivatives, bidegree additivity,
    hermiticity under the graded conjugate, connection block structure,
    and the conjugation and vanishing pattern of the quadratic
    coefficients when P is quadratic."""
    chart = s.chart
    _require_complex(chart)
    plan = plan or SamplePlan()
    rng = random.Random(plan.seed)
    rep = VerificationReport()
    n = chart.n

    bad = off_block_components(s)
    for (a, b, c), v in bad:
        rep.add("connection-block-diagonal", False, str(v),
                f"component ({a},{b},{c})")
    if not bad:
        rep.add("connection-block-diagonal", True)

    def pair(f, pf, g, loc):
        _split_pair_checks(rep, s, f, pf, g, s.bracket(f, g), loc,
                           ("delta-leibniz", "deltabar-leibniz",
                            "hermiticity", "bidegree-additivity"))

    gens = _generators(s)
    for f, pf, nf in gens:
        for g, _, ng in gens:
            pair(f, pf, g, f"generators ({nf},{ng})")
    max_fd = min(n, 2)
    for k in range(plan.count):
        pf = rng.randint(0, max_fd)
        pg = rng.randint(0, max_fd)
        f = random_form(chart, rng, plan.degree, pf)
        g = random_form(chart, rng, plan.degree, pg)
        pair(f, pf, g, f"sample={k}")

    cons = _quadratic_constants(s)
    if cons is None:
        rep.add_not_applicable("potential-conjugation")
        rep.add_not_applicable("curvature-conjugation")
        rep.add_not_applicable("curvature-vanishing-pattern")
        return rep

    pr = chart.conj_perm()
    ok = all(RatExpr.variable(chart, a).conj() == RatExpr.variable(chart, pr[a])
             for a in range(n))
    rep.add("potential-conjugation", ok,
            "0" if ok else "coordinate pairing is not an involution")

    bad = None
    for A, B, C, D in itertools.product(range(n), repeat=4):
        diff = (cons.Rt[A][B][C][D].conjugate()
                + cons.Rt[pr[A]][pr[B]][pr[C]][pr[D]])
        if not diff.is_zero():
            bad = ((A, B, C, D), diff)
            break
    rep.add("curvature-conjugation", bad is None,
            "0" if bad is None else str(bad[1]),
            "" if bad is None else "component (%d,%d,%d,%d)" % bad[0])

    bad = None
    for A, B, C, D in itertools.product(range(n), repeat=4):
        up = sum(1 for j in (A, B) if not chart.is_holo(j))
        down = sum(1 for j in (C, D) if not chart.is_holo(j))
        if up != down and not cons.Rt[A][B][C][D].is_zero():
            bad = ((A, B, C, D), cons.Rt[A][B][C][D])
            break
    rep.add("curvature-vanishing-pattern", bad is None,
            "0" if bad is None else str(bad[1]),
            "" if bad is None else "component (%d,%d,%d,%d)" % bad[0])
    return rep


def _build_etas(chart: Chart, fr: Frame, holo_rows, anti_rows):
    es = fr.one_forms()
    eta = DiffForm.zero(chart)
    for A in holo_rows:
        eta = eta - es[A] * DiffForm.from_scalar(fr.Phi[A])
    etabar = DiffForm.zero(chart)
    for A in anti_rows:
        etabar = etabar - es[A] * DiffForm.from_scalar(fr.Phi[A])
    return eta, etabar


def eta_forms(s: PoissonStructure, fr: Frame, plan: SamplePlan | None = None):
    """The pair of one-forms built from the split frame: eta from the
    holomorphic rows, etabar from the antiholomorphic ones.  The report
    checks their bidegrees, the conjugation law eta* = -etabar, their
    brackets with every coordinate, and that they realize the split
    exterior derivatives: on functions always, on all sampled forms
    exactly when the linear part f vanishes."""
    chart = s.chart
    _require_complex(chart)
    holo_rows, anti_rows = frame_split(chart, fr)
    cons = _quadratic_constants(s)
    if cons is None:
        raise ValueError("eta forms need a coefficient matrix quadratic "
                         "in the coordinates")
    plan = plan or SamplePlan()
    rng = random.Random(plan.seed)
    n = chart.n
    eta, etabar = _build_etas(chart, fr, holo_rows, anti_rows)

    rep = VerificationReport()
    diff = eta - eta.bidegree_part(1, 0)
    rep.add("eta-bidegree", diff.is_zero(), str(diff))
    diff = etabar - etabar.bidegree_part(0, 1)
    rep.add("etabar-bidegree", diff.is_zero(), str(diff))
    diff = eta.star() + etabar
    rep.add("eta-conjugation", diff.is_zero(), str(diff))

    for a in range(n):
        x = DiffForm.coord(chart, a)
        dx = DiffForm.d_coord(chart, a)
        zero = DiffForm.zero(chart)
        diff = s.bracket(eta, x) - (dx if chart.is_holo(a) else zero)
        rep.add("eta-on-coordinates", diff.is_zero(), str(diff),
                f"coordinate {chart.names[a]}")
        diff = s.bracket(etabar, x) - (zero if chart.is_holo(a) else dx)
        rep.add("etabar-on-coordinates", diff.is_zero(), str(diff),
                f"coordinate {chart.names[a]}")

    for k in range(plan.count):
        w = DiffForm.from_scalar(random_scalar(chart, rng, plan.degree))
        diff = s.bracket(eta, w) - w.d_holo()
        rep.add("eta-exterior-sampled", diff.is_zero(), str(diff),
                f"sample {k}")
        diff = s.bracket(etabar, w) - w.d_antiholo()
        rep.add("etabar-exterior-sampled", diff.is_zero(), str(diff),
                f"sample {k}")

    zero_f = all(cons.f[A][B][C].is_zero()
                 for A in range(n) for B in range(n) for C in range(n))
    if zero_f:
        for k in range(plan.count):
            deg = rng.randrange(0, min(n, 2) + 1)
            w = random_form(chart, rng, plan.degree, deg)
            diff = s.bracket(eta, w) - w.d_holo()
            rep.add("eta-exterior-forms", diff.is_zero(), str(diff),
                    f"sample {k}")
            diff = s.bracket(etabar, w) - w.d_antiholo()
            rep.add("etabar-exterior-forms", diff.is_zero(), str(diff),
                    f"sample {k}")
    else:
        rep.add_not_applicable("eta-exterior-forms")
        rep.add_not_applicable("etabar-exterior-forms")
    return eta, etabar, rep


def kahler_form(s: PoissonStructure, fr: Frame, h=None,
                plan: SamplePlan | None = None):
    """The central (1,1)-form with constant frame coefficients.

    With h omitted the coefficients are the constant block g^{ab-bar} of
    the structure and K is computed as deltabar(eta), which requires a
    quadratic P with vanishing linear part; the report then also checks
    the frame expansion of K, its alternate form delta(etabar), the
    frame expansions of delta(eta) and deltabar(etabar), closedness when
    the unmixed g blocks vanish, and centrality against coordinates and
    their differentials.  With h given (constant hermitian coefficients
    pairing the split frame blocks) K is the corresponding combination
    of frame two-forms.  Both paths check the bidegree, the conjugation
    law star(K) = K, and covariant constancy of the lowered metric."""
    chart = s.chart
    _require_complex(chart)
    holo_rows, anti_rows = frame_split(chart, fr)
    plan = plan or SamplePlan()
    rng = random.Random(plan.seed)
    n = chart.n
    es = fr.one_forms()
    zero = GaussianRational(0)
    rep = VerificationReport()

    if h is None:
        cons = _quadratic_constants(s)
        if cons is None:
            raise ValueError("the default two-form needs a coefficient "
                             "matrix quadratic in the coordinates")
        if any(not cons.f[A][B][C].is_zero()
               for A in range(n) for B in range(n) for C in range(n)):
            raise ValueError("the default two-form needs a vanishing "
                             "linear part")
        hmat = [[cons.g[A][B] if A in holo_rows and B in anti_rows else zero
                 for B in range(n)] for A in range(n)]
    else:
        hmat = [[GaussianRational.coerce(v) for v in row] for row in h]
        if len(hmat) != n or any(len(row) != n for row in hmat):
            raise ValueError("frame metric must be an n x n matrix")
        for A in range(n):
            for B in range(n):
                if hmat[A][B].is_zero():
                    continue
                if A not in holo_rows or B not in anti_rows:
                    raise ValueError("frame metric must pair holomorphic "
                                     "rows with antiholomorphic ones")
        block = [[RatExpr.const(chart, hmat[A][B]) for B in anti_rows]
                 for A in holo_rows]
        if len(holo_rows) != len(anti_rows) or det_matrix(block).is_zero():
            raise ValueError("degenerate frame metric")

    frameK = DiffForm.zero(chart)
    for A in holo_rows:
        for B in anti_rows:
            if not hmat[A][B].is_zero():
                frameK = frameK + (es[A] * es[B]).scale(
                    RatExpr.const(chart, hmat[A][B]))

    if h is None:
        eta, etabar = _build_etas(chart, fr, holo_rows, anti_rows)
        K = eta.d_antiholo()
        diff = K - frameK
        rep.add("kahler-from-frame", diff.is_zero(), str(diff))
        diff = K - etabar.d_holo()
        rep.add("kahler-alternate", diff.is_zero(), str(diff))

        want = DiffForm.zero(chart)
        for A in holo_rows:
            for B in holo_rows:
                if not cons.g[A][B].is_zero():
                    want = want + (es[A] * es[B]).scale(
                        RatExpr.const(chart, cons.g[A][B]))
        diff = eta.d_holo() - want
        rep.add("delta-eta-frame", diff.is_zero(), str(diff))
        want = DiffForm.zero(chart)
        for A in anti_rows:
            for B in anti_rows:
                if not cons.g[A][B].is_zero():
                    want = want + (es[A] * es[B]).scale(
                        RatExpr.const(chart, cons.g[A][B]))
        diff = etabar.d_antiholo() - want
        rep.add("deltabar-etabar-frame", diff.is_zero(), str(diff))

        unmixed = all(cons.g[A][B].is_zero()
                      for rows in (holo_rows, anti_rows)
                      for A in rows for B in rows)
        if unmixed:
            rep.add("eta-closed", eta.d_holo().is_zero(), str(eta.d_holo()))
            rep.add("etabar-closed", etabar.d_antiholo().is_zero(),
                    str(etabar.d_antiholo()))
            rep.add("kahler-closed", K.d_holo().is_zero(), str(K.d_holo()),
                    "holomorphic")
            rep.add("kahler-closed", K.d_antiholo().is_zero(),
                    str(K.d_antiholo()), "antiholomorphic")
        else:
            rep.add_not_applicable("eta-closed")
            rep.add_not_applicable("etabar-closed")
            rep.add_not_applicable("kahler-closed")

        for a in range(n):
            diff = s.bracket(K, DiffForm.d_coord(chart, a))
            rep.add("kahler-central-forms", diff.is_zero(), str(diff),
                    f"differential d[{chart.names[a]}]")
    else:
        K = frameK

    diff = K - K.bidegree_part(1, 1)
    rep.add("kahler-bidegree", diff.is_zero(), str(diff))
    diff = K.star() - K
    rep.add("kahler-star", diff.is_zero(), str(diff))

    for a in range(n):
        diff = s.bracket(K, DiffForm.coord(chart, a))
        rep.add("kahler-central-functions", diff.is_zero(), str(diff),
                f"coordinate {chart.names[a]}")
    for k in range(plan.count):
        w = DiffForm.from_scalar(random_scalar(chart, rng, plan.degree))
        diff = s.bracket(K, w)
        rep.add("kahler-central-functions", diff.is_zero(), str(diff),
                f"sample {k}")

    lowered = [[RatExpr.zero(chart) for _ in range(n)] for _ in range(n)]
    for A in holo_rows:
        for B in anti_rows:
            if hmat[A][B].is_zero():
                continue
            c = RatExpr.const(chart, hmat[A][B])
            for al in range(n):
                for be in range(n):
                    term = c * fr.Minv[A][al] * fr.Minv[B][be]
                    lowered[al][be] = lowered[al][be] + term
                    lowered[be][al] = lowered[be][al] + term
    T = covariant_derivative(
        Tensor(chart, coord_signature("dd"), lowered), s, "gamma")
    bad = next(T.nonzero_components(), None)
    rep.add("metric-covariant-derivative", bad is None,
            "0" if bad is None else str(bad[1]),
            "" if bad is None else "component " + str(bad[0]))
    return K, rep
