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

from .bracket import (PoissonStructure, SamplePlan, _law_arguments,
                      _split_pair_checks)
from .canonical import Frame, _check_realizations, _quadratic_constants
from .forms import DiffForm
from .geometry import (Tensor, _read_array, coord_signature,
                       covariant_derivative, off_block_components)
from .linalg import _accumulate, _sum, det_matrix
from .ratexpr import Chart, RatExpr
from .report import VerificationReport, component
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
    support = [set() for _ in range(chart.n)]
    for A, b in fr.Minv.components:
        support[A].add(b)
    for A, sup in enumerate(support):
        if sup and sup <= chart.holo:
            holo.append(A)
        elif sup and not (sup & chart.holo):
            anti.append(A)
        else:
            raise ValueError(f"frame is not block-split at row {A}")
    return tuple(holo), tuple(anti)


def verify_complex_axioms(s: PoissonStructure,
                          plan: SamplePlan | None = None) -> VerificationReport:
    """Check the complex-chart laws: split Leibniz rules for the
    holomorphic and antiholomorphic derivatives, bidegree additivity,
    hermiticity under the graded conjugate, connection block structure,
    and the conjugation and vanishing pattern of the quadratic
    coefficients when P is quadratic."""
    chart = s.chart
    _require_complex(chart)
    rep = VerificationReport()
    n = chart.n

    bad = off_block_components(s)
    for idx, v in bad:
        rep.add("connection-block-diagonal", False, str(v), component(idx))
    if not bad:
        rep.add("connection-block-diagonal", True)

    names = ("delta-leibniz", "deltabar-leibniz", "hermiticity",
             "bidegree-additivity")
    for loc, ((f, pf), (g, _)) in _law_arguments(s, plan or SamplePlan(), 2):
        _split_pair_checks(rep, s, f, pf, g, s.bracket(f, g), loc, names)

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

    # conj(Rt[x]) + Rt[pr(x)]; pr is an involution, so Rt[y] lands on pr(y)
    Rt = cons.Rt
    conj = _accumulate(itertools.chain(
        ((idx, v.conjugate()) for idx, v in Rt.items()),
        ((tuple(pr[j] for j in idx), v) for idx, v in Rt.items())))
    rep.add_first_nonzero("curvature-conjugation", sorted(conj.items()))

    def antiholo(js):
        return sum(1 for j in js if not chart.is_holo(j))

    rep.add_first_nonzero("curvature-vanishing-pattern", sorted(
        (idx, v) for idx, v in Rt.items()
        if antiholo(idx[:2]) != antiholo(idx[2:])))
    return rep


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
    eta = fr.potential_form(holo_rows)
    etabar = fr.potential_form(anti_rows)

    rep = VerificationReport()
    rep.add_residual("eta-bidegree", eta - eta.bidegree_part(1, 0))
    rep.add_residual("etabar-bidegree", etabar - etabar.bidegree_part(0, 1))
    rep.add_residual("eta-conjugation", eta.star() + etabar)

    on_forms = not cons.f
    _check_realizations(rep, s, plan or SamplePlan(), [
        (eta, DiffForm.d_holo, ("eta-on-coordinates", "eta-exterior-sampled",
                                "eta-exterior-forms")),
        (etabar, DiffForm.d_antiholo, ("etabar-on-coordinates",
                                       "etabar-exterior-sampled",
                                       "etabar-exterior-forms"))], on_forms)
    if not on_forms:
        rep.add_not_applicable("eta-exterior-forms")
        rep.add_not_applicable("etabar-exterior-forms")
    return eta, etabar, rep


def _check_central_on_differentials(rep: VerificationReport,
                                    s: PoissonStructure, K: DiffForm) -> None:
    """(K, dx^a) = 0 for every coordinate differential."""
    chart = s.chart
    for a in range(chart.n):
        da = DiffForm.d_coord(chart, a)
        rep.add_residual("kahler-central-forms", s.bracket(K, da),
                         f"differential {da}")


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
    n = chart.n
    rep = VerificationReport()

    if h is None:
        cons = _quadratic_constants(s)
        if cons is None:
            raise ValueError("the default two-form needs a coefficient "
                             "matrix quadratic in the coordinates")
        if cons.f:
            raise ValueError("the default two-form needs a vanishing "
                             "linear part")
        H = {(A, B): v for (A, B), v in cons.g.items()
             if A in holo_rows and B in anti_rows}
        eta = fr.potential_form(holo_rows)
        etabar = fr.potential_form(anti_rows)
        K = eta.d_antiholo()
        rep.add_residual("kahler-from-frame", K - fr.two_form(H))
        rep.add_residual("kahler-alternate", K - etabar.d_holo())

        for name, d, rows in (
                ("delta-eta-frame", eta.d_holo, holo_rows),
                ("deltabar-etabar-frame", etabar.d_antiholo, anti_rows)):
            rep.add_residual(name, d() - fr.two_form(
                {(A, B): v for (A, B), v in cons.g.items()
                 if A in rows and B in rows}))

        unmixed = not any((A in holo_rows) == (B in holo_rows)
                          for A, B in cons.g)
        if unmixed:
            rep.add_residual("eta-closed", eta.d_holo())
            rep.add_residual("etabar-closed", etabar.d_antiholo())
            rep.add_residual("kahler-closed", K.d_holo(), "holomorphic")
            rep.add_residual("kahler-closed", K.d_antiholo(),
                             "antiholomorphic")
        else:
            rep.add_not_applicable("eta-closed")
            rep.add_not_applicable("etabar-closed")
            rep.add_not_applicable("kahler-closed")

        _check_central_on_differentials(rep, s, K)
    else:
        H = _read_array(h, n, 2, GaussianRational.coerce, "frame metric")
        if any(A not in holo_rows or B not in anti_rows for A, B in H):
            raise ValueError("frame metric must pair holomorphic "
                             "rows with antiholomorphic ones")
        block = {(holo_rows.index(A), anti_rows.index(B)): v
                 for (A, B), v in H.items()}
        if (len(holo_rows) != len(anti_rows)
                or det_matrix(block, len(holo_rows)) == 0):
            raise ValueError("degenerate frame metric")
        K = fr.two_form(H)

    rep.add_residual("kahler-bidegree", K - K.bidegree_part(1, 1))
    rep.add_residual("kahler-star", K.star() - K)

    central = "kahler-central-functions"
    _check_realizations(rep, s, plan or SamplePlan(), [
        (K, lambda w: DiffForm.zero(chart), (central, central, None))], False)

    # the lowered metric h_{AB} (Minv^A_a Minv^B_b + Minv^A_b Minv^B_a)
    Minv = fr.Minv.components
    lowered = _sum((1, spec, [H, Minv, Minv])
                   for spec in ("AB,Aa,Bb->ab", "AB,Ab,Ba->ab"))
    T = covariant_derivative(
        Tensor._of(chart, coord_signature("dd"), lowered), s, "gamma")
    bad = next(T.nonzero_components(), None)
    rep.add("metric-covariant-derivative", bad is None,
            "0" if bad is None else str(bad[1]),
            "" if bad is None else "component " + str(bad[0]))
    return K, rep
