"""Structures built from constant data.

On the preferred chart the coefficient matrix is the quadratic
P^{AB} = (1/2) Rt^{AB}_{CD} F^C F^D + f^{AB}_C F^C + g^{AB} in the
coordinates F^A, the connection is G^A_{BC} = P^{AD} d_B P_{DC}, and the
whole bracket is encoded by the constants (Rt, f, g).  This module
validates the constants, builds the structure and its frame, transforms
constants under affine changes of the coordinates, and finds torsion
zeros.

Storage: Rt, f and g use the tensor storage of the geometry module,
dicts {index tuple: value} holding only the nonzero entries, with Rt
keyed (A,B,C,D), f keyed (A,B,C) and g keyed (A,B).  Rt is antisymmetric
in (A,B) and symmetric in (C,D); f is antisymmetric in (A,B); g
antisymmetric.  Every law over them, and the connection and frame
curvature of the built structure, is a sparse contraction with the
geometry helpers (`_contract`, `_sum`), so its cost follows the number
of nonzero entries, not the dimension.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .bracket import PoissonStructure, SamplePlan, random_scalar, random_form
from .forms import DiffForm
from .geometry import (Tensor, _accumulate, _add_first_nonzero, _component,
                       _contract, _entries, _gradient, _sum, coord_signature,
                       curvature)
from .linalg import identity_matrix, invert_matrix, mat_mul, solve
from .polynomials import Poly
from .ratexpr import Chart, RatExpr
from .report import VerificationReport
from .scalars import GaussianRational, ZERO


def _entry_dict(dim: int, name: str, rank: int, entries) -> dict:
    out = {}
    for e in entries:
        *idx, v = e
        if len(idx) != rank or not all(
                isinstance(i, int) and not isinstance(i, bool) and 0 <= i < dim
                for i in idx):
            raise ValueError(f"{name} entry {tuple(idx)!r} needs {rank} "
                             f"indices, each an index in [0, {dim})")
        out[tuple(idx)] = GaussianRational.coerce(v)
    return {idx: v for idx, v in out.items() if not v.is_zero()}


class CanonicalConstants:
    """Constant data (Rt, f, g) as dicts of nonzero entries (see the
    module docstring); symmetries are reported by check_constants, not
    enforced here.  Built by from_entries."""

    __slots__ = ("dim", "Rt", "f", "g")

    @staticmethod
    def from_entries(dim: int, rt=(), f=(), g=()) -> "CanonicalConstants":
        """Constants from explicit entries (indices..., value) with
        zero-based indices; no symmetry completion, every nonzero
        component must be listed, and a later entry for the same indices
        replaces an earlier one.  Raises ValueError on an entry with the
        wrong number of indices or an index outside [0, dim)."""
        if not isinstance(dim, int) or dim < 1:
            raise ValueError("dimension must be positive")
        c = object.__new__(CanonicalConstants)
        c.dim = dim
        c.Rt = _entry_dict(dim, "Rt", 4, rt)
        c.f = _entry_dict(dim, "f", 3, f)
        c.g = _entry_dict(dim, "g", 2, g)
        return c

    def __eq__(self, other):
        if not isinstance(other, CanonicalConstants):
            return NotImplemented
        return ((self.dim, self.Rt, self.f, self.g)
                == (other.dim, other.Rt, other.f, other.g))


def _gr_matrix(M, n):
    M = [[GaussianRational.coerce(v) for v in row] for row in M]
    if len(M) != n or any(len(row) != n for row in M):
        raise ValueError("matrix has wrong shape")
    return M


class CanonicalTransform:
    """Affine change F -> N F + V with exact scalar entries."""

    __slots__ = ("N", "V", "Ninv")

    def __init__(self, N, V=None):
        n = len(N)
        self.N = _gr_matrix(N, n)
        if V is None:
            V = [0] * n
        self.V = [GaussianRational.coerce(v) for v in V]
        if len(self.V) != n:
            raise ValueError("V has wrong length")
        self.Ninv = invert_matrix(self.N)
        if self.Ninv is None:
            raise ValueError("N is singular")

    @staticmethod
    def identity(dim: int) -> "CanonicalTransform":
        return CanonicalTransform(
            [[1 if i == j else 0 for j in range(dim)] for i in range(dim)])

    def compose(self, first: "CanonicalTransform") -> "CanonicalTransform":
        """Apply `first`, then self: F -> N N' F + N V' + V."""
        NV = mat_mul(self.N, [[v] for v in first.V])
        return CanonicalTransform(mat_mul(self.N, first.N),
                                  [row[0] + v for row, v in zip(NV, self.V)])


def yang_baxter_defect(c: CanonicalConstants, A, B, C, D, E, F) -> GaussianRational:
    """Component of the commutator sum [Rt12,Rt13]+[Rt12,Rt23]+[Rt13,Rt23]
    acting on a triple tensor product, with (A,B,C) the output indices and
    (D,E,F) the input indices.

    The cubic part of the three-function Jacobi residual for the quadratic
    coefficient matrix is -1/4 of this tensor contracted with the symmetric
    product of the coordinates, so only the (D,E,F)-symmetrized part is
    constrained; the raw tensor may be nonzero on consistent data."""
    def Rt(*idx):
        return c.Rt.get(idx, ZERO)

    acc = ZERO
    for K in range(c.dim):
        acc = (acc
               + Rt(A, B, K, E) * Rt(K, C, D, F) - Rt(A, C, K, F) * Rt(K, B, D, E)
               + Rt(A, B, D, K) * Rt(K, C, E, F) - Rt(A, K, D, E) * Rt(B, C, K, F)
               + Rt(A, C, D, K) * Rt(B, K, E, F) - Rt(A, K, D, F) * Rt(B, C, E, K))
    return acc


def yang_baxter_symmetrized(c: CanonicalConstants, A, B, C, D, E, F) -> GaussianRational:
    """Coefficient of the cubic monomial built from coordinates (D,E,F) in
    the contracted commutator sum: the defect summed over the distinct
    permutations of (D,E,F).  Vanishing of all components is the exact
    closure condition on Rt."""
    acc = ZERO
    for p in set(itertools.permutations((D, E, F))):
        acc = acc + yang_baxter_defect(c, A, B, C, *p)
    return acc


# The six terms of yang_baxter_defect, summed over K (the letter k).
_YANG_BAXTER_TERMS = ((1, "abke,kcdf->abcdef"), (-1, "ackf,kbde->abcdef"),
                      (1, "abdk,kcef->abcdef"), (-1, "akde,bckf->abcdef"),
                      (1, "acdk,bkef->abcdef"), (-1, "akdf,bcek->abcdef"))


def check_constants(c: CanonicalConstants) -> VerificationReport:
    """Index symmetries, the Yang-Baxter closure for Rt in its symmetrized
    (coefficient) form, and the three lower-degree closure conditions
    coupling Rt, f and g.  Each law fails at its first nonzero component
    in index order."""
    rep = VerificationReport()
    Rt, f, g = c.Rt, c.f, c.g

    anti = _sum([(1, "abcd->abcd", [Rt]), (1, "bacd->abcd", [Rt])])
    sym = _sum([(1, "abcd->abcd", [Rt]), (-1, "abdc->abcd", [Rt])])
    bad = min(itertools.chain(((i, 0, "antisymmetry") for i in anti),
                              ((i, 1, "symmetry") for i in sym)), default=None)
    rep.add("rt-index-symmetry", bad is None, "0" if bad is None else bad[2],
            "" if bad is None else _component(bad[0]))

    for name, T, specs in (("f-index-symmetry", f, ("abc->abc", "bac->abc")),
                           ("g-index-symmetry", g, ("ab->ab", "ba->ab"))):
        res = _sum((1, spec, [T]) for spec in specs)
        bad = min(res, default=None)
        rep.add(name, bad is None, "" if bad is None else str(res[bad]),
                "" if bad is None else _component(bad))

    def cyclic(*terms):
        """The terms once for each cyclic shift XYZ of the letters abc."""
        return _sum((k, spec.translate(str.maketrans("XYZ", shift)), ops)
                    for shift in ("abc", "bca", "cab") for k, spec, ops in terms)

    # The symmetrized component (A,B,C,D,E,F) with D <= E <= F sums the
    # defect over the distinct permutations of (D,E,F).
    defect = _sum((k, spec, [Rt, Rt]) for k, spec in _YANG_BAXTER_TERMS)
    yb = _accumulate((idx[:3] + tuple(sorted(idx[3:])), v)
                     for idx, v in defect.items())
    for name, law in (
            ("yang-baxter", yb),
            ("jacobi-quadratic", cyclic((2, "XYfd,Zfe->abcde", [Rt, f]),
                                        (1, "XYf,Zfde->abcde", [f, Rt]))),
            ("jacobi-linear", cyclic((1, "XYed,Ze->abcd", [Rt, g]),
                                     (1, "XYe,Zed->abcd", [f, f]))),
            ("jacobi-constant", cyclic((1, "XYd,Zd->abc", [f, g])))):
        _add_first_nonzero(rep, name, sorted(law.items()))
    return rep


DEFAULT_COORD_PREFIX = "u"


def canonical_chart(dim: int, kind: str = "real", pairs=None) -> Chart:
    names = tuple(f"{DEFAULT_COORD_PREFIX}{k + 1}" for k in range(dim))
    if kind == "real":
        return Chart(names)
    return Chart(names, kind=kind, pairs=pairs)


class Frame:
    """Coefficient matrix M^{aA}, its inverse, and the potentials F^A with
    M^{aA} = P^{ab} d_b F^A; on the canonical chart M is P itself."""

    __slots__ = ("chart", "M", "Minv", "Phi")

    def __init__(self, chart: Chart, M, Minv, Phi):
        n = chart.n
        if len(M) != n or len(Minv) != n or len(Phi) != n:
            raise ValueError("frame pieces have wrong shape")
        if mat_mul(M, Minv) != identity_matrix(chart, n):
            raise ValueError("M and Minv are not inverse to each other")
        self.chart = chart
        self.M = M
        self.Minv = Minv
        self.Phi = list(Phi)

    def one_forms(self) -> list:
        """e_A = Minv[A][b] dx^b."""
        es = []
        for A in range(self.chart.n):
            w = DiffForm.zero(self.chart)
            for b in range(self.chart.n):
                w = w + DiffForm.monomial(self.Minv[A][b], (b,))
            es.append(w)
        return es

    def potential_form(self, rows) -> DiffForm:
        """-e_A F^A summed over the frame rows A in `rows`."""
        es = self.one_forms()
        out = DiffForm.zero(self.chart)
        for A in rows:
            out = out - es[A] * DiffForm.from_scalar(self.Phi[A])
        return out

    def two_form(self, coeffs: dict) -> DiffForm:
        """c e_A^e_B summed over the items (A, B): c of `coeffs`, skipping
        zero coefficients; c is a scalar or a rational expression."""
        es = self.one_forms()
        out = DiffForm.zero(self.chart)
        for (A, B), c in coeffs.items():
            if not c.is_zero():
                out = out + (es[A] * es[B]).scale(c)
        return out


def poisson_matrix(c: CanonicalConstants, chart: Chart):
    """P^{AB} as rational expressions on the chart, each polynomial entry
    built from its terms: g^{AB}, f^{AB}_C F^C and (1/2) Rt^{AB}_{CD} F^C F^D."""
    n = c.dim
    half = GaussianRational(Fraction(1, 2))
    terms = [[{} for _ in range(n)] for _ in range(n)]
    for (A, B, *coords), v in itertools.chain(
            c.g.items(), c.f.items(),
            ((idx, half * v) for idx, v in c.Rt.items())):
        exps = tuple(coords.count(k) for k in range(chart.n))
        t = terms[A][B]
        t[exps] = t[exps] + v if exps in t else v
    return [[RatExpr(chart, Poly(chart.n, t)) for t in row] for row in terms]


def build_canonical(c: CanonicalConstants, chart: Chart | None = None):
    """Structure and frame on the canonical chart; the constants must pass
    check_constants and give a generically invertible P."""
    rep = check_constants(c)
    if not rep.passed:
        raise ValueError("constants fail validation: "
                         + ", ".join(ch.name for ch in rep.failures))
    if chart is None:
        chart = canonical_chart(c.dim)
    if chart.n != c.dim:
        raise ValueError("chart dimension does not match constants")
    P = poisson_matrix(c, chart)
    Pinv = invert_matrix(P)
    if Pinv is None:
        raise ValueError("P is identically singular")
    n = c.dim
    G = _contract("ad,dcb->abc", _entries(P, 2), _gradient(_entries(Pinv, 2), n))
    s = PoissonStructure(chart, P, Tensor._of(chart, coord_signature("udd"), G))
    phi = [RatExpr.variable(chart, k) for k in range(n)]
    fr = Frame(chart, P, Pinv, phi)
    return s, fr


def frame_curvature(s: PoissonStructure, fr: Frame) -> dict:
    """The nonzero components {(A, B, C, D): value} of the twisted
    curvature moved to the frame basis: contract with P_{AE} on the up
    slot and P on the two form slots."""
    T = _contract("ebfg,ae->abfg", curvature(s, "tilde").components,
                  _entries(fr.Minv, 2))
    T = _contract("abfg,cf->abcg", T, _entries(fr.M, 2))
    return _contract("abcg,dg->abcd", T, _entries(fr.M, 2))


def e_basis(s: PoissonStructure, fr: Frame):
    """The frame one-forms with the two bracket laws they satisfy:
    brackets with functions vanish and brackets among themselves are
    constant combinations fixed by the twisted curvature."""
    chart = s.chart
    n = chart.n
    es = fr.one_forms()
    rep = VerificationReport()
    for A in range(n):
        for a in range(n):
            got = s.bracket(es[A], DiffForm.coord(chart, a))
            rep.add("frame-kills-functions", got.is_zero(), str(got),
                    f"(e_{A},{chart.names[a]})")
    Rtf = frame_curvature(s, fr)
    half = RatExpr.const(chart, Fraction(1, 2))
    for A, B in itertools.product(range(n), repeat=2):
        want = fr.two_form({(C, D): v for (A2, B2, C, D), v in Rtf.items()
                            if (A2, B2) == (A, B)})
        diff = s.bracket(es[A], es[B]) - want.scale(-half)
        rep.add("frame-bracket-constants", diff.is_zero(), str(diff),
                f"(e_{A},e_{B})")
    return es, rep


def transform_constants(c: CanonicalConstants, t: CanonicalTransform) -> CanonicalConstants:
    """Constants after F -> N F + V.  With W = N^{-1} V the old
    coordinates are N^{-1} F' - W, so
    Rt' = N N Rt N^{-1} N^{-1}, f' = N N (f - Rt W) N^{-1} and
    g' = N N (g - f W + (1/2) Rt W W)."""
    n = c.dim
    if len(t.N) != n:
        raise ValueError("transform dimension does not match constants")
    N, Ninv = _entries(t.N, 2), _entries(t.Ninv, 2)
    W = _contract("gh,h->g", Ninv, _entries(t.V, 1))
    f = _sum([(1, "efg->efg", [c.f]), (-1, "efgh,h->efg", [c.Rt, W])])
    g = _sum([(1, "ef->ef", [c.g]), (-1, "efg,g->ef", [c.f, W]),
              (Fraction(1, 2), "efgh,g,h->ef", [c.Rt, W, W])])
    out = (_contract("efgh,ae,bf,gc,hd->abcd", c.Rt, N, N, Ninv, Ninv),
           _contract("efg,ae,bf,gc->abc", f, N, N, Ninv),
           _contract("ef,ae,bf->ab", g, N, N))
    return CanonicalConstants.from_entries(
        n, *([idx + (v,) for idx, v in T.items()] for T in out))


def _quadratic_constants(s: PoissonStructure):
    """Constants read off the terms of P when every entry is a polynomial
    of degree at most two, else None: a constant term c of P^{AB} is
    g^{AB}, c F^C gives f^{AB}_C, c F^C F^D gives Rt^{AB}_{CD} =
    Rt^{AB}_{DC} = c for C != D and Rt^{AB}_{CC} = 2c."""
    if any(not v.is_poly() or v.num.total_degree() > 2
           for v in s.P.components.values()):
        return None
    n = s.chart.n
    rt, f, g = [], [], []
    for (A, B), p in s.P.nonzero_components():
        for exps, v in p.num.terms.items():
            coords = tuple(C for C in range(n) for _ in range(exps[C]))
            if not coords:
                g.append((A, B, v))
            elif len(coords) == 1:
                f.append((A, B, *coords, v))
            elif coords[0] == coords[1]:
                rt.append((A, B, *coords, 2 * v))
            else:
                rt += [(A, B, *coords, v), (A, B, *coords[::-1], v)]
    return CanonicalConstants.from_entries(n, rt, f, g)


def _check_realizations(rep: VerificationReport, s: PoissonStructure,
                        plan: SamplePlan, cases, on_forms: bool) -> None:
    """Check (omega, w) = D w for each case (omega, D, names): on every
    coordinate, on plan.count sampled functions and, when on_forms holds,
    on as many sampled forms; names holds the check name for each of the
    three.  All cases share each draw, and one generator seeded with
    plan.seed makes every draw."""
    chart = s.chart
    rng = random.Random(plan.seed)

    def check(w, kind, loc):
        for omega, D, names in cases:
            diff = s.bracket(omega, w) - D(w)
            rep.add(names[kind], diff.is_zero(), str(diff), loc)

    for a in range(chart.n):
        check(DiffForm.coord(chart, a), 0, f"coordinate {chart.names[a]}")
    for k in range(plan.count):
        w = DiffForm.from_scalar(random_scalar(chart, rng, plan.degree))
        check(w, 1, f"sample {k}")
    if on_forms:
        for k in range(plan.count):
            deg = rng.randrange(0, min(chart.n, 2) + 1)
            check(random_form(chart, rng, plan.degree, deg), 2, f"sample {k}")


def xi_realization(s: PoissonStructure, fr: Frame, plan: SamplePlan | None = None):
    """The one-form xi = -e_A F^A with its bracket laws: exterior
    derivative on functions always, on all forms exactly when the linear
    part f vanishes, and the closed formulas for (xi,dx^a) and d xi.
    Needs a coefficient matrix quadratic in the coordinates."""
    chart = s.chart
    n = chart.n
    cons = _quadratic_constants(s)
    if cons is None:
        raise ValueError("xi needs a coefficient matrix quadratic in the "
                         "coordinates")
    xi = fr.potential_form(range(n))
    rep = VerificationReport()
    _check_realizations(
        rep, s, plan or SamplePlan(),
        [(xi, DiffForm.ext_d, ("xi-exterior-functions", "xi-exterior-sampled",
                               "xi-exterior-forms"))],
        not cons.f)

    # (xi, dx^a) = -(1/2) M^{aC} f^{AB}_C e_A e_B and
    # d xi = (g^{AB} + (1/2) f^{AB}_C F^C) e_A e_B
    half = RatExpr.const(chart, Fraction(1, 2))
    fe = [fr.two_form({(A, B): v for (A, B, C2), v in cons.f.items()
                       if C2 == C})
          for C in range(n)]
    for a in range(n):
        want = sum((fe[C].scale(-(half * fr.M[a][C])) for C in range(n)),
                   DiffForm.zero(chart))
        diff = s.bracket(xi, DiffForm.d_coord(chart, a)) - want
        rep.add("xi-on-differentials", diff.is_zero(), str(diff),
                f"differential d[{chart.names[a]}]")
    want = sum((fe[C].scale(half * fr.Phi[C]) for C in range(n)),
               fr.two_form(cons.g))
    diff = xi.ext_d() - want
    rep.add("xi-derivative", diff.is_zero(), str(diff), "")
    return xi, rep


def find_torsion_zero(c: CanonicalConstants):
    """Translation making the linear part vanish: solve
    Rt^{AB}_{CD} W^D + f^{AB}_C = 0 for W, then translate the origin
    there.  None when the system has no solution.  Only the equations
    (A,B,C) with a nonzero Rt or f entry are not 0 = 0."""
    n = c.dim
    rows = sorted({idx[:3] for idx in c.Rt} | set(c.f))
    if not rows:
        return CanonicalTransform.identity(n)
    W = solve([[c.Rt.get((A, B, C, D), ZERO) for D in range(n)]
               for A, B, C in rows],
              [-c.f.get(idx, ZERO) for idx in rows])
    if W is None:
        return None
    return CanonicalTransform(
        [[1 if i == j else 0 for j in range(n)] for i in range(n)],
        [-w for w in W])
