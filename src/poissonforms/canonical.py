"""Structures built from constant data.

On the preferred chart the coefficient matrix is the quadratic
P^{AB} = (1/2) Rt^{AB}_{CD} F^C F^D + f^{AB}_C F^C + g^{AB} in the
coordinates F^A, the connection is G^A_{BC} = P^{AD} d_B P_{DC}, and the
whole bracket is encoded by the constants (Rt, f, g).  This module
validates the constants, builds the structure and its frame, transforms
constants under affine changes of the coordinates, and finds torsion
zeros.

Storage: everything here uses the index storage of the linalg module,
dicts {index tuple: value} holding only the nonzero entries.
Rt is keyed (A,B,C,D), f (A,B,C) and g (A,B); Rt is antisymmetric in
(A,B) and symmetric in (C,D), f is antisymmetric in (A,B) and g is
antisymmetric.  A transform's N, Ninv and V are such dicts too, and the
built P and the frame matrices are Tensors holding them.  Every law over
them, the inverse of P, and the connection and frame curvature of the
built structure are sparse contractions (`linalg._contract`, `_sum`) or
sparse eliminations, so their cost follows the number of nonzero
entries, not the dimension.  The frame's potential and two-forms are
signed sums of `forms`.  The realization checks of xi (and of the
complex layer's eta forms and central two-form) walk the arguments of
`bracket._realization_arguments`; this module draws no samples.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .bracket import PoissonStructure, SamplePlan, _realization_arguments
from .forms import DiffForm, _signed_sum
from .geometry import (COORD, FRAME, Tensor, _as_tensor, _gradient,
                       _read_array, coord_signature, curvature)
from .linalg import _accumulate, _contract, _sum, invert_matrix, solve
from .polynomials import Poly
from .ratexpr import Chart, RatExpr
from .report import VerificationReport, component
from .scalars import GaussianRational


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


class CanonicalTransform:
    """Affine change F -> N F + V with exact scalar entries, on `dim`
    coordinates; N, its inverse Ninv and V are dicts of nonzero entries
    keyed (A, B) and (A,)."""

    __slots__ = ("dim", "N", "V", "Ninv")

    def __init__(self, N, V=None):
        """N is an n x n nested list and V a list of length n, zero when
        omitted."""
        n = len(N)
        t = CanonicalTransform._of(
            n, _read_array(N, n, 2, GaussianRational.coerce, "N"),
            {} if V is None else _read_array(V, n, 1, GaussianRational.coerce,
                                             "V"))
        self.dim, self.N, self.V, self.Ninv = t.dim, t.N, t.V, t.Ninv

    @staticmethod
    def _of(dim: int, N: dict, V: dict) -> "CanonicalTransform":
        """The transform with the nonzero entries N and V; raises
        ValueError when N is singular."""
        Ninv = invert_matrix(N, dim)
        if Ninv is None:
            raise ValueError("N is singular")
        t = object.__new__(CanonicalTransform)
        t.dim, t.N, t.V, t.Ninv = dim, N, V, Ninv
        return t

    @staticmethod
    def identity(dim: int) -> "CanonicalTransform":
        return CanonicalTransform._of(
            dim, {(i, i): GaussianRational(1) for i in range(dim)}, {})

    def compose(self, first: "CanonicalTransform") -> "CanonicalTransform":
        """Apply `first`, then self: F -> N N' F + N V' + V."""
        if first.dim != self.dim:
            raise ValueError("transform dimensions differ")
        return CanonicalTransform._of(
            self.dim, _contract("ab,bc->ac", self.N, first.N),
            _sum([(1, "ab,b->a", [self.N, first.V]), (1, "a->a", [self.V])]))


# The commutator sum [Rt12,Rt13] + [Rt12,Rt23] + [Rt13,Rt23] acting on a
# triple tensor product, with (a,b,c) the output and (d,e,f) the input
# indices, is the sum of these six products over k.  The cubic part of
# the three-function Jacobi residual of the quadratic P is -1/4 of it
# contracted with F^d F^e F^f, so only its part symmetric in (d,e,f) is
# constrained.
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
            "" if bad is None else component(bad[0]))

    for name, T, specs in (("f-index-symmetry", f, ("abc->abc", "bac->abc")),
                           ("g-index-symmetry", g, ("ab->ab", "ba->ab"))):
        res = _sum((1, spec, [T]) for spec in specs)
        bad = min(res, default=None)
        rep.add(name, bad is None, "" if bad is None else str(res[bad]),
                "" if bad is None else component(bad))

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
        rep.add_first_nonzero(name, sorted(law.items()))
    return rep


def canonical_chart(dim: int) -> Chart:
    return Chart(f"u{k + 1}" for k in range(dim))


# M^{aA} has a coordinate and a frame index, its inverse Minv_{Ab} a
# frame and a coordinate index.
M_SIGNATURE = (("up", COORD), ("up", FRAME))
MINV_SIGNATURE = (("down", FRAME), ("down", COORD))


class Frame:
    """Coefficient matrix M^{aA}, its inverse, and the potentials F^A with
    M^{aA} = P^{ab} d_b F^A; on the canonical chart M is P itself.  M and
    Minv are Tensors with signatures M_SIGNATURE and MINV_SIGNATURE,
    each given as a Tensor or a nested array."""

    __slots__ = ("chart", "M", "Minv", "Phi")

    def __init__(self, chart: Chart, M, Minv, Phi):
        M = _as_tensor(chart, M_SIGNATURE, M)
        Minv = _as_tensor(chart, MINV_SIGNATURE, Minv)
        if len(Phi) != chart.n:
            raise ValueError("frame pieces have wrong shape")
        one = RatExpr.one(chart)
        if (_contract("aB,Bc->ac", M.components, Minv.components)
                != {(a, a): one for a in range(chart.n)}):
            raise ValueError("M and Minv are not inverse to each other")
        self.chart = chart
        self.M = M
        self.Minv = Minv
        self.Phi = list(Phi)

    def one_forms(self) -> list:
        """e_A = Minv[A, b] dx^b."""
        parts = [{} for _ in range(self.chart.n)]
        for (A, b), v in self.Minv.components.items():
            parts[A][(b,)] = v
        return [DiffForm._of(self.chart, p) for p in parts]

    def potential_form(self, rows) -> DiffForm:
        """-e_A F^A summed over the frame rows A in `rows`."""
        es = self.one_forms()
        return _signed_sum(self.chart, (
            (b, -1, (v, self.Phi[A])) for A in rows
            for b, v in es[A].parts.items()))

    def two_form(self, coeffs: dict) -> DiffForm:
        """c e_A^e_B summed over the items (A, B): c of `coeffs`, a dict of
        nonzero scalars or rational expressions."""
        es = self.one_forms()
        return _signed_sum(self.chart, (
            (a + b, 1, (va, vb, c)) for (A, B), c in coeffs.items()
            for a, va in es[A].parts.items() for b, vb in es[B].parts.items()))


def poisson_matrix(c: CanonicalConstants, chart: Chart) -> Tensor:
    """P^{AB} as a Tensor with signature uu on the chart, each polynomial
    entry built from its terms: g^{AB}, f^{AB}_C F^C and
    (1/2) Rt^{AB}_{CD} F^C F^D."""
    half = GaussianRational(Fraction(1, 2))
    terms = {}
    for (A, B, *coords), v in itertools.chain(
            c.g.items(), c.f.items(),
            ((idx, half * v) for idx, v in c.Rt.items())):
        exps = tuple(coords.count(k) for k in range(chart.n))
        t = terms.setdefault((A, B), {})
        t[exps] = t[exps] + v if exps in t else v
    return Tensor._of(chart, coord_signature("uu"), {
        AB: v for AB, t in terms.items()
        if not (v := RatExpr(chart, Poly(chart.n, t))).is_zero()})


def build_canonical(c: CanonicalConstants, chart: Chart | None = None):
    """Structure and frame on the canonical chart; the constants must pass
    check_constants and give a generically invertible P."""
    rep = check_constants(c)
    if not rep.passed:
        raise ValueError("constants fail validation: "
                         + ", ".join(ch.name for ch in rep.failures))
    return _build_checked(c, chart)


def _build_checked(c: CanonicalConstants, chart: Chart | None = None):
    """build_canonical for constants that already passed check_constants."""
    if chart is None:
        chart = canonical_chart(c.dim)
    if chart.n != c.dim:
        raise ValueError("chart dimension does not match constants")
    n = c.dim
    P = poisson_matrix(c, chart)
    Pinv = invert_matrix(P.components, n)
    if Pinv is None:
        raise ValueError("P is identically singular")
    G = _contract("ad,dcb->abc", P.components, _gradient(Pinv, n))
    s = PoissonStructure(chart, P, Tensor._of(chart, coord_signature("udd"), G))
    phi = [RatExpr.variable(chart, k) for k in range(n)]
    fr = Frame(chart, Tensor._of(chart, M_SIGNATURE, P.components),
               Tensor._of(chart, MINV_SIGNATURE, Pinv), phi)
    return s, fr


def frame_curvature(s: PoissonStructure, fr: Frame) -> dict:
    """The nonzero components {(A, B, C, D): value} of the twisted
    curvature moved to the frame basis: contract with P_{AE} on the up
    slot and P on the two form slots."""
    M = fr.M.components
    T = _contract("ebfg,ae->abfg", curvature(s, "tilde").components,
                  fr.Minv.components)
    T = _contract("abfg,cf->abcg", T, M)
    return _contract("abcg,dg->abcd", T, M)


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
            rep.add_residual("frame-kills-functions",
                             s.bracket(es[A], DiffForm.coord(chart, a)),
                             f"(e_{A},{chart.names[a]})")
    Rtf = frame_curvature(s, fr)
    half = RatExpr.const(chart, Fraction(1, 2))
    for A, B in itertools.product(range(n), repeat=2):
        want = fr.two_form({(C, D): v for (A2, B2, C, D), v in Rtf.items()
                            if (A2, B2) == (A, B)})
        rep.add_residual("frame-bracket-constants",
                         s.bracket(es[A], es[B]) - want.scale(-half),
                         f"(e_{A},e_{B})")
    return es, rep


def transform_constants(c: CanonicalConstants, t: CanonicalTransform) -> CanonicalConstants:
    """Constants after F -> N F + V.  With W = N^{-1} V the old
    coordinates are N^{-1} F' - W, so
    Rt' = N N Rt N^{-1} N^{-1}, f' = N N (f - Rt W) N^{-1} and
    g' = N N (g - f W + (1/2) Rt W W)."""
    n = c.dim
    if t.dim != n:
        raise ValueError("transform dimension does not match constants")
    N, Ninv = t.N, t.Ninv
    W = _contract("gh,h->g", Ninv, t.V)
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
    """Check (omega, w) = D w for each case (omega, D, names) on each w
    of `bracket._realization_arguments`; names holds the check name for
    each of its three kinds.  All cases share each w."""
    for kind, loc, w in _realization_arguments(s.chart, plan, on_forms):
        for omega, D, names in cases:
            rep.add_residual(names[kind], s.bracket(omega, w) - D(w), loc)


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
        want = sum((fe[C].scale(-(half * fr.M[a, C])) for C in range(n)),
                   DiffForm.zero(chart))
        da = DiffForm.d_coord(chart, a)
        rep.add_residual("xi-on-differentials", s.bracket(xi, da) - want,
                         f"differential {da}")
    want = sum((fe[C].scale(half * fr.Phi[C]) for C in range(n)),
               fr.two_form(cons.g))
    rep.add_residual("xi-derivative", xi.ext_d() - want)
    return xi, rep


def find_torsion_zero(c: CanonicalConstants):
    """Translation making the linear part vanish: solve
    Rt^{AB}_{CD} W^D + f^{AB}_C = 0, one equation per (A, B, C), for W,
    then translate the origin there.  None when the system has no
    solution."""
    n = c.dim
    W = solve({(idx[:3], idx[3]): v for idx, v in c.Rt.items()},
              {(idx,): -v for idx, v in c.f.items()}, n)
    if W is None:
        return None
    return CanonicalTransform._of(n, CanonicalTransform.identity(n).N,
                                  {idx: -w for idx, w in W.items()})
