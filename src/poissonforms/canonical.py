"""Structures built from constant data.

On the preferred chart the coefficient matrix is the quadratic
P^{AB} = (1/2) Rt^{AB}_{CD} F^C F^D + f^{AB}_C F^C + g^{AB} in the
coordinates F^A, the connection is G^A_{BC} = P^{AD} d_B P_{DC}, and the
whole bracket is encoded by the constants (Rt, f, g).  This module
validates the constants, builds the structure and its frame, transforms
constants under affine changes of the coordinates, and finds torsion
zeros.

Storage: Rt[A][B][C][D] is antisymmetric in (A,B) and symmetric in
(C,D); f[A][B][C] is antisymmetric in (A,B); g antisymmetric.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .bracket import PoissonStructure, SamplePlan, random_scalar, random_form
from .forms import DiffForm
from .geometry import _add_first_nonzero, _component, curvature
from .linalg import identity_matrix, invert_matrix, mat_mul, solve
from .ratexpr import Chart, RatExpr
from .report import VerificationReport
from .scalars import GaussianRational


def _zeros(dim, rank):
    if rank == 1:
        return [GaussianRational(0) for _ in range(dim)]
    return [_zeros(dim, rank - 1) for _ in range(dim)]


class CanonicalConstants:
    """Constant data (Rt, f, g); symmetries are reported by
    check_constants, not enforced here."""

    __slots__ = ("dim", "Rt", "f", "g")

    def __init__(self, dim: int, Rt=None, f=None, g=None):
        if dim < 1:
            raise ValueError("dimension must be positive")
        self.dim = dim
        self.Rt = self._dense(Rt, 4)
        self.f = self._dense(f, 3)
        self.g = self._dense(g, 2)

    def _dense(self, data, rank):
        n = self.dim
        if data is None:
            return _zeros(n, rank)

        def conv(d, r):
            if r == 0:
                return GaussianRational.coerce(d)
            if len(d) != n:
                raise ValueError("constant array has wrong shape")
            return [conv(x, r - 1) for x in d]

        return conv(data, rank)

    @staticmethod
    def from_entries(dim: int, rt=(), f=(), g=()) -> "CanonicalConstants":
        """Dense constants from explicit nonzero entries; no symmetry
        completion, every nonzero component must be listed."""
        c = CanonicalConstants(dim)
        for A, B, C, D, v in rt:
            c.Rt[A][B][C][D] = GaussianRational.coerce(v)
        for A, B, C, v in f:
            c.f[A][B][C] = GaussianRational.coerce(v)
        for A, B, v in g:
            c.g[A][B] = GaussianRational.coerce(v)
        return c

    def linear_part_vanishes(self) -> bool:
        return all(v.is_zero() for fA in self.f for fAB in fA for v in fAB)

    def __eq__(self, other):
        if not isinstance(other, CanonicalConstants):
            return NotImplemented
        return (self.dim == other.dim and self.Rt == other.Rt
                and self.f == other.f and self.g == other.g)


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
        """Apply `first`, then self."""
        n = len(self.N)
        N = [[sum((self.N[i][k] * first.N[k][j] for k in range(n)),
                  GaussianRational(0)) for j in range(n)] for i in range(n)]
        V = [sum((self.N[i][k] * first.V[k] for k in range(n)),
                 GaussianRational(0)) + self.V[i] for i in range(n)]
        return CanonicalTransform(N, V)


def _cyc(A, B, C):
    return ((A, B, C), (B, C, A), (C, A, B))


def yang_baxter_defect(c: CanonicalConstants, A, B, C, D, E, F) -> GaussianRational:
    """Component of the commutator sum [Rt12,Rt13]+[Rt12,Rt23]+[Rt13,Rt23]
    acting on a triple tensor product, with (A,B,C) the output indices and
    (D,E,F) the input indices.

    The cubic part of the three-function Jacobi residual for the quadratic
    coefficient matrix is -1/4 of this tensor contracted with the symmetric
    product of the coordinates, so only the (D,E,F)-symmetrized part is
    constrained; the raw tensor may be nonzero on consistent data."""
    Rt = c.Rt
    acc = GaussianRational(0)
    for K in range(c.dim):
        acc = (acc
               + Rt[A][B][K][E] * Rt[K][C][D][F] - Rt[A][C][K][F] * Rt[K][B][D][E]
               + Rt[A][B][D][K] * Rt[K][C][E][F] - Rt[A][K][D][E] * Rt[B][C][K][F]
               + Rt[A][C][D][K] * Rt[B][K][E][F] - Rt[A][K][D][F] * Rt[B][C][E][K])
    return acc


def yang_baxter_symmetrized(c: CanonicalConstants, A, B, C, D, E, F) -> GaussianRational:
    """Coefficient of the cubic monomial built from coordinates (D,E,F) in
    the contracted commutator sum: the defect summed over the distinct
    permutations of (D,E,F).  Vanishing of all components is the exact
    closure condition on Rt."""
    acc = GaussianRational(0)
    for p in set(itertools.permutations((D, E, F))):
        acc = acc + yang_baxter_defect(c, A, B, C, *p)
    return acc


def check_constants(c: CanonicalConstants) -> VerificationReport:
    """Index symmetries, the Yang-Baxter closure for Rt in its symmetrized
    (coefficient) form, and the three lower-degree closure conditions
    coupling Rt, f and g."""
    rep = VerificationReport()
    n = c.dim
    Rt, f, g = c.Rt, c.f, c.g

    bad = next(((law, (A, B, C, D))
                for A, B, C, D in itertools.product(range(n), repeat=4)
                for law, want in (("antisymmetry", -Rt[B][A][C][D]),
                                  ("symmetry", Rt[A][B][D][C]))
                if Rt[A][B][C][D] != want), None)
    rep.add("rt-index-symmetry", bad is None, "0" if bad is None else bad[0],
            "" if bad is None else _component(bad[1]))

    bad = next(((A, B, C) for A in range(n) for B in range(n) for C in range(n)
                if f[A][B][C] != -f[B][A][C]), None)
    rep.add("f-index-symmetry", bad is None,
            "" if bad is None else str(f[bad[0]][bad[1]][bad[2]] + f[bad[1]][bad[0]][bad[2]]),
            "" if bad is None else _component(bad))

    bad = next(((A, B) for A in range(n) for B in range(n)
                if g[A][B] != -g[B][A]), None)
    rep.add("g-index-symmetry", bad is None,
            "" if bad is None else str(g[bad[0]][bad[1]] + g[bad[1]][bad[0]]),
            "" if bad is None else _component(bad))

    zero = GaussianRational(0)

    _add_first_nonzero(rep, "yang-baxter", (
        (ABC + DEF, yang_baxter_symmetrized(c, *ABC, *DEF))
        for ABC in itertools.product(range(n), repeat=3)
        for DEF in itertools.combinations_with_replacement(range(n), 3)))

    def quad(idx):
        A, B, C, D, E = idx
        acc = zero
        for X, Y, Z in _cyc(A, B, C):
            for F in range(n):
                acc = acc + 2 * Rt[X][Y][F][D] * f[Z][F][E] + f[X][Y][F] * Rt[Z][F][D][E]
        return acc

    _add_first_nonzero(rep, "jacobi-quadratic", (
        (i, quad(i)) for i in itertools.product(range(n), repeat=5)))

    def lin(idx):
        A, B, C, D = idx
        acc = zero
        for X, Y, Z in _cyc(A, B, C):
            for E in range(n):
                acc = acc + Rt[X][Y][E][D] * g[Z][E] + f[X][Y][E] * f[Z][E][D]
        return acc

    _add_first_nonzero(rep, "jacobi-linear", (
        (i, lin(i)) for i in itertools.product(range(n), repeat=4)))

    def const(idx):
        A, B, C = idx
        acc = zero
        for X, Y, Z in _cyc(A, B, C):
            for D in range(n):
                acc = acc + f[X][Y][D] * g[Z][D]
        return acc

    _add_first_nonzero(rep, "jacobi-constant", (
        (i, const(i)) for i in itertools.product(range(n), repeat=3)))
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
    """P^{AB} as rational expressions on the chart."""
    n = c.dim
    half = RatExpr.const(chart, Fraction(1, 2))
    phi = [RatExpr.variable(chart, k) for k in range(n)]
    P = []
    for A in range(n):
        row = []
        for B in range(n):
            acc = RatExpr.const(chart, c.g[A][B])
            for C in range(n):
                if not c.f[A][B][C].is_zero():
                    acc = acc + RatExpr.const(chart, c.f[A][B][C]) * phi[C]
                for D in range(n):
                    v = c.Rt[A][B][C][D]
                    if not v.is_zero():
                        acc = acc + half * RatExpr.const(chart, v) * phi[C] * phi[D]
            row.append(acc)
        P.append(row)
    return P


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
    G = [[[RatExpr.zero(chart)] * n for _ in range(n)] for _ in range(n)]
    for A in range(n):
        for B in range(n):
            for C in range(n):
                acc = RatExpr.zero(chart)
                for D in range(n):
                    acc = acc + P[A][D] * Pinv[D][C].diff(B)
                G[A][B][C] = acc
    s = PoissonStructure(chart, P, G)
    phi = [RatExpr.variable(chart, k) for k in range(n)]
    fr = Frame(chart, P, Pinv, phi)
    return s, fr


def frame_curvature(s: PoissonStructure, fr: Frame):
    """Rt[A][B][C][D] of the twisted curvature moved to the frame basis:
    contract with P_{AE} on the up slot and P on the two form slots."""
    Rt = curvature(s, "tilde")
    n = s.chart.n
    P, Pinv = fr.M, fr.Minv
    out = _zeros(n, 4)
    for A in range(n):
        for B in range(n):
            for C in range(n):
                for D in range(n):
                    acc = RatExpr.zero(s.chart)
                    for E in range(n):
                        for F in range(n):
                            for Gi in range(n):
                                term = Pinv[A][E] * P[C][F] * P[D][Gi] * Rt[E, B, F, Gi]
                                acc = acc + term
                    out[A][B][C][D] = acc
    return out


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
    pairs = list(itertools.product(range(n), repeat=2))
    for A, B in pairs:
        want = fr.two_form({(C, D): Rtf[A][B][C][D] for C, D in pairs})
        diff = s.bracket(es[A], es[B]) - want.scale(-half)
        rep.add("frame-bracket-constants", diff.is_zero(), str(diff),
                f"(e_{A},e_{B})")
    return es, rep


def _constants_from_p(P, chart):
    """Read (Rt, f, g) back off a quadratic P matrix."""
    n = chart.n
    origin = [GaussianRational(0)] * n
    Rt = _zeros(n, 4)
    f = _zeros(n, 3)
    g = _zeros(n, 2)
    for A in range(n):
        for B in range(n):
            g[A][B] = P[A][B].eval_at(origin)
            for C in range(n):
                dC = P[A][B].diff(C)
                f[A][B][C] = dC.eval_at(origin)
                for D in range(n):
                    Rt[A][B][C][D] = dC.diff(D).eval_at(origin)
    return CanonicalConstants(n, Rt, f, g)


def transform_constants(c: CanonicalConstants, t: CanonicalTransform) -> CanonicalConstants:
    """Constants after F -> N F + V, read off the substituted P."""
    n = c.dim
    if len(t.N) != n:
        raise ValueError("transform dimension does not match constants")
    chart = canonical_chart(n)
    P = poisson_matrix(c, chart)
    phi = [RatExpr.variable(chart, k) for k in range(n)]
    back = []
    for A in range(n):
        acc = RatExpr.zero(chart)
        for B in range(n):
            acc = acc + RatExpr.const(chart, t.Ninv[A][B]) * (
                phi[B] - RatExpr.const(chart, t.V[B]))
        back.append(acc)
    P2 = [[None] * n for _ in range(n)]
    for A in range(n):
        for B in range(n):
            acc = RatExpr.zero(chart)
            for E in range(n):
                for F in range(n):
                    if P[E][F].is_zero():
                        continue
                    acc = acc + (RatExpr.const(chart, t.N[A][E] * t.N[B][F])
                                 * P[E][F])
            P2[A][B] = acc.subst(back)
    return _constants_from_p(P2, chart)


def _quadratic_constants(s: PoissonStructure):
    """Constants read off P when every entry is a polynomial of degree at
    most two, else None."""
    if any(not v.is_poly() or v.num.total_degree() > 2
           for row in s.P for v in row):
        return None
    return _constants_from_p(s.P, s.chart)


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
        cons.linear_part_vanishes())

    # (xi, dx^a) = -(1/2) M^{aC} f^{AB}_C e_A e_B and
    # d xi = (g^{AB} + (1/2) f^{AB}_C F^C) e_A e_B
    half = RatExpr.const(chart, Fraction(1, 2))
    pairs = list(itertools.product(range(n), repeat=2))
    fe = [fr.two_form({(A, B): cons.f[A][B][C] for A, B in pairs})
          for C in range(n)]
    for a in range(n):
        want = sum((fe[C].scale(-(half * fr.M[a][C])) for C in range(n)),
                   DiffForm.zero(chart))
        diff = s.bracket(xi, DiffForm.d_coord(chart, a)) - want
        rep.add("xi-on-differentials", diff.is_zero(), str(diff),
                f"differential d[{chart.names[a]}]")
    want = sum((fe[C].scale(half * fr.Phi[C]) for C in range(n)),
               fr.two_form({(A, B): cons.g[A][B] for A, B in pairs}))
    diff = xi.ext_d() - want
    rep.add("xi-derivative", diff.is_zero(), str(diff), "")
    return xi, rep


def find_torsion_zero(c: CanonicalConstants):
    """Translation making the linear part vanish: solve
    Rt[A][B][C][D] W^D + f[A][B][C] = 0 for W, then translate the origin
    there.  None when the system has no solution."""
    n = c.dim
    idxs = list(itertools.product(range(n), repeat=3))
    W = solve([c.Rt[A][B][C] for A, B, C in idxs],
              [-c.f[A][B][C] for A, B, C in idxs])
    if W is None:
        return None
    return CanonicalTransform(
        [[1 if i == j else 0 for j in range(n)] for i in range(n)],
        [-w for w in W])

