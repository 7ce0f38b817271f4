"""One complex dimension, completely.

A hermitian triple (a, b, c) with a, c real fixes
P = a z zb + b z + conj(b) zb + c, and P fixes the whole bracket on the
chart (z, zb).  Fractional linear maps act on triples by congruence of
the 2 x 2 hermitian coefficient matrix; the congruence rescales the
determinant ac - |b|^2 by a positive factor, so its sign is an
invariant and classifies the geometry of the conformal metric P^{-2}:
zero for the flat plane, positive for the sphere, negative for the
lobachevskian plane.

Curvature convention: for the metric coefficient h = P^{-2} the
Gaussian curvature is computed as -(1/h) d dbar log h, which comes out
to the constant 2(ac - |b|^2).  Only its sign and constancy carry
geometric meaning; the normalization is a fixed convention of this
module.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bracket import PoissonStructure, SamplePlan
from .canonical import CanonicalConstants, build_canonical, poisson_matrix
from .complexforms import (_check_central_on_differentials, eta_forms,
                           kahler_form)
from .forms import DiffForm
from .geometry import _read_array
from .linalg import _contract
from .ratexpr import Chart, RatExpr
from .scalars import GaussianRational


def _real(v, what: str) -> GaussianRational:
    g = GaussianRational.coerce(v)
    if not g.is_real():
        raise ValueError(f"{what} must be real")
    return g


@dataclass(frozen=True, slots=True)
class HermitianTriple:
    """Coefficients (a, b, c) of P = a z zb + b z + conj(b) zb + c with
    a, c real and b complex."""

    a: GaussianRational
    b: GaussianRational
    c: GaussianRational

    def __post_init__(self):
        object.__setattr__(self, "a", _real(self.a, "a"))
        object.__setattr__(self, "b", GaussianRational.coerce(self.b))
        object.__setattr__(self, "c", _real(self.c, "c"))

    @property
    def det(self) -> GaussianRational:
        """ac - |b|^2, real; its sign is a congruence invariant."""
        return self.a * self.c - self.b * self.b.conjugate()

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero() and self.c.is_zero()

    def __repr__(self):
        return f"HermitianTriple({self.a}, {self.b}, {self.c})"


@dataclass(frozen=True, slots=True)
class MoebiusMap:
    """Invertible fractional linear map z = (alpha z' + beta)/(gamma z' + delta).

    Applying m1 and then m2 to a triple equals applying m1.compose(m2),
    whose matrix is the product of the two coefficient matrices in that
    order."""

    alpha: GaussianRational
    beta: GaussianRational
    gamma: GaussianRational
    delta: GaussianRational

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "delta"):
            object.__setattr__(self, name,
                               GaussianRational.coerce(getattr(self, name)))
        if self.det.is_zero():
            raise ValueError("degenerate map")

    @property
    def det(self) -> GaussianRational:
        return self.alpha * self.delta - self.beta * self.gamma

    @staticmethod
    def identity() -> "MoebiusMap":
        return MoebiusMap(1, 0, 0, 1)

    def compose(self, other: "MoebiusMap") -> "MoebiusMap":
        """Matrix product self * other; see the class docstring for the
        action on triples."""
        return MoebiusMap(
            self.alpha * other.alpha + self.beta * other.gamma,
            self.alpha * other.beta + self.beta * other.delta,
            self.gamma * other.alpha + self.delta * other.gamma,
            self.gamma * other.beta + self.delta * other.delta,
        )

    def __repr__(self):
        return (f"MoebiusMap({self.alpha}, {self.beta}, "
                f"{self.gamma}, {self.delta})")


def one_dim_chart() -> Chart:
    return Chart(("z", "zb"), kind="complex", pairs=(("z", "zb"),))


def triple_constants(t: HermitianTriple) -> CanonicalConstants:
    """Constant data whose quadratic matrix has P^{01} = P."""
    bc = t.b.conjugate()
    return CanonicalConstants.from_entries(
        2,
        rt=[(0, 1, 0, 1, t.a), (0, 1, 1, 0, t.a),
            (1, 0, 0, 1, -t.a), (1, 0, 1, 0, -t.a)],
        f=[(0, 1, 0, t.b), (0, 1, 1, bc),
           (1, 0, 0, -t.b), (1, 0, 1, -bc)],
        g=[(0, 1, t.c), (1, 0, -t.c)])


def _build(t: HermitianTriple):
    if t.is_zero():
        raise ValueError("triple is identically zero")
    return build_canonical(triple_constants(t), one_dim_chart())


def build_one_dim(t: HermitianTriple) -> PoissonStructure:
    """The structure with (z, zb) = P and (z, dz) = (dbar P) dz."""
    s, _ = _build(t)
    return s


def p_scalar(t: HermitianTriple) -> RatExpr:
    """P = a z zb + b z + conj(b) zb + c as a rational expression."""
    return poisson_matrix(triple_constants(t), one_dim_chart())[0, 1]


def moebius(t: HermitianTriple, m: MoebiusMap) -> HermitianTriple:
    """Congruence action on the hermitian coefficient matrix: the matrix
    (a b; conj(b) c) maps to L (a b; conj(b) c) L* with
    L = (alpha gamma; beta delta)."""
    L, T = (_read_array(M, 2, 2, GaussianRational.coerce, "matrix") for M in
            ([[m.alpha, m.gamma], [m.beta, m.delta]],
             [[t.a, t.b], [t.b.conjugate(), t.c]]))
    Lstar = {(j, i): v.conjugate() for (i, j), v in L.items()}
    out = _contract("ab,bc,cd->ad", L, T, Lstar)
    zero = GaussianRational(0)
    return HermitianTriple(*(out.get(idx, zero)
                             for idx in ((0, 0), (0, 1), (1, 1))))


def centering_translation(t: HermitianTriple) -> MoebiusMap:
    """The translation z = z' - conj(b)/a killing the linear part; needs
    a nonzero leading coefficient."""
    if t.a.is_zero():
        raise ValueError("translation needs a nonzero leading coefficient")
    return MoebiusMap(1, -t.b.conjugate() / t.a, 0, 1)


def diagonalize(t: HermitianTriple) -> MoebiusMap:
    """A map whose congruence kills b: a translation when a is nonzero,
    a swap of the two coefficients followed by a translation when only c
    is, and a fixed shear when both vanish."""
    if t.is_zero():
        raise ValueError("triple is identically zero")
    if not t.a.is_zero():
        return centering_translation(t)
    if not t.c.is_zero():
        swap = MoebiusMap(0, 1, 1, 0)
        return swap.compose(centering_translation(moebius(t, swap)))
    return MoebiusMap(1, 1, t.b, -t.b)


def classify(t: HermitianTriple) -> str:
    """Geometry of the metric P^{-2} by the sign of ac - |b|^2."""
    if t.is_zero():
        raise ValueError("triple is identically zero")
    d = t.det
    if d.is_zero():
        return "plane"
    return "sphere" if d.re > 0 else "lobachevskian"


def gaussian_curvature(t: HermitianTriple) -> RatExpr:
    """-(1/h) d dbar log h for h = P^{-2}, evaluated as a rational
    expression; constant and equal to 2(ac - |b|^2)."""
    if t.is_zero():
        raise ValueError("degenerate metric")
    P = p_scalar(t)
    two = RatExpr.const(P.chart, 2)
    return two * (P.diff(0).diff(1) * P - P.diff(0) * P.diff(1))


def eta_kahler(t: HermitianTriple, plan: SamplePlan | None = None):
    """The one-form pair and the central two-form K = P^{-2} dz dzb for
    the triple's structure, with their verification report.

    K is built from the constant frame metric and checked for centrality
    against functions and differentials; when b = 0 the report also
    carries the default-path checks and ties dbar(eta) to c K."""
    s, fr = _build(t)
    chart = s.chart
    eta, etabar, rep = eta_forms(s, fr, plan)
    K, rep2 = kahler_form(s, fr, h=[[0, 0], [-1, 0]], plan=plan)
    rep.extend(rep2)

    P = p_scalar(t)
    want = DiffForm(chart, {(0, 1): RatExpr.one(chart) / (P * P)})
    rep.add_residual("kahler-metric-coefficient", K - want)

    _check_central_on_differentials(rep, s, K)

    if t.b.is_zero():
        Kdef, rep3 = kahler_form(s, fr, plan=plan)
        rep.extend(rep3)
        cK = K.scale(RatExpr.const(chart, t.c))
        rep.add_residual("kahler-eta-derivative", eta.d_antiholo() - cK)
        rep.add_residual("kahler-default-coefficient", Kdef - cK)
    else:
        rep.add_not_applicable("kahler-eta-derivative")
        rep.add_not_applicable("kahler-default-coefficient")
    return eta, etabar, K, rep
