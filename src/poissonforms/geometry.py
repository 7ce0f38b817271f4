"""Connection geometry of a Poisson structure.

Torsion, curvature and covariant derivatives for the connection Gamma and
its twist (lower indices swapped), the integrability report, and the
connection determined by a covariantly constant metric.

Index storage follows the bracket module: Gamma[a][b][c] has up index a,
direction b, form index c; the twisted connection swaps b and c.
"""

from __future__ import annotations

import itertools

from .bracket import PoissonStructure
from .linalg import invert_matrix
from .ratexpr import Chart, RatExpr
from .report import VerificationReport

COORD = "coordinate"
FRAME = "frame"


def coord_signature(spec: str) -> tuple:
    """Signature from a string of u/d letters, all coordinate indices."""
    out = []
    for ch in spec:
        if ch == "u":
            out.append(("up", COORD))
        elif ch == "d":
            out.append(("down", COORD))
        else:
            raise ValueError(f"bad signature letter {ch!r}")
    return tuple(out)


class Tensor:
    """Dense component array over a chart with an index signature.

    Every slot runs over the chart dimension; signature entries are
    (position, kind) with position "up"/"down" and kind
    "coordinate"/"frame" so transformation rules know what each index is.
    """

    __slots__ = ("chart", "signature", "components")

    def __init__(self, chart: Chart, signature, components):
        sig = tuple((p, k) for p, k in signature)
        for p, k in sig:
            if p not in ("up", "down") or k not in (COORD, FRAME):
                raise ValueError(f"bad index slot ({p!r},{k!r})")
        self.chart = chart
        self.signature = sig
        self.components = _freeze(chart, components, len(sig))

    @staticmethod
    def from_fn(chart: Chart, signature, fn) -> "Tensor":
        sig = tuple(signature)
        comp = _build(chart.n, len(sig), (), fn)
        return Tensor(chart, sig, comp)

    @property
    def rank(self) -> int:
        return len(self.signature)

    def __getitem__(self, idx):
        if isinstance(idx, int):
            idx = (idx,)
        c = self.components
        for i in idx:
            c = c[i]
        return c

    def indices(self):
        return itertools.product(range(self.chart.n), repeat=self.rank)

    def nonzero_components(self):
        for idx in self.indices():
            v = self[idx]
            if not v.is_zero():
                yield idx, v

    def is_zero(self) -> bool:
        return next(self.nonzero_components(), None) is None

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return (self.chart == other.chart and self.signature == other.signature
                and self.components == other.components)

    def __sub__(self, other: "Tensor") -> "Tensor":
        if self.chart != other.chart or self.signature != other.signature:
            raise ValueError("tensor mismatch")
        return Tensor.from_fn(self.chart, self.signature,
                              lambda idx: self[idx] - other[idx])

    def to_lists(self):
        def peel(c, depth):
            if depth == 0:
                return c
            return [peel(x, depth - 1) for x in c]
        return peel(self.components, self.rank)

    def to_strings(self):
        def peel(c, depth):
            if depth == 0:
                return str(c)
            return [peel(x, depth - 1) for x in c]
        return peel(self.components, self.rank)

    def __repr__(self):
        sig = "".join("u" if p == "up" else "d" for p, _ in self.signature)
        kinds = "".join(k[0] for _, k in self.signature)
        return f"Tensor({sig}/{kinds}, {self.to_strings()!r})"


def _build(n, rank, prefix, fn):
    if rank == 0:
        return fn(prefix)
    return tuple(_build(n, rank - 1, prefix + (i,), fn) for i in range(n))


def _freeze(chart, comp, rank):
    if rank == 0:
        v = PoissonStructure._entry(chart, comp)
        return v
    if len(comp) != chart.n:
        raise ValueError("component axis has wrong length")
    return tuple(_freeze(chart, c, rank - 1) for c in comp)


def _gamma_array(s: PoissonStructure, which: str):
    if which == "gamma":
        return s.Gamma
    if which == "tilde":
        G = s.Gamma
        n = s.chart.n
        return [[[G[a][c][b] for c in range(n)] for b in range(n)] for a in range(n)]
    raise ValueError(f"unknown connection {which!r}")


def torsion(s: PoissonStructure) -> Tensor:
    """T^a_{bc} = Gamma^a_{bc} - Gamma^a_{cb}."""
    G = s.Gamma
    return Tensor.from_fn(s.chart, coord_signature("udd"),
                          lambda i: G[i[0]][i[1]][i[2]] - G[i[0]][i[2]][i[1]])


def curvature(s: PoissonStructure, which: str = "gamma") -> Tensor:
    """R^a_{bcd} with the two-form indices last; antisymmetric in (c,d)."""
    G = _gamma_array(s, which)
    n = s.chart.n

    def comp(idx):
        a, b, c, d = idx
        val = G[a][d][b].diff(c) - G[a][c][b].diff(d)
        for k in range(n):
            val = val + G[a][c][k] * G[k][d][b] - G[a][d][k] * G[k][c][b]
        return val

    return Tensor.from_fn(s.chart, coord_signature("uddd"), comp)


def covariant_derivative(U: Tensor, s: PoissonStructure, which: str = "gamma") -> Tensor:
    """New first lower index is the direction; up indices add a Gamma term,
    down indices subtract one."""
    if U.chart != s.chart:
        raise ValueError("tensor lives on a different chart")
    if any(k != COORD for _, k in U.signature):
        raise ValueError("covariant derivative needs coordinate indices")
    G = _gamma_array(s, which)
    n = s.chart.n
    sig = (("down", COORD),) + U.signature

    def comp(idx):
        d, rest = idx[0], idx[1:]
        val = U[rest].diff(d)
        for slot, (pos, _) in enumerate(U.signature):
            here = rest[slot]
            for m in range(n):
                other = rest[:slot] + (m,) + rest[slot + 1:]
                if pos == "up":
                    val = val + G[here][d][m] * U[other]
                else:
                    val = val - U[other] * G[m][d][here]
        return val

    return Tensor.from_fn(s.chart, sig, comp)


def poisson_tensor(s: PoissonStructure) -> Tensor:
    return Tensor(s.chart, coord_signature("uu"), s.P)


def _component(idx) -> str:
    return "component (" + ",".join(map(str, idx)) + ")"


def _add_first_nonzero(rep: VerificationReport, name: str, components):
    """Pass, or fail at the first (index, value) pair of `components`
    whose value is nonzero; later pairs are not computed."""
    bad = next(((idx, v) for idx, v in components if not v.is_zero()), None)
    if bad is None:
        rep.add(name, True)
    else:
        rep.add(name, False, str(bad[1]), _component(bad[0]))


def off_block_components(s: PoissonStructure) -> list:
    """The nonzero Gamma[a][b][c] that couple a holomorphic index with an
    antiholomorphic one, as ((a, b, c), value) pairs in index order."""
    holo = s.chart.is_holo
    return [((a, b, c), s.Gamma[a][b][c])
            for a, b, c in itertools.product(range(s.chart.n), repeat=3)
            if holo(a) != holo(c) and not s.Gamma[a][b][c].is_zero()]


def cyclic_jacobi(s: PoissonStructure) -> Tensor:
    """Sum over cyclic (a,b,c) of P^{ad} d_d P^{bc}; zero iff P is Poisson."""
    P = s.P
    n = s.chart.n

    def comp(idx):
        a, b, c = idx
        val = RatExpr.zero(s.chart)
        for d in range(n):
            val = (val + P[a][d] * P[b][c].diff(d)
                   + P[b][d] * P[c][a].diff(d)
                   + P[c][d] * P[a][b].diff(d))
        return val

    return Tensor.from_fn(s.chart, coord_signature("uuu"), comp)


def check_integrability(s: PoissonStructure) -> VerificationReport:
    """The four conditions for the bracket axioms to close, plus the
    holomorphic block test on complex charts.  With singular P only the
    function-level Jacobi condition applies."""
    rep = VerificationReport()
    chart = s.chart
    n = chart.n
    _add_first_nonzero(rep, "jacobi-cyclic",
                       cyclic_jacobi(s).nonzero_components())

    invertible = invert_matrix(s.P) is not None
    names = ["flatness", "poisson-parallel", "curvature-transport"]
    if chart.is_complex():
        names.append("block-diagonal")
    if not invertible:
        for name in names:
            rep.add_not_applicable(name)
        return rep

    _add_first_nonzero(rep, "flatness",
                       curvature(s, "gamma").nonzero_components())
    _add_first_nonzero(rep, "poisson-parallel", covariant_derivative(
        poisson_tensor(s), s, "tilde").nonzero_components())

    Rt = curvature(s, "tilde")
    P = s.P

    def transport(idx):
        a, b, k, l = idx
        val = RatExpr.zero(chart)
        for g in range(n):
            val = val + P[a][g] * Rt[b, g, k, l]
        return val

    W = Tensor.from_fn(chart, coord_signature("uudd"), transport)
    _add_first_nonzero(rep, "curvature-transport",
                       covariant_derivative(W, s, "gamma").nonzero_components())

    if chart.is_complex():
        _add_first_nonzero(rep, "block-diagonal", off_block_components(s))
    return rep


class Metric:
    """Symmetric covariant metric; inverse computed exactly when it exists."""

    __slots__ = ("chart", "h", "hinv")

    def __init__(self, chart: Chart, h):
        n = chart.n
        h = [[PoissonStructure._entry(chart, v) for v in row] for row in h]
        if len(h) != n or any(len(row) != n for row in h):
            raise ValueError("h must be an n x n matrix")
        for a in range(n):
            for b in range(a + 1, n):
                if h[a][b] != h[b][a]:
                    raise ValueError(f"h is not symmetric at ({a},{b})")
        self.chart = chart
        self.h = h
        self.hinv = invert_matrix(h)

    def as_tensor(self) -> Tensor:
        return Tensor(self.chart, coord_signature("dd"), self.h)


def connection_from_metric(metric: Metric, s: PoissonStructure) -> Tensor:
    """The unique connection keeping the metric and the Poisson matrix
    covariantly constant; needs both invertible."""
    chart = s.chart
    if metric.chart != chart:
        raise ValueError("metric lives on a different chart")
    if metric.hinv is None:
        raise ValueError("metric is singular")
    Pinv = invert_matrix(s.P)
    if Pinv is None:
        raise ValueError("P is singular")
    P = s.P
    h = metric.h
    hi = metric.hinv
    n = chart.n
    half = RatExpr.const(chart, 1) / RatExpr.const(chart, 2)

    def comp(idx):
        a, b, g = idx
        total = RatExpr.zero(chart)
        for dl in range(n):
            if Pinv[b][dl].is_zero():
                continue
            for ep in range(n):
                if h[g][ep].is_zero():
                    continue
                inner = RatExpr.zero(chart)
                for k in range(n):
                    inner = (inner
                             + hi[ep][k] * P[a][dl].diff(k)
                             + hi[a][k] * P[dl][ep].diff(k)
                             - hi[dl][k] * P[ep][a].diff(k)
                             + P[ep][k] * hi[a][dl].diff(k)
                             - P[a][k] * hi[dl][ep].diff(k)
                             - P[dl][k] * hi[ep][a].diff(k))
                total = total + Pinv[b][dl] * h[g][ep] * inner
        return half * total

    return Tensor.from_fn(chart, coord_signature("udd"), comp)
