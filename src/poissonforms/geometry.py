"""Connection geometry of a Poisson structure.

Torsion, curvature and covariant derivatives for the connection Gamma and
its twist (lower indices swapped), the integrability report, and the
connection determined by a covariantly constant metric.  The laws read a
`bracket.PoissonStructure` s only through s.chart, s.P and s.Gamma.

A structure's P and Gamma, a frame's matrices and a metric are Tensors
holding the dicts of nonzero components described in `linalg`;
Gamma^a_{bc} is keyed (a, b, c) with up index a, direction b and form
index c, as in the bracket module, and a gradient appends the direction
of the derivative as the last index.  Nested arrays are read only at the
boundary, by `_read_array` (the `Tensor` constructor uses it), and
written by `to_strings`.  Every law is a sparse contraction of `linalg`
or a sum of a few.  How a law becomes a check (the first nonzero
component, its location) is `report`'s.
"""

from __future__ import annotations

from .linalg import _contract, _sum, invert_matrix
from .parsing import parse_scalar
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


def _entry(chart: Chart, v) -> RatExpr:
    """One component as an expression on `chart`: an expression on the
    chart itself, a string parsed on it, or a number."""
    if isinstance(v, RatExpr):
        if v.chart != chart:
            raise ValueError("entry lives on a different chart")
        return v
    if isinstance(v, str):
        return parse_scalar(v, chart)
    return RatExpr.const(chart, v)


def _read_array(nested, n: int, rank: int, entry, what: str) -> dict:
    """The nonzero entry(v), keyed by index tuple, of the leaves v of
    `nested`: rank levels of lists or tuples, each of length n.  Raises
    ValueError, naming `what`, on any other shape."""
    level = [((), nested)]
    for _ in range(rank):
        if any(not isinstance(c, (list, tuple)) or len(c) != n
               for _, c in level):
            raise ValueError(f"{what} must have shape {' x '.join('n' * rank)}"
                             f", each axis a list or tuple of length n = {n}")
        level = [(idx + (i,), sub) for idx, c in level
                 for i, sub in enumerate(c)]
    return {idx: v for idx, c in level if not (v := entry(c)).is_zero()}


def _gradient(T: dict, n: int) -> dict:
    """The nonzero derivatives of the entries of T along each of the n
    coordinates, keyed by the entry's index with the coordinate appended."""
    return {idx + (k,): dv for idx, v in T.items() for k in range(n)
            if not (dv := v.diff(k)).is_zero()}


def _signature(signature) -> tuple:
    """A tensor signature as a tuple of (position, kind) pairs, checked."""
    sig = tuple((p, k) for p, k in signature)
    for p, k in sig:
        if p not in ("up", "down") or k not in (COORD, FRAME):
            raise ValueError(f"bad index slot ({p!r},{k!r})")
    return sig


class Tensor:
    """Component array over a chart with an index signature.

    Every slot runs over the chart dimension; signature entries are
    (position, kind) with position "up"/"down" and kind
    "coordinate"/"frame" so transformation rules know what each index is.
    `components` holds the nonzero components as {index tuple: value}.
    """

    __slots__ = ("chart", "signature", "components")

    def __init__(self, chart: Chart, signature, components):
        """`components` nests one level of lists per slot, each as long as
        the chart dimension; entries are expressions, strings or numbers."""
        self.chart, self.signature = chart, _signature(signature)
        self.components = _read_array(
            components, chart.n, self.rank, lambda v: _entry(chart, v),
            "tensor components")

    @staticmethod
    def _of(chart: Chart, signature: tuple, components: dict) -> "Tensor":
        """The tensor with the nonzero components `components`."""
        t = object.__new__(Tensor)
        t.chart, t.signature, t.components = chart, signature, components
        return t

    @property
    def rank(self) -> int:
        return len(self.signature)

    def __getitem__(self, idx):
        """The component at an index tuple, or at an int for rank one;
        IndexError unless there is one index in [0, n) per slot."""
        if isinstance(idx, int):
            idx = (idx,)
        n = self.chart.n
        if len(idx) != self.rank or not all(
                isinstance(i, int) and 0 <= i < n for i in idx):
            raise IndexError(f"index {idx!r} does not address a rank-"
                             f"{self.rank} tensor in dimension {n}")
        v = self.components.get(idx)
        return RatExpr.zero(self.chart) if v is None else v

    def nonzero_components(self):
        """The (index, value) pairs of the nonzero components, in index
        order."""
        return iter(sorted(self.components.items()))

    def is_zero(self) -> bool:
        return not self.components

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return (self.chart == other.chart and self.signature == other.signature
                and self.components == other.components)

    def to_strings(self):
        return self._nested(())

    def _nested(self, prefix):
        if len(prefix) == self.rank:
            return str(self[prefix])
        return [self._nested(prefix + (i,)) for i in range(self.chart.n)]

    def __repr__(self):
        sig = "".join("u" if p == "up" else "d" for p, _ in self.signature)
        kinds = "".join(k[0] for _, k in self.signature)
        return f"Tensor({sig}/{kinds}, {self.to_strings()!r})"


def _as_tensor(chart: Chart, signature: tuple, T) -> Tensor:
    """T as a tensor with `signature` on the chart: a Tensor with that
    signature on the chart, or a nested array read by the Tensor
    constructor."""
    if not isinstance(T, Tensor):
        return Tensor(chart, signature, T)
    if T.chart != chart or T.signature != signature:
        raise ValueError(f"expected a tensor with signature {signature} "
                         "on the chart")
    return T


def _first_failure(T: Tensor, partner, holds):
    """The first (a, b) in index order where holds(T[a, b],
    T[partner(a, b)]) is false, for an involution `partner` of index
    pairs: the one scan of a pairing law on a matrix.  Such laws hold
    where both entries are zero, so only the nonzero entries and their
    partners are tried."""
    return min((ab for idx in T.components for ab in (idx, partner(*idx))
                if not holds(T[ab], T[partner(*ab)])), default=None)


def _connection(s: PoissonStructure, which: str) -> dict:
    """The nonzero entries of Gamma ("gamma") or of its twist ("tilde")."""
    G = s.Gamma.components
    if which == "gamma":
        return G
    if which == "tilde":
        return _contract("acb->abc", G)
    raise ValueError(f"unknown connection {which!r}")


def torsion(s: PoissonStructure) -> Tensor:
    """T^a_{bc} = Gamma^a_{bc} - Gamma^a_{cb}."""
    G = s.Gamma.components
    return Tensor._of(s.chart, coord_signature("udd"), _sum([
        (1, "abc->abc", [G]), (-1, "acb->abc", [G])]))


def curvature(s: PoissonStructure, which: str = "gamma") -> Tensor:
    """R^a_{bcd} with the two-form indices last; antisymmetric in (c,d):
    R^a_{bcd} = d_c G^a_{db} - d_d G^a_{cb} + G^a_{ck} G^k_{db}
    - G^a_{dk} G^k_{cb}."""
    G = _connection(s, which)
    dG = _gradient(G, s.chart.n)
    return Tensor._of(s.chart, coord_signature("uddd"), _sum([
        (1, "adbc->abcd", [dG]), (-1, "acbd->abcd", [dG]),
        (1, "ack,kdb->abcd", [G, G]), (-1, "adk,kcb->abcd", [G, G])]))


def covariant_derivative(U: Tensor, s: PoissonStructure, which: str = "gamma") -> Tensor:
    """New first lower index is the direction; up indices add a Gamma term,
    down indices subtract one."""
    if U.chart != s.chart:
        raise ValueError("tensor lives on a different chart")
    if any(k != COORD for _, k in U.signature):
        raise ValueError("covariant derivative needs coordinate indices")
    G = _connection(s, which)
    # z is the direction, y is summed over, and U's slots are a, b, ...
    u = "abcdefghijklmnopqrstuvwx"[:U.rank]
    out = f"->z{u}"
    terms = [(1, f"{u}z" + out, [_gradient(U.components, s.chart.n)])]
    for slot, (pos, _) in enumerate(U.signature):
        moved = u[:slot] + "y" + u[slot + 1:]
        if pos == "up":
            terms.append((1, f"{u[slot]}zy,{moved}" + out, [G, U.components]))
        else:
            terms.append((-1, f"{moved},yz{u[slot]}" + out, [U.components, G]))
    return Tensor._of(s.chart, (("down", COORD),) + U.signature, _sum(terms))


def off_block_components(s: PoissonStructure) -> list:
    """The nonzero Gamma[a, b, c] that couple a holomorphic index with an
    antiholomorphic one, as ((a, b, c), value) pairs in index order."""
    holo = s.chart.is_holo
    return [(idx, v) for idx, v in s.Gamma.nonzero_components()
            if holo(idx[0]) != holo(idx[2])]


def cyclic_jacobi(s: PoissonStructure) -> Tensor:
    """Sum over cyclic (a,b,c) of P^{ad} d_d P^{bc}; zero iff P is Poisson."""
    P = s.P.components
    dP = _gradient(P, s.chart.n)
    return Tensor._of(s.chart, coord_signature("uuu"), _sum(
        (1, spec, [P, dP]) for spec in ("ad,bcd->abc", "bd,cad->abc",
                                         "cd,abd->abc")))


def check_integrability(s: PoissonStructure) -> VerificationReport:
    """The four conditions for the bracket axioms to close, plus the
    holomorphic block test on complex charts.  With singular P only the
    function-level Jacobi condition applies."""
    rep = VerificationReport()
    chart = s.chart
    rep.add_first_nonzero("jacobi-cyclic",
                          cyclic_jacobi(s).nonzero_components())

    invertible = invert_matrix(s.P.components, chart.n) is not None
    names = ["flatness", "poisson-parallel", "curvature-transport"]
    if chart.is_complex():
        names.append("block-diagonal")
    if not invertible:
        for name in names:
            rep.add_not_applicable(name)
        return rep

    rep.add_first_nonzero("flatness",
                          curvature(s, "gamma").nonzero_components())
    rep.add_first_nonzero("poisson-parallel", covariant_derivative(
        s.P, s, "tilde").nonzero_components())

    # W^{ab}_{kl} = P^{ag} Rt^b_{gkl}, with Rt the twisted curvature
    W = Tensor._of(chart, coord_signature("uudd"), _contract(
        "ag,bgkl->abkl", s.P.components, curvature(s, "tilde").components))
    rep.add_first_nonzero("curvature-transport", covariant_derivative(
        W, s, "gamma").nonzero_components())

    if chart.is_complex():
        rep.add_first_nonzero("block-diagonal", off_block_components(s))
    return rep


class Metric:
    """Symmetric covariant metric h, a Tensor with signature dd, and its
    inverse hinv with signature uu, computed exactly; hinv is None when h
    is singular."""

    __slots__ = ("chart", "h", "hinv")

    def __init__(self, chart: Chart, h):
        """h is a Tensor or a nested array read by the Tensor constructor."""
        h = _as_tensor(chart, coord_signature("dd"), h)
        bad = _first_failure(h, lambda a, b: (b, a), lambda v, w: v == w)
        if bad is not None:
            raise ValueError("h is not symmetric at (%d,%d)" % bad)
        self.chart = chart
        self.h = h
        hinv = invert_matrix(h.components, chart.n)
        self.hinv = (None if hinv is None
                     else Tensor._of(chart, coord_signature("uu"), hinv))


def connection_from_metric(metric: Metric, s: PoissonStructure) -> Tensor:
    """The unique connection keeping the metric and the Poisson matrix
    covariantly constant; needs both invertible."""
    chart = s.chart
    if metric.chart != chart:
        raise ValueError("metric lives on a different chart")
    if metric.hinv is None:
        raise ValueError("metric is singular")
    P = s.P.components
    Pinv = invert_matrix(P, chart.n)
    if Pinv is None:
        raise ValueError("P is singular")
    hi = metric.hinv.components
    dP, dhi = _gradient(P, chart.n), _gradient(hi, chart.n)
    # Gamma^a_{bg} = (1/2) Pinv_{bd} h_{ge} I^{ade}, summed over d and e
    inner = _sum([(1, "ek,adk->ade", [hi, dP]), (1, "ak,dek->ade", [hi, dP]),
                  (-1, "dk,eak->ade", [hi, dP]), (1, "ek,adk->ade", [P, dhi]),
                  (-1, "ak,dek->ade", [P, dhi]), (-1, "dk,eak->ade", [P, dhi])])
    half = RatExpr.const(chart, 1) / RatExpr.const(chart, 2)
    return Tensor._of(chart, coord_signature("udd"), _sum([
        (half, "bd,ge,ade->abg", [Pinv, metric.h.components, inner])]))
