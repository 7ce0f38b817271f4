"""Connection geometry of a Poisson structure.

Torsion, curvature and covariant derivatives for the connection Gamma and
its twist (lower indices swapped), the integrability report, and the
connection determined by a covariantly constant metric.  The laws read a
`bracket.PoissonStructure` s only through s.chart, s.P and s.Gamma.

Index storage: a tensor is a dict {index tuple: value} holding only its
nonzero components, and a structure's P and Gamma are Tensors holding
such dicts; Gamma^a_{bc} is keyed (a, b, c) with up index a, direction b
and form index c, as in the bracket module, and a gradient appends the
direction of the derivative as the last index.  Nested arrays of
components are read by the `Tensor` constructor and written by
`to_lists`/`to_strings`.  Every law is a sparse contraction (`_contract`,
an einsum that visits only nonzero entries) or a sum of a few, so its
cost follows the number of nonzero components, not the dimension.  The
package's other sparse laws use the same helpers.
"""

from __future__ import annotations

import itertools

from .linalg import invert_matrix
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


def _accumulate(pairs) -> dict:
    """The nonzero sums of the values of the (index, value) pairs,
    grouped by index."""
    acc = {}
    for idx, v in pairs:
        acc[idx] = acc[idx] + v if idx in acc else v
    return {idx: v for idx, v in acc.items() if not v.is_zero()}


def _contract(spec: str, *tensors) -> dict:
    """Sparse einsum over {index tuple: value} dicts of nonzero entries.

    `spec` names the slots of each operand and of the result, as in
    "abk,kc->abc"; a letter missing from the result is summed over, and a
    letter may appear only once in each operand.  Only combinations of
    nonzero entries that agree on their shared letters are visited.
    Returns the nonzero entries of the result."""
    ins, out = spec.split("->")
    letters = ""
    # (values of `letters`, product of the entries so far) per combination
    partial = [((), None)]
    for sub, T in zip(ins.split(","), tensors):
        shared = [(k, letters.index(ch)) for k, ch in enumerate(sub)
                  if ch in letters]
        new = [k for k, ch in enumerate(sub) if ch not in letters]
        matches = {}
        for idx, v in T.items():
            matches.setdefault(tuple(idx[k] for k, _ in shared),
                               []).append((idx, v))
        partial = [(vals + tuple(idx[k] for k in new),
                    v if prod is None else prod * v)
                   for vals, prod in partial
                   for idx, v in matches.get(
                       tuple(vals[j] for _, j in shared), ())]
        letters += "".join(sub[k] for k in new)
    place = [letters.index(ch) for ch in out]
    return _accumulate((tuple(vals[j] for j in place), prod)
                       for vals, prod in partial)


def _sum(terms) -> dict:
    """The nonzero entries of the sum of k * _contract(spec, *operands)
    over the terms (k, spec, operands)."""
    return _accumulate((idx, k * v)
                       for k, spec, operands in terms
                       for idx, v in _contract(spec, *operands).items())


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


def _entries(nested, rank: int) -> dict:
    """The nonzero entries of a nested array (rank levels of lists) keyed
    by index tuple, in index order."""
    if rank == 0:
        return {} if nested.is_zero() else {(): nested}
    return {(i,) + idx: v for i, sub in enumerate(nested)
            for idx, v in _entries(sub, rank - 1).items()}


def _gradient(T: dict, n: int) -> dict:
    """The nonzero derivatives of the entries of T along each of the n
    coordinates, keyed by the entry's index with the coordinate appended."""
    return {idx + (k,): dv for idx, v in T.items() for k in range(n)
            if not (dv := v.diff(k)).is_zero()}


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
        def at(idx):
            c = components
            for i in idx:
                if len(c) != chart.n:
                    raise ValueError("component axis has wrong length")
                c = c[i]
            return c

        t = Tensor.from_fn(chart, signature, at)
        self.chart, self.signature, self.components = chart, t.signature, t.components

    @staticmethod
    def from_fn(chart: Chart, signature, fn) -> "Tensor":
        """The tensor whose component at each index tuple idx is fn(idx)."""
        sig = tuple((p, k) for p, k in signature)
        for p, k in sig:
            if p not in ("up", "down") or k not in (COORD, FRAME):
                raise ValueError(f"bad index slot ({p!r},{k!r})")
        t = Tensor._of(chart, sig, {})
        for idx in t.indices():
            v = _entry(chart, fn(idx))
            if not v.is_zero():
                t.components[idx] = v
        return t

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

    def indices(self):
        return itertools.product(range(self.chart.n), repeat=self.rank)

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

    def __sub__(self, other: "Tensor") -> "Tensor":
        if self.chart != other.chart or self.signature != other.signature:
            raise ValueError("tensor mismatch")
        return Tensor._of(self.chart, self.signature, _accumulate(
            itertools.chain(self.components.items(),
                            ((idx, -v) for idx, v in other.components.items()))))

    def to_lists(self):
        return self._nested(lambda v: v)

    def to_strings(self):
        return self._nested(str)

    def _nested(self, leaf, prefix=()):
        if len(prefix) == self.rank:
            return leaf(self[prefix])
        return [self._nested(leaf, prefix + (i,)) for i in range(self.chart.n)]

    def __repr__(self):
        sig = "".join("u" if p == "up" else "d" for p, _ in self.signature)
        kinds = "".join(k[0] for _, k in self.signature)
        return f"Tensor({sig}/{kinds}, {self.to_strings()!r})"


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
    _add_first_nonzero(rep, "jacobi-cyclic",
                       cyclic_jacobi(s).nonzero_components())

    invertible = invert_matrix(s.P.to_lists()) is not None
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
        s.P, s, "tilde").nonzero_components())

    # W^{ab}_{kl} = P^{ag} Rt^b_{gkl}, with Rt the twisted curvature
    W = Tensor._of(chart, coord_signature("uudd"), _contract(
        "ag,bgkl->abkl", s.P.components, curvature(s, "tilde").components))
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
        h = [[_entry(chart, v) for v in row] for row in h]
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
    Pinv = invert_matrix(s.P.to_lists())
    if Pinv is None:
        raise ValueError("P is singular")
    P, hi = s.P.components, _entries(metric.hinv, 2)
    dP, dhi = _gradient(P, chart.n), _gradient(hi, chart.n)
    # Gamma^a_{bg} = (1/2) Pinv_{bd} h_{ge} I^{ade}, summed over d and e
    inner = _sum([(1, "ek,adk->ade", [hi, dP]), (1, "ak,dek->ade", [hi, dP]),
                  (-1, "dk,eak->ade", [hi, dP]), (1, "ek,adk->ade", [P, dhi]),
                  (-1, "ak,dek->ade", [P, dhi]), (-1, "dk,eak->ade", [P, dhi])])
    half = RatExpr.const(chart, 1) / RatExpr.const(chart, 2)
    return Tensor._of(chart, coord_signature("udd"), _sum([
        (half, "bd,ge,ade->abg", [_entries(Pinv, 2), _entries(metric.h, 2),
                                  inner])]))
