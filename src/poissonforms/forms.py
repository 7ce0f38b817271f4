"""Differential forms with exact rational coefficients.

A form is a map from strictly increasing index tuples to coefficients;
the empty tuple holds the function part.  Mixed-degree sums are allowed,
graded operations split them into homogeneous parts.  A sum of terms
c dx^i ^ dx^j ^ ... with indices in any order is one `_signed_sum`: each
index tuple is sorted by `sort_indices`, whose permutation sign is the
wedge sign.  The terms whose factors are all polynomials, each with the
chart's one `unit` as denominator, are multiplied and added on integer
coefficients into one PolySum per sorted index tuple, and each PolySum
is reduced once, at the end: no polynomial or RatExpr is built per term.
Other terms, with rational functions or scalars among their factors,
are RatExpr products and sums.  Sums and wedge products of forms are
such sums too, except where an operand is zero: a sum is then the other
operand (negated for 0 - f) and a wedge product is zero, with no sum
built.  A form keeps its exterior derivative from the first call of
`ext_d` on, in a slot left unset until then; forms are immutable, so
the kept value stays right.
"""

from __future__ import annotations

from .polynomials import PolySum
from .printing import form_str
from .ratexpr import Chart, RatExpr
from .scalars import SCALARS


def sort_indices(idxs: tuple):
    """Sort a tuple of distinct indices; returns (sign, sorted) with the
    permutation sign, or (0, None) on a repeat."""
    if len(idxs) < 2:
        return 1, idxs
    sign = 1
    lst = list(idxs)
    for i in range(1, len(lst)):
        j = i
        # lst[:i] is strictly increasing, so a repeat of lst[i] is met here
        while j and lst[j - 1] >= lst[j]:
            if lst[j - 1] == lst[j]:
                return 0, None
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
    return sign, tuple(lst)


def _signed_sum(chart: Chart, terms) -> "DiffForm":
    """The form summing s * f1 * f2 * ... dx^idxs[0] ^ dx^idxs[1] ^ ...
    over the terms (idxs, s, (f1, f2, ...)) with s = 1 or -1; a term with
    a repeated index is zero, and its factors are not multiplied.  A term
    whose factors are all polynomials is multiplied and added on integer
    coefficients into one PolySum per sorted index tuple, reduced once at
    the end; any other term is a RatExpr product added to a RatExpr sum.
    A polynomial is told by `f.den is unit`, inlined from `is_poly`:
    RatExpr._of stores every denominator equal to 1 as chart.unit."""
    unit = chart.unit
    polys = {}
    sums = {}
    for idxs, s, factors in terms:
        sign, key = sort_indices(idxs) if len(idxs) > 1 else (1, idxs)
        if not sign:
            continue
        nums = []
        for f in factors:
            if f.__class__ is not RatExpr or f.den is not unit:
                break
            nums.append(f.num)
        else:
            acc = polys.get(key)
            if acc is None:
                polys[key] = acc = PolySum(chart.n)
            acc.add_product(nums, sign * s)
            continue
        c = factors[0]
        for m in factors[1:]:
            c = c * m
        if sign != s:
            c = -c
        sums[key] = sums[key] + c if key in sums else c
    for key, acc in polys.items():
        c = RatExpr._of(chart, acc.value(), unit)
        sums[key] = sums[key] + c if key in sums else c
    return DiffForm._of(chart, {key: c for key, c in sums.items() if c})


class DiffForm:
    __slots__ = ("chart", "parts", "_hash", "_d")

    def __init__(self, chart: Chart, parts: dict | None = None):
        pruned = {}
        if parts:
            for idxs, c in parts.items():
                if c:
                    pruned[idxs] = c
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "parts", pruned)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("DiffForm is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def _of(chart: Chart, parts: dict) -> "DiffForm":
        """The form with `parts`, which hold no zero: taken as is."""
        out = object.__new__(DiffForm)
        object.__setattr__(out, "chart", chart)
        object.__setattr__(out, "parts", parts)
        object.__setattr__(out, "_hash", None)
        return out

    @staticmethod
    def zero(chart: Chart) -> "DiffForm":
        return DiffForm._of(chart, {})

    @staticmethod
    def from_scalar(f: RatExpr) -> "DiffForm":
        return DiffForm(f.chart, {(): f})

    @staticmethod
    def const(chart: Chart, c) -> "DiffForm":
        return DiffForm(chart, {(): RatExpr.const(chart, c)})

    @staticmethod
    def coord(chart: Chart, which) -> "DiffForm":
        return DiffForm.from_scalar(RatExpr.variable(chart, which))

    @staticmethod
    def d_coord(chart: Chart, which) -> "DiffForm":
        idx = chart.index(which) if isinstance(which, str) else which
        return DiffForm._of(chart, {(idx,): RatExpr.one(chart)})

    @staticmethod
    def monomial(coeff: RatExpr, idxs: tuple) -> "DiffForm":
        sign, sorted_idxs = sort_indices(tuple(idxs))
        if sign == 0 or not coeff:
            return DiffForm.zero(coeff.chart)
        c = coeff if sign == 1 else -coeff
        return DiffForm._of(coeff.chart, {sorted_idxs: c})

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.parts

    def __bool__(self) -> bool:
        return bool(self.parts)

    def degrees(self) -> set:
        return {len(k) for k in self.parts}

    def degree(self) -> int:
        ds = self.degrees()
        if not ds:
            return 0
        if len(ds) > 1:
            raise ValueError("form has mixed degree")
        return ds.pop()

    def homogeneous_part(self, k: int) -> "DiffForm":
        return DiffForm._of(self.chart, {i: c for i, c in self.parts.items()
                                         if len(i) == k})

    def scalar_part(self) -> RatExpr:
        return self.parts.get((), RatExpr.zero(self.chart))

    def coeff(self, idxs: tuple) -> RatExpr:
        """Signed coefficient for an arbitrary tuple of distinct indices."""
        sign, sorted_idxs = sort_indices(tuple(idxs))
        if sign == 0:
            return RatExpr.zero(self.chart)
        c = self.parts.get(sorted_idxs)
        if c is None:
            return RatExpr.zero(self.chart)
        return c if sign == 1 else -c

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, DiffForm):
            if other.chart != self.chart:
                raise ValueError("forms live on different charts")
            return other
        if isinstance(other, RatExpr):
            return DiffForm.from_scalar(other)
        if isinstance(other, SCALARS):
            return DiffForm.const(self.chart, other)
        return None

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return DiffForm._of(self.chart, {i: -c for i, c in self.parts.items()})

    def __sub__(self, other):
        return self._plus(other, -1)

    def _plus(self, other, s: int):
        """self + s * other for s = 1 or -1; a zero operand gives the
        other one back."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.parts:
            return self
        if not self.parts:
            return o if s == 1 else -o
        return _signed_sum(self.chart, ((idxs, k, (c,)) for f, k in ((self, 1), (o, s))
                                        for idxs, c in f.parts.items()))

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        """Wedge product; 0-forms act as scalar multipliers."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.parts:
            return self
        if not o.parts:
            return o
        return _signed_sum(self.chart, ((ia + ib, 1, (ca, cb))
                                        for ia, ca in self.parts.items()
                                        for ib, cb in o.parts.items()))

    def __rmul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self

    def scale(self, c) -> "DiffForm":
        o = self._coerce(c)
        if o is None:
            raise TypeError(f"cannot scale a form by {c!r}, a {type(c).__name__}")
        return o * self

    # -- calculus -----------------------------------------------------

    def partial_d(self, indices) -> "DiffForm":
        indices = tuple(indices)
        return _signed_sum(self.chart, (
            ((g,) + idxs, 1, (dc,)) for idxs, c in self.parts.items()
            for g in indices if g not in idxs and (dc := c.diff(g))))

    def ext_d(self) -> "DiffForm":
        """d of the form, computed once and kept in the slot _d."""
        out = getattr(self, "_d", None)
        if out is None:
            out = self.partial_d(range(self.chart.n))
            object.__setattr__(self, "_d", out)
        return out

    def d_holo(self) -> "DiffForm":
        if not self.chart.is_complex():
            raise ValueError("holomorphic derivative needs a complex chart")
        return self.partial_d(sorted(self.chart.holo))

    def d_antiholo(self) -> "DiffForm":
        if not self.chart.is_complex():
            raise ValueError("antiholomorphic derivative needs a complex chart")
        holo = self.chart.holo
        return self.partial_d(j for j in range(self.chart.n) if j not in holo)

    def star(self) -> "DiffForm":
        """Graded conjugate: conjugate coefficients, swap paired indices,
        reverse factor order."""
        if not self.chart.is_complex():
            raise ValueError("star needs a complex chart")
        perm = self.chart.conj_perm()
        return _signed_sum(self.chart, (
            (tuple(perm[j] for j in idxs),
             -1 if len(idxs) * (len(idxs) - 1) // 2 % 2 else 1, (c.conj(),))
            for idxs, c in self.parts.items()))

    # -- bidegree (complex charts) -------------------------------------

    def _bidegree_of(self, idxs: tuple) -> tuple:
        """The (p, q) holomorphic and antiholomorphic factor counts of
        dx^idxs: the one count behind every bidegree."""
        p = len(self.chart.holo.intersection(idxs))
        return p, len(idxs) - p

    def bidegrees(self) -> set:
        """The bidegrees of the terms, as degrees() gives their degrees."""
        return {self._bidegree_of(idxs) for idxs in self.parts}

    def bidegree(self):
        """(p, q) for a form homogeneous in holomorphic and antiholomorphic
        factor counts; raises when mixed."""
        seen = self.bidegrees()
        if len(seen) > 1:
            raise ValueError("form has mixed bidegree")
        return seen.pop() if seen else (0, 0)

    def bidegree_part(self, p: int, q: int) -> "DiffForm":
        return DiffForm._of(self.chart, {
            idxs: c for idxs, c in self.parts.items()
            if self._bidegree_of(idxs) == (p, q)})

    # -- comparison ---------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, RatExpr) or isinstance(other, SCALARS):
            other = self._coerce(other)
        if not isinstance(other, DiffForm):
            return NotImplemented
        return self.chart == other.chart and self.parts == other.parts

    def __hash__(self):
        # Kept: the bracket's value table hashes each form it has not
        # seen by id, and every memo lookup hashes its key's two forms.
        if self._hash is None:
            h = hash((self.chart, frozenset(self.parts.items())))
            object.__setattr__(self, "_hash", h)
        return self._hash

    def __str__(self):
        return form_str(self)

    def __repr__(self):
        return f"DiffForm({self})"
