"""Coordinate charts and exact rational expressions over them.

A RatExpr is a reduced fraction of polynomials with a monic denominator,
so structural equality is semantic equality.  Its arithmetic runs on the
integer coefficients of the polynomials and keeps that form while taking
its gcds on the smallest polynomials that decide the result, as
`fractions.Fraction` does (Knuth, TAOCP vol. 2, 4.5.1).  For reduced
a/b and c/d:

- a/b * c/d cancels g1 = gcd(a, d) and g2 = gcd(c, b) and needs no
  further gcd; a quotient is the product with the reciprocal d/c, made
  monic.
- a/b + c/d takes g = gcd(b, d), and then, when g is not 1, gcd(t, g)
  for t = a (d/g) + c (b/g), the only factor t can share with the
  denominator.
- A constant operand decides a gcd without computing it, so polynomial
  operands, constant factors and divisors, negation and the derivative
  of a polynomial take none.

The constructor is the one general normaliser, a gcd of the whole
numerator and denominator, for the parser, `diff`, `__pow__` and
`conj`.  Charts carry the coordinate names plus, for complex charts,
the pairing that drives conjugation.
"""

from __future__ import annotations

import re as _re

from .polynomials import Poly, poly_gcd
from .scalars import GaussianRational

_NAME_RE = _re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class Chart:
    """Ordered coordinates; complex charts pair each holomorphic coordinate
    with its conjugate partner.  `unit` is the constant polynomial 1 in
    the chart's variables, shared by every RatExpr with denominator 1."""

    __slots__ = ("names", "kind", "pairs", "partner", "holo", "unit")

    def __init__(self, names, kind: str = "real", pairs=()):
        names = tuple(names)
        if kind not in ("real", "complex"):
            raise ValueError(f"unknown chart kind {kind!r}")
        seen = set()
        for nm in names:
            if not _NAME_RE.match(nm) or nm == "i":
                raise ValueError(f"bad coordinate name {nm!r}")
            if nm in seen:
                raise ValueError(f"duplicate coordinate name {nm!r}")
            seen.add(nm)
        partner = {}
        holo = []
        if kind == "complex":
            pairs = tuple((self._idx(names, a), self._idx(names, b)) for a, b in pairs)
            for a, b in pairs:
                if a == b or a in partner or b in partner:
                    raise ValueError("pairing must match coordinates one to one")
                partner[a] = b
                partner[b] = a
                holo.append(a)
            if len(partner) != len(names):
                raise ValueError("pairing must cover every coordinate")
        else:
            if pairs:
                raise ValueError("real charts take no pairing")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "pairs", tuple(pairs))
        object.__setattr__(self, "partner", partner)
        object.__setattr__(self, "holo", frozenset(holo))
        object.__setattr__(self, "unit", Poly.const(len(names), 1))

    def __setattr__(self, name, value):
        raise AttributeError("Chart is immutable")

    @staticmethod
    def _idx(names, c):
        if isinstance(c, str):
            return names.index(c)
        return c

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no coordinate named {name!r}") from None

    def is_complex(self) -> bool:
        return self.kind == "complex"

    def is_holo(self, idx: int) -> bool:
        return idx in self.holo

    def conj_perm(self) -> tuple:
        if self.kind == "real":
            return tuple(range(self.n))
        return tuple(self.partner[j] for j in range(self.n))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Chart):
            return NotImplemented
        return (self.names, self.kind, self.pairs) == (other.names, other.kind, other.pairs)

    def __hash__(self):
        return hash((self.names, self.kind, self.pairs))

    def __repr__(self):
        if self.kind == "real":
            return f"Chart({self.names!r})"
        pr = tuple((self.names[a], self.names[b]) for a, b in self.pairs)
        return f"Chart({self.names!r}, kind='complex', pairs={pr!r})"


class RatExpr:
    """Quotient of polynomials on a chart, always in reduced monic form."""

    __slots__ = ("chart", "num", "den")

    def __init__(self, chart: Chart, num: Poly, den: Poly | None = None):
        if den is None:
            den = chart.unit
        elif den.is_zero():
            raise ZeroDivisionError("zero denominator")
        elif num.is_zero():
            den = chart.unit
        elif den.is_const():
            if not den.is_one():
                num = num.divexact(den)
                den = chart.unit
        else:
            g = poly_gcd(num, den)
            if not g.is_const():
                num = num.divexact(g)
                den = den.divexact(g)
            if not den.is_monic():
                inv = den.leading_inverse()
                num = num * inv
                den = den * inv
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatExpr is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def _of(chart: Chart, num: Poly, den: Poly) -> "RatExpr":
        """num/den already in reduced monic form: no gcd is taken."""
        out = object.__new__(RatExpr)
        object.__setattr__(out, "chart", chart)
        object.__setattr__(out, "num", num)
        object.__setattr__(out, "den", den)
        return out

    @staticmethod
    def const(chart: Chart, c) -> "RatExpr":
        return RatExpr._of(chart, Poly.const(chart.n, c), chart.unit)

    @staticmethod
    def variable(chart: Chart, which) -> "RatExpr":
        idx = chart.index(which) if isinstance(which, str) else which
        return RatExpr(chart, Poly.variable(chart.n, idx))

    @staticmethod
    def zero(chart: Chart) -> "RatExpr":
        return RatExpr(chart, Poly.zero(chart.n))

    @staticmethod
    def one(chart: Chart) -> "RatExpr":
        return RatExpr.const(chart, 1)

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def is_const(self) -> bool:
        return self.num.is_const() and self.den.is_const()

    def const_value(self) -> GaussianRational:
        return self.num.const_value() / self.den.const_value()

    def is_poly(self) -> bool:
        return self.den.is_const()

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RatExpr):
            if other.chart != self.chart:
                raise ValueError("expressions live on different charts")
            return other
        if isinstance(other, (int, GaussianRational)):
            return RatExpr.const(self.chart, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # Henrici: with g = gcd(b, d), a/b + c/d = t/(s d) for s = b/g and
        # t = a d/g + c s, and only g can share a factor with t.
        chart = self.chart
        a, b, c, d = self.num, self.den, o.num, o.den
        g = _common(b, d)
        if g is None:
            return RatExpr._of(chart, _times(a, d) + _times(c, b), _times(b, d))
        s = b.divexact(g)
        t = a * d.divexact(g) + c * s
        if t.is_zero():
            return RatExpr._of(chart, t, chart.unit)
        g2 = _common(t, g)
        if g2 is None:
            return RatExpr._of(chart, t, s * d)
        return RatExpr._of(chart, t.divexact(g2), s * d.divexact(g2))

    __radd__ = __add__

    def __neg__(self):
        return RatExpr._of(self.chart, -self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            return o
        return self._product(o.num, o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero expression")
        # The reciprocal of a reduced o is reduced; make its denominator monic.
        c, d = o.den, o.num
        if not d.is_monic():
            inv = d.leading_inverse()
            c, d = c * inv, d * inv
        return self._product(c, d)

    def _product(self, c: Poly, d: Poly) -> "RatExpr":
        """self * c/d for a reduced c/d with monic d, by cross-cancelling:
        with g1 = gcd(a, d) and g2 = gcd(c, b), (a/g1 c/g2)/(b/g2 d/g1) is
        already reduced and monic."""
        a, b = self.num, self.den
        if a.is_zero():
            return self
        g1 = _common(a, d)
        if g1 is not None:
            a, d = a.divexact(g1), d.divexact(g1)
        g2 = _common(c, b)
        if g2 is not None:
            c, b = c.divexact(g2), b.divexact(g2)
        return RatExpr._of(self.chart, a * c, _times(b, d))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o / self

    def __pow__(self, n: int):
        if n == 0:
            return RatExpr.one(self.chart)
        if n < 0:
            if self.is_zero():
                raise ZeroDivisionError("negative power of zero")
            return RatExpr(self.chart, self.den ** (-n), self.num ** (-n))
        return RatExpr(self.chart, self.num ** n, self.den ** n)

    def diff(self, which) -> "RatExpr":
        idx = self.chart.index(which) if isinstance(which, str) else which
        if self.den.is_const():
            return RatExpr._of(self.chart, self.num.deriv(idx), self.den)
        n, d = self.num, self.den
        return RatExpr(self.chart, n.deriv(idx) * d - n * d.deriv(idx), d * d)

    def conj(self) -> "RatExpr":
        perm = self.chart.conj_perm()
        return RatExpr(self.chart, self.num.conjugate(perm), self.den.conjugate(perm))

    def subst(self, values: list) -> "RatExpr":
        """Evaluate with coordinate j replaced by values[j] (RatExprs on a
        common chart)."""
        if len(values) != self.chart.n:
            raise ValueError("need one value per coordinate")
        target = values[0].chart if values else self.chart
        num = _poly_subst(self.num, values, target)
        den = _poly_subst(self.den, values, target)
        if den.is_zero():
            raise ZeroDivisionError("substitution hits a pole")
        return num / den

    def eval_at(self, point: list) -> GaussianRational:
        chart = self.chart
        vals = [RatExpr.const(chart, c) for c in point]
        return self.subst(vals).const_value()

    # -- comparison ---------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, GaussianRational)):
            other = RatExpr.const(self.chart, other)
        if not isinstance(other, RatExpr):
            return NotImplemented
        return self.chart == other.chart and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.chart, self.num, self.den))

    def __str__(self):
        from .printing import ratexpr_str

        return ratexpr_str(self)

    def __repr__(self):
        return f"RatExpr({self})"


def _common(p: Poly, q: Poly):
    """The monic gcd of nonzero p and q, or None when it is 1.  A constant
    operand decides that without calling poly_gcd."""
    if p.is_const() or q.is_const():
        return None
    g = poly_gcd(p, q)
    return None if g.is_const() else g


def _times(p: Poly, q: Poly) -> Poly:
    """p * q, without the product when either is the constant 1."""
    if q.is_one():
        return p
    if p.is_one():
        return q
    return p * q


def _poly_subst(p: Poly, values: list, target: Chart) -> RatExpr:
    out = RatExpr.zero(target)
    cache: dict = {}

    def power(j: int, k: int) -> RatExpr:
        key = (j, k)
        got = cache.get(key)
        if got is None:
            got = values[j] ** k
            cache[key] = got
        return got

    for exps, c in p.ordered_terms():
        term = RatExpr.const(target, c)
        for j, k in enumerate(exps):
            if k:
                term = term * power(j, k)
        out = out + term
    return out
