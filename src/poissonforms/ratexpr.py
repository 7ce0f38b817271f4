"""Coordinate charts and exact rational expressions over them.

A RatExpr is a reduced fraction of polynomials with a monic denominator,
so structural equality is semantic equality.  Its arithmetic runs on the
integer coefficients of the polynomials and keeps that form while taking
its gcds on the smallest polynomials that decide the result, as
`fractions.Fraction` does (Knuth, TAOCP vol. 2, 4.5.1).  For reduced
a/b and c/d:

- a/b * c/d cancels g1 = gcd(a, d) and g2 = gcd(c, b) and needs no
  further gcd; a quotient is the product with the reciprocal d/c, made
  monic, and the constructor RatExpr(chart, n, d) is the product of n/1
  with 1/d.
- a/b + c/d takes g = gcd(b, d), and then, when g is not 1, gcd(t, g)
  for t = a (d/g) + c (b/g), the only factor t can share with the
  denominator.
- A constant operand decides a gcd without computing it, so polynomial
  operands, constant factors and divisors, negation and the derivative
  of a polynomial take none.

The product and the sum are the only places a gcd is taken.  Powers and
conjugates of a reduced fraction are reduced, so they are at most made
monic, and the derivative of a fraction is the quotient (a'b - ab')/b^2,
reduced by the constructor.  The raw constructor `_of`, which builds
every expression, stores a denominator equal to 1 as the chart's one
`Chart.unit`, so `is_poly` is an identity test, and forms tell
polynomial coefficients apart by it.  An expression keeps each
derivative it has computed, by variable index, so `diff` runs once per
expression and variable; the slot stays unset until the first call, and
building an expression costs nothing for it.
Charts carry the coordinate names plus, for complex charts, the pairing
that drives conjugation.
"""

from __future__ import annotations

import re as _re

from .polynomials import Poly, poly_gcd
from .printing import ratexpr_str
from .scalars import SCALARS, GaussianRational

_NAME_RE = _re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class Chart:
    """Ordered coordinates; complex charts pair each holomorphic coordinate
    with its conjugate partner, and `_conj`, built once, maps each index
    to its partner's (to itself on a real chart).  `unit` is the constant
    polynomial 1 in the chart's variables, every polynomial's denominator."""

    __slots__ = ("names", "kind", "pairs", "_conj", "holo", "unit")

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
        object.__setattr__(self, "_conj", tuple(partner.get(j, j)
                                                for j in range(len(names))))
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
        return self._conj

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

    __slots__ = ("chart", "num", "den", "_d")

    def __init__(self, chart: Chart, num: Poly, den: Poly | None = None):
        """num/den reduced: the product of num/1 with the reciprocal 1/den,
        which cross-cancels gcd(num, den)."""
        if den is None:
            den = chart.unit
        elif den.is_zero():
            raise ZeroDivisionError("zero denominator")
        else:
            q = RatExpr._of(chart, num, chart.unit)._product(*_monic(chart.unit, den))
            num, den = q.num, q.den
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatExpr is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def _of(chart: Chart, num: Poly, den: Poly) -> "RatExpr":
        """num/den already in reduced monic form: no gcd is taken.  A
        denominator equal to 1 is stored as chart.unit."""
        if den is not chart.unit and den.is_one():
            den = chart.unit
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
        return self.num.is_const() and self.is_poly()

    def const_value(self) -> GaussianRational:
        return self.num.const_value() / self.den.const_value()

    def is_poly(self) -> bool:
        return self.den is self.chart.unit

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RatExpr):
            if other.chart != self.chart:
                raise ValueError("expressions live on different charts")
            return other
        if isinstance(other, SCALARS):
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
        return self._product(*_monic(o.den, o.num))

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
        return RatExpr._of(self.chart, _times(a, c), _times(b, d))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        """Powers of coprime a and b are coprime, and a power of a monic
        polynomial is monic: (a/b)^n needs no gcd."""
        if n < 0:
            if self.is_zero():
                raise ZeroDivisionError("negative power of zero")
            num, den = _monic(self.den ** -n, self.num ** -n)
        else:
            num, den = self.num ** n, self.den ** n
        return RatExpr._of(self.chart, num, den)

    def diff(self, which) -> "RatExpr":
        """The partial derivative along a coordinate, kept in the slot _d
        by index: an expression is immutable, so it is computed once."""
        idx = self.chart.index(which) if isinstance(which, str) else which
        done = getattr(self, "_d", None)
        if done is None:
            done = {}
            object.__setattr__(self, "_d", done)
        out = done.get(idx)
        if out is None:
            n, d = self.num, self.den
            if self.is_poly():
                out = RatExpr._of(self.chart, n.deriv(idx), d)
            else:
                out = RatExpr(self.chart, n.deriv(idx) * d - n * d.deriv(idx), d * d)
            done[idx] = out
        return out

    def conj(self) -> "RatExpr":
        """Conjugation is a ring automorphism, so the conjugate of a reduced
        fraction is reduced; only its denominator is made monic again."""
        perm = self.chart.conj_perm()
        num, den = _monic(self.num.conjugate(perm), self.den.conjugate(perm))
        return RatExpr._of(self.chart, num, den)

    # -- comparison ---------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, SCALARS):
            other = RatExpr.const(self.chart, other)
        if not isinstance(other, RatExpr):
            return NotImplemented
        return self.chart == other.chart and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.chart, self.num, self.den))

    def __str__(self):
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


def _monic(p: Poly, q: Poly) -> tuple:
    """(p, q) scaled by one constant so that q is monic."""
    if q.is_monic():
        return p, q
    inv = q.leading_inverse()
    return p * inv, q * inv


def _times(p: Poly, q: Poly) -> Poly:
    """p * q, without the product when either is the constant 1."""
    if q.is_one():
        return p
    if p.is_one():
        return q
    return p * q
