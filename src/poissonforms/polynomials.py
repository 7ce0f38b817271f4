"""Multivariate polynomials over the Gaussian rationals.

A polynomial is stored as Gaussian-integer coefficients
{exponent tuple: (a, b)}, each meaning (a + b*i)/den, over one positive
integer denominator den.  Every construction drops zero terms and divides
out the common factor of den and all the a and b, so equal polynomials
have equal fields and all arithmetic runs on Python ints.
GaussianRational appears only at the boundary: the constructor, `scale`,
`const` and `monomial` accept GaussianRational, int or Fraction values,
and `terms`, `ordered_terms` and `const_value` return GaussianRationals.

The monomial order everywhere is graded lexicographic over the variable
positions, which fixes leading terms, printing order, and the normal form
of gcd results.

`poly_gcd` is a subresultant pseudo-remainder sequence in the first
variable v that either operand uses: each remainder is divided by the
factor it is known to carry, so contents are taken, recursively, of the
operands and the last remainder only.  Two shortcuts keep the operands
small: a gcd with a single term c x^e is the monomial of the least
exponents over both operands, read off without division; and when the
operand q of lower degree in v is primitive in v, so is the gcd, and the
content of the larger operand p is never taken.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import add, sub

from .scalars import GaussianRational


def grlex_key(exps: tuple) -> tuple:
    return (sum(exps), exps)


def _ints(c) -> tuple:
    """(a, b, m) with c = (a + b*i)/m, m > 0 and gcd(a, b, m) = 1."""
    if isinstance(c, int):
        return c, 0, 1
    if isinstance(c, Fraction):
        return c.numerator, 0, c.denominator
    c = GaussianRational.coerce(c)
    re, im = c.re, c.im
    m = lcm(re.denominator, im.denominator)
    return (re.numerator * (m // re.denominator),
            im.numerator * (m // im.denominator), m)


def _scalar(a: int, b: int, den: int) -> GaussianRational:
    if den == 1:
        return GaussianRational(a, b)
    return GaussianRational(Fraction(a, den), Fraction(b, den))


def _raw(nvars: int, coeffs: dict, den: int) -> "Poly":
    """The Poly coeffs/den, which must already be in normal form."""
    p = Poly.__new__(Poly)
    p.nvars = nvars
    p.coeffs = coeffs
    p.den = den
    return p


def _reduced(nvars: int, coeffs: dict, den: int) -> "Poly":
    """The Poly coeffs/den for coeffs without zero entries and den > 0:
    divides out the common factor of den and the coefficients."""
    if den != 1:
        g = gcd(den, *chain.from_iterable(coeffs.values()))
        if g != 1:
            den //= g
            coeffs = {e: (a // g, b // g) for e, (a, b) in coeffs.items()}
    return _raw(nvars, coeffs, den)


def _lead(p: "Poly") -> tuple:
    """The leading exponent and its Gaussian-integer coefficient."""
    exps = max(p.coeffs, key=grlex_key)
    return exps, p.coeffs[exps]


def _merge(terms: dict, coeffs: dict, m: int) -> None:
    """Add m * coeffs into terms in place, dropping entries that cancel."""
    for e, (a, b) in coeffs.items():
        s = terms.get(e)
        if s is None:
            terms[e] = (a * m, b * m)
        else:
            a = s[0] + a * m
            b = s[1] + b * m
            if a or b:
                terms[e] = (a, b)
            else:
                del terms[e]


def _mul_add(terms: dict, c1: dict, c2: dict, m: int) -> None:
    """Add m * c1 * c2 into terms in place, dropping entries that cancel:
    the one loop that multiplies coefficient dicts."""
    get = terms.get
    for e1, (a1, b1) in c1.items():
        if m != 1:
            a1 *= m
            b1 *= m
        for e2, (a2, b2) in c2.items():
            e = tuple(map(add, e1, e2))
            a = a1 * a2 - b1 * b2
            b = a1 * b2 + b1 * a2
            s = get(e)
            if s is not None:
                a += s[0]
                b += s[1]
                if not (a or b):
                    del terms[e]
                    continue
            terms[e] = (a, b)


class Poly:
    """Sparse polynomial in a fixed number of variables."""

    __slots__ = ("nvars", "coeffs", "den")

    def __init__(self, nvars: int, terms: dict | None = None):
        parts = []
        den = 1
        for exps, c in (terms or {}).items():
            a, b, m = _ints(c)
            if a or b:
                parts.append((exps, a, b, m))
                den = lcm(den, m)
        # Each value is reduced, so the lcm of their denominators shares
        # no factor with every scaled a and b: the result is normal.
        self.nvars = nvars
        self.coeffs = {e: (a * (den // m), b * (den // m)) for e, a, b, m in parts}
        self.den = den

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return _raw(nvars, {}, 1)

    @staticmethod
    def const(nvars: int, c) -> "Poly":
        return Poly.monomial(nvars, (0,) * nvars, c)

    @staticmethod
    def variable(nvars: int, idx: int) -> "Poly":
        exps = tuple(1 if j == idx else 0 for j in range(nvars))
        return _raw(nvars, {exps: (1, 0)}, 1)

    @staticmethod
    def monomial(nvars: int, exps: tuple, c=1) -> "Poly":
        a, b, m = _ints(c)
        if not (a or b):
            return _raw(nvars, {}, 1)
        return _raw(nvars, {tuple(exps): (a, b)}, m)

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_const(self) -> bool:
        c = self.coeffs
        return len(c) < 2 and not any(next(iter(c), ()))

    def is_one(self) -> bool:
        return (self.den == 1 and len(self.coeffs) == 1
                and self.coeffs.get((0,) * self.nvars) == (1, 0))

    def is_monic(self) -> bool:
        """Nonzero with leading coefficient 1."""
        return bool(self.coeffs) and _lead(self)[1] == (self.den, 0)

    def nterms(self) -> int:
        return len(self.coeffs)

    def const_value(self) -> GaussianRational:
        if self.is_zero():
            return _scalar(0, 0, 1)
        ((exps, (a, b)),) = self.coeffs.items()
        if any(exps):
            raise ValueError("polynomial is not constant")
        return _scalar(a, b, self.den)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def total_degree(self) -> int:
        if not self.coeffs:
            return -1
        return max(sum(e) for e in self.coeffs)

    def degree_in(self, idx: int) -> int:
        if not self.coeffs:
            return -1
        return max(e[idx] for e in self.coeffs)

    # -- views as GaussianRationals -------------------------------------

    @property
    def terms(self) -> dict:
        """{exponent tuple: GaussianRational}, built on every access."""
        d = self.den
        return {e: _scalar(a, b, d) for e, (a, b) in self.coeffs.items()}

    def ordered_terms(self) -> list:
        """Terms sorted descending in graded lex order."""
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    # -- arithmetic ---------------------------------------------------

    def _check(self, other: "Poly"):
        if self.nvars != other.nvars:
            raise ValueError("polynomials live in different variable sets")

    def _combine(self, other: "Poly", sign: int) -> "Poly":
        """self + sign * other."""
        self._check(other)
        d1, d2 = self.den, other.den
        if d1 == d2:
            terms = dict(self.coeffs)
            _merge(terms, other.coeffs, sign)
            return _reduced(self.nvars, terms, d1)
        den = lcm(d1, d2)
        m = den // d1
        terms = {e: (a * m, b * m) for e, (a, b) in self.coeffs.items()}
        _merge(terms, other.coeffs, sign * (den // d2))
        return _reduced(self.nvars, terms, den)

    def __add__(self, other: "Poly") -> "Poly":
        return self._combine(other, 1)

    def __neg__(self) -> "Poly":
        return _raw(self.nvars, {e: (-a, -b) for e, (a, b) in self.coeffs.items()},
                    self.den)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._combine(other, -1)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        sc, oc = self.coeffs, other.coeffs
        if len(sc) == 1:
            sc, oc = oc, sc
        if len(oc) == 1:
            # A single term maps the other's exponents one to one, and
            # Gaussian integers have no zero divisors: nothing cancels.
            ((e2, (a2, b2)),) = oc.items()
            terms = {tuple(map(add, e1, e2)): (a1 * a2 - b1 * b2, a1 * b2 + b1 * a2)
                     for e1, (a1, b1) in sc.items()}
        else:
            terms = {}
            _mul_add(terms, sc, oc, 1)
        return _reduced(self.nvars, terms, self.den * other.den)

    def scale(self, c) -> "Poly":
        return self * Poly.const(self.nvars, c)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly.const(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def deriv(self, idx: int) -> "Poly":
        terms = {}
        for exps, (a, b) in self.coeffs.items():
            k = exps[idx]
            if k:
                terms[exps[:idx] + (k - 1,) + exps[idx + 1:]] = (a * k, b * k)
        return _reduced(self.nvars, terms, self.den)

    def conjugate(self, perm: tuple) -> "Poly":
        """Conjugate coefficients and permute variable slots by perm."""
        terms = {}
        for exps, (a, b) in self.coeffs.items():
            e = [0] * self.nvars
            for j, k in enumerate(exps):
                e[perm[j]] = k
            terms[tuple(e)] = (a, -b)
        return _raw(self.nvars, terms, self.den)

    # -- comparison ---------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.nvars == other.nvars and self.den == other.den
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.nvars, self.den, frozenset(self.coeffs.items())))

    def __repr__(self):
        return f"Poly({self.nvars}, {self.terms!r})"

    # -- division -----------------------------------------------------

    def leading_inverse(self) -> "Poly":
        """The constant polynomial 1/(leading coefficient)."""
        if not self.coeffs:
            raise ZeroDivisionError("zero polynomial has no leading term")
        _, (a, b) = _lead(self)
        n = a * a + b * b
        return _reduced(self.nvars, {(0,) * self.nvars: (self.den * a, -self.den * b)}, n)

    def monic(self) -> "Poly":
        """Divide by the leading coefficient; canonical up to scaling."""
        if self.is_zero() or self.is_monic():
            return self
        return self * self.leading_inverse()

    def divexact(self, d: "Poly") -> "Poly":
        """Exact quotient self / d; raises ValueError if not divisible."""
        self._check(d)
        if d.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if d.is_const():
            return self * d.leading_inverse()
        # Divide the integer parts: s * self.coeffs = quot * d.coeffs + rem
        # throughout, where s grows only when a quotient coefficient would
        # leave the Gaussian integers.
        de, (la, lb) = _lead(d)
        n = la * la + lb * lb
        dterms = list(d.coeffs.items())
        rem = dict(self.coeffs)
        quot: dict = {}
        s = 1
        while rem:
            e = max(rem, key=grlex_key)
            qe = tuple(map(sub, e, de))
            if min(qe) < 0:
                raise ValueError("polynomial division is not exact")
            ra, rb = rem[e]
            # The quotient coefficient is r / L = r * conj(L) / n.
            ta, tb = ra * la + rb * lb, rb * la - ra * lb
            g = gcd(ta, tb, n)
            if g != n:
                m = n // g
                s *= m
                rem = {k: (x * m, y * m) for k, (x, y) in rem.items()}
                quot = {k: (x * m, y * m) for k, (x, y) in quot.items()}
            qa, qb = ta // g, tb // g
            quot[qe] = (qa, qb)
            for e2, (da, db) in dterms:
                k = tuple(map(add, qe, e2))
                x, y = rem.get(k, (0, 0))
                x -= qa * da - qb * db
                y -= qa * db + qb * da
                if x or y:
                    rem[k] = (x, y)
                else:
                    del rem[k]
        # self / d = (quot / s) * d.den / self.den
        m = d.den
        return _reduced(self.nvars, {e: (a * m, b * m) for e, (a, b) in quot.items()},
                        s * self.den)


class PolySum:
    """A running sum of polynomials and of products of polynomials, added
    to in place, so that each addition costs the size of the addend
    rather than of the sum.  A product is multiplied on the coefficient
    dicts of its factors, the last factor straight into the sum: no Poly
    is built until `value`."""

    __slots__ = ("nvars", "coeffs", "den")

    def __init__(self, nvars: int):
        self.nvars = nvars
        self.coeffs: dict = {}
        self.den = 1

    def add(self, p: Poly, sign: int = 1) -> None:
        """Add sign * p."""
        self.add_product((p,), sign)

    def add_product(self, polys, sign: int = 1) -> None:
        """Add sign * polys[0] * polys[1] * ..., for one or more factors."""
        for p in polys:
            p._check(self)
        coeffs, den = polys[0].coeffs, polys[0].den
        last = polys[-1] if len(polys) > 1 else None
        for p in polys[1:-1]:
            prod = {}
            _mul_add(prod, coeffs, p.coeffs, 1)
            coeffs, den = prod, den * p.den
        if last is not None:
            den *= last.den
        if self.den % den:
            total = lcm(self.den, den)
            m = total // self.den
            self.coeffs = {e: (a * m, b * m) for e, (a, b) in self.coeffs.items()}
            self.den = total
        m = sign * (self.den // den)
        if last is None:
            _merge(self.coeffs, coeffs, m)
        else:
            _mul_add(self.coeffs, coeffs, last.coeffs, m)

    def nterms(self) -> int:
        return len(self.coeffs)

    def value(self) -> Poly:
        return _reduced(self.nvars, dict(self.coeffs), self.den)


# -- gcd --------------------------------------------------------------

def _primitive(p: Poly) -> Poly:
    """p's coefficients divided by their integer gcd: a constant multiple
    of p with denominator 1."""
    g = gcd(*chain.from_iterable(p.coeffs.values()))
    return _raw(p.nvars, {e: (a // g, b // g) for e, (a, b) in p.coeffs.items()}, 1)


def _coeffs_in(p: Poly, v: int) -> dict:
    """View p as univariate in variable v: {power: v-free Poly}."""
    out: dict = {}
    for exps, c in p.coeffs.items():
        out.setdefault(exps[v], {})[exps[:v] + (0,) + exps[v + 1:]] = c
    return {k: _reduced(p.nvars, t, p.den) for k, t in out.items()}


def _content(p: Poly, v: int) -> Poly:
    coeffs = _coeffs_in(p, v)
    g = Poly.zero(p.nvars)
    for k in sorted(coeffs):
        g = poly_gcd(g, coeffs[k])
        if g.is_const() and not g.is_zero():
            break
    return g


def _prem(a: Poly, b: Poly, v: int) -> Poly:
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) a mod b in variable v."""
    db = b.degree_in(v)
    lb = _coeffs_in(b, v)[db]
    r = a
    k = a.degree_in(v) - db + 1
    while not r.is_zero() and r.degree_in(v) >= db:
        dr = r.degree_in(v)
        lr = _coeffs_in(r, v)[dr]
        shift = Poly.monomial(a.nvars, tuple(dr - db if j == v else 0 for j in range(a.nvars)))
        r = r * lb - b * shift * lr
        k -= 1
    return r * lb ** k if k else r


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd in the graded lex sense; gcd(0, q) = monic q."""
    if p.nvars != q.nvars:
        raise ValueError("polynomials live in different variable sets")
    if p.is_zero():
        return q.monic()
    if q.is_zero():
        return p.monic()
    if len(p.coeffs) == 1 or len(q.coeffs) == 1:
        # A term divides exactly the terms with at least its exponents.
        low = tuple(map(min, *p.coeffs, *q.coeffs))
        return _raw(p.nvars, {low: (1, 0)}, 1)
    if p == q:
        return p.monic()

    used = [False] * p.nvars
    for exps in chain(p.coeffs, q.coeffs):
        for j, k in enumerate(exps):
            if k:
                used[j] = True
    v = used.index(True)

    if p.degree_in(v) < q.degree_in(v):
        p, q = q, p
    if q.degree_in(v) == 0:
        return poly_gcd(_content(p, v), q)
    # The subresultant algorithm of Collins and of Brown and Traub.
    cont_q = _content(q, v)
    if cont_q.is_const():
        a, b, c = _primitive(p), _primitive(q), None
    else:
        cont_p = _content(p, v)
        a = _primitive(p.divexact(cont_p))
        b = _primitive(q.divexact(cont_q))
        c = poly_gcd(cont_p, cont_q)
    h = None  # until the first remainder, b is primitive in v
    while True:
        d = a.degree_in(v) - b.degree_in(v)
        r = _prem(a, b, v)
        if r.is_zero():
            break
        if r.degree_in(v) == 0:
            return Poly.const(p.nvars, 1) if c is None else c.monic()
        if h is not None:
            r = r.divexact(g * h ** d)
        a, b = b, r
        g = _coeffs_in(a, v)[a.degree_in(v)]
        h = g ** d if h is None or d == 1 else (g ** d).divexact(h ** (d - 1))
    if h is not None:
        b = b.divexact(_content(b, v))
    return b.monic() if c is None else (c * b).monic()
