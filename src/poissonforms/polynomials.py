"""Multivariate polynomials over the Gaussian rationals.

Terms are stored sparsely as {exponent tuple: coefficient}.  The monomial
order everywhere is graded lexicographic over the variable positions, which
fixes leading terms, printing order, and the normal form of gcd results.
"""

from __future__ import annotations

from .scalars import GaussianRational, ONE as S_ONE, ZERO as S_ZERO


def grlex_key(exps: tuple) -> tuple:
    return (sum(exps), exps)


class Poly:
    """Sparse polynomial in a fixed number of variables."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = nvars
        pruned = {}
        if terms:
            for exps, c in terms.items():
                if c:
                    pruned[exps] = c
        self.terms = pruned

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly(nvars)

    @staticmethod
    def const(nvars: int, c) -> "Poly":
        c = GaussianRational.coerce(c)
        return Poly(nvars, {(0,) * nvars: c})

    @staticmethod
    def variable(nvars: int, idx: int) -> "Poly":
        exps = tuple(1 if j == idx else 0 for j in range(nvars))
        return Poly(nvars, {exps: S_ONE})

    @staticmethod
    def monomial(nvars: int, exps: tuple, c=S_ONE) -> "Poly":
        return Poly(nvars, {tuple(exps): GaussianRational.coerce(c)})

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return all(not any(e) for e in self.terms)

    def const_value(self) -> GaussianRational:
        if self.is_zero():
            return S_ZERO
        ((exps, c),) = self.terms.items()
        if any(exps):
            raise ValueError("polynomial is not constant")
        return c

    def __bool__(self) -> bool:
        return bool(self.terms)

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, idx: int) -> int:
        if not self.terms:
            return -1
        return max(e[idx] for e in self.terms)

    # -- ordered views ------------------------------------------------

    def ordered_terms(self) -> list:
        """Terms sorted descending in graded lex order."""
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    def leading(self) -> tuple:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms, key=grlex_key)
        return exps, self.terms[exps]

    # -- arithmetic ---------------------------------------------------

    def _check(self, other: "Poly"):
        if self.nvars != other.nvars:
            raise ValueError("polynomials live in different variable sets")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            s = terms.get(exps)
            terms[exps] = c if s is None else s + c
        return Poly(self.nvars, terms)

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                s = terms.get(e)
                terms[e] = c if s is None else s + c
        return Poly(self.nvars, terms)

    def scale(self, c) -> "Poly":
        c = GaussianRational.coerce(c)
        if not c:
            return Poly.zero(self.nvars)
        return Poly(self.nvars, {e: k * c for e, k in self.terms.items()})

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
        for exps, c in self.terms.items():
            k = exps[idx]
            if k:
                e = list(exps)
                e[idx] = k - 1
                key = tuple(e)
                add = c * k
                s = terms.get(key)
                terms[key] = add if s is None else s + add
        return Poly(self.nvars, terms)

    def homogeneous_part(self, k: int) -> "Poly":
        return Poly(self.nvars, {e: c for e, c in self.terms.items() if sum(e) == k})

    def conjugate(self, perm: tuple) -> "Poly":
        """Conjugate coefficients and permute variable slots by perm."""
        terms = {}
        for exps, c in self.terms.items():
            e = [0] * self.nvars
            for j, k in enumerate(exps):
                e[perm[j]] = k
            terms[tuple(e)] = c.conjugate()
        return Poly(self.nvars, terms)

    # -- comparison ---------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        return f"Poly({self.nvars}, {self.terms!r})"

    # -- division -----------------------------------------------------

    def monic(self) -> "Poly":
        """Divide by the leading coefficient; canonical up to scaling."""
        if self.is_zero():
            return self
        _, lc = self.leading()
        if lc.is_one():
            return self
        inv = lc.inverse()
        return Poly(self.nvars, {e: c * inv for e, c in self.terms.items()})

    def divexact(self, d: "Poly") -> "Poly":
        """Exact quotient self / d; raises ValueError if not divisible."""
        self._check(d)
        if d.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if d.is_const():
            inv = d.const_value().inverse()
            return self.scale(inv)
        rem = self
        quot: dict = {}
        de, dc = d.leading()
        dcinv = dc.inverse()
        while not rem.is_zero():
            re_, rc = rem.leading()
            qe = tuple(a - b for a, b in zip(re_, de))
            if any(k < 0 for k in qe):
                raise ValueError("polynomial division is not exact")
            qc = rc * dcinv
            quot[qe] = qc
            rem = rem - d * Poly.monomial(self.nvars, qe, qc)
        return Poly(self.nvars, quot)


# -- gcd --------------------------------------------------------------

def _coeffs_in(p: Poly, v: int) -> dict:
    """View p as univariate in variable v: {power: v-free Poly}."""
    out: dict = {}
    for exps, c in p.terms.items():
        k = exps[v]
        e = list(exps)
        e[v] = 0
        bucket = out.setdefault(k, {})
        key = tuple(e)
        s = bucket.get(key)
        bucket[key] = c if s is None else s + c
    return {k: Poly(p.nvars, t) for k, t in out.items()}


def _from_coeffs(nvars: int, v: int, coeffs: dict) -> Poly:
    terms: dict = {}
    for k, poly in coeffs.items():
        for exps, c in poly.terms.items():
            e = list(exps)
            e[v] += k
            terms[tuple(e)] = c
    return Poly(nvars, terms)


def _content(p: Poly, v: int) -> Poly:
    coeffs = _coeffs_in(p, v)
    g = Poly.zero(p.nvars)
    for k in sorted(coeffs):
        g = poly_gcd(g, coeffs[k])
        if g.is_const() and not g.is_zero():
            break
    return g


def _prem(a: Poly, b: Poly, v: int) -> Poly:
    """Pseudo-remainder of a by b with respect to variable v."""
    db = b.degree_in(v)
    lb = _coeffs_in(b, v)[db]
    r = a
    while True:
        dr = r.degree_in(v)
        if dr < db or r.is_zero():
            return r
        lr = _coeffs_in(r, v)[dr]
        shift = Poly.monomial(a.nvars, tuple(dr - db if j == v else 0 for j in range(a.nvars)))
        r = r * lb - b * shift * lr


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd in the graded lex sense; gcd(0, q) = monic q."""
    if p.nvars != q.nvars:
        raise ValueError("polynomials live in different variable sets")
    if p.is_zero():
        return q.monic()
    if q.is_zero():
        return p.monic()
    if p.is_const() or q.is_const():
        return Poly.const(p.nvars, 1)
    if p.terms == q.terms:
        return p.monic()

    used = [False] * p.nvars
    for exps in p.terms:
        for j, k in enumerate(exps):
            if k:
                used[j] = True
    for exps in q.terms:
        for j, k in enumerate(exps):
            if k:
                used[j] = True
    v = used.index(True)

    dp, dq = p.degree_in(v), q.degree_in(v)
    if dp == 0:
        return poly_gcd(p, _content(q, v))
    if dq == 0:
        return poly_gcd(_content(p, v), q)

    cont_p, cont_q = _content(p, v), _content(q, v)
    a = p.divexact(cont_p)
    b = q.divexact(cont_q)
    c = poly_gcd(cont_p, cont_q)
    if a.degree_in(v) < b.degree_in(v):
        a, b = b, a
    while True:
        r = _prem(a, b, v)
        if r.is_zero():
            g = b.divexact(_content(b, v))
            break
        if r.degree_in(v) == 0:
            g = Poly.const(p.nvars, 1)
            break
        a, b = b, r.divexact(_content(r, v))
    return (c * g).monic()
