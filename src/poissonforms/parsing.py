"""Recursive descent parser for scalar expressions and differential forms.

Grammar (whitespace insignificant):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := ('+' | '-') factor | atom ('^' exponent)?
    atom    := INT | 'i' | NAME | 'd' '[' NAME ']' | '(' expr ')'

'^' after a 0-form takes a signed integer exponent; after a form of
positive degree it wedges with the next factor.  '/' requires a 0-form
divisor.  Multiplication is never implicit.

Hostile input is refused with a ParseError instead of exhausting the
stack or the clock: factors (parentheses, signs, wedges) nest at most
MAX_DEPTH deep, the exponents of nested powers multiply to at most
MAX_EXPONENT in magnitude, so ((x+1)^k)^k counts as the exponent k*k,
and no sum, difference, product, quotient, wedge or power is expanded
when its predicted size exceeds MAX_TERMS terms.  A value's size is the
number of terms of the larger of numerator and denominator, summed over
its coefficients; a product is predicted to have the product of its
operands' sizes, and a power p^n of a value of size t the C(t+n-1, n)
monomials of degree n in t terms.  A sum of two polynomials is predicted
to have the sum of their sizes; any other sum brings its fractions to a
common denominator, which multiplies them, and is predicted to have
twice the product of the sizes.
"""

from __future__ import annotations

import re as _re
from math import comb

from .forms import DiffForm
from .polynomials import PolySum
from .ratexpr import Chart, RatExpr
from .scalars import GaussianRational

_TOKEN_RE = _re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<sym>[-+*/^()\[\]]))"
)


MAX_DEPTH = 64
MAX_EXPONENT = 100
MAX_TERMS = 1000


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def _size(form: DiffForm) -> int:
    return sum(max(c.num.nterms(), c.den.nterms())
               for c in form.parts.values())


def _is_poly(form: DiffForm) -> bool:
    return all(c.is_poly() for c in form.parts.values())


class _Sum:
    """The running value of a sum of terms.  While every term has
    polynomial coefficients it is held as one PolySum per form part, so
    that adding a term costs the size of the term, not of the sum; from
    the first other term on, as a DiffForm.  `size` is always the _size of
    the value."""

    def __init__(self, form: DiffForm):
        self.chart = form.chart
        self.form = None
        self.polys = {}
        self.size = 0
        self.add(form, 1)

    def is_poly(self) -> bool:
        return self.form is None or _is_poly(self.form)

    def add(self, rhs: DiffForm, sign: int) -> None:
        if self.form is None and _is_poly(rhs):
            for idxs, c in rhs.parts.items():
                acc = self.polys.get(idxs)
                if acc is None:
                    self.polys[idxs] = acc = PolySum(self.chart.n)
                self.size -= acc.nterms()
                acc.add(c.num, sign)
                self.size += acc.nterms()
                if not acc.nterms():
                    del self.polys[idxs]
            return
        value = self.value()
        self.form = value + rhs if sign > 0 else value - rhs
        self.size = _size(self.form)

    def value(self) -> DiffForm:
        if self.form is None:
            return DiffForm(self.chart, {idxs: RatExpr(self.chart, acc.value())
                                         for idxs, acc in self.polys.items()})
        return self.form


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            stripped = text[pos:].strip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", pos)
        if m.lastgroup == "int":
            tokens.append(("int", int(m.group("int")), m.start("int")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("sym", m.group("sym"), m.start("sym")))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str, chart: Chart):
        self.text = text
        self.chart = chart
        self.tokens = _tokenize(text)
        self.k = 0
        self.depth = 0
        # Largest product of nested exponents in the factor being parsed.
        self.exponent = 1

    def _peek(self):
        if self.k < len(self.tokens):
            return self.tokens[self.k]
        return ("end", None, len(self.text))

    def _next(self):
        tok = self._peek()
        self.k += 1
        return tok

    def _expect_sym(self, sym: str):
        kind, val, pos = self._next()
        if kind != "sym" or val != sym:
            raise ParseError(f"expected {sym!r}", pos)

    def _check_size(self, predicted: int, pos: int) -> None:
        if predicted > MAX_TERMS:
            raise ParseError(f"expansion predicted to exceed {MAX_TERMS} "
                             "terms", pos)

    def parse(self) -> DiffForm:
        out = self.expr()
        kind, val, pos = self._peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing {val!r}", pos)
        return out

    def expr(self) -> DiffForm:
        out = _Sum(self.term())
        while True:
            kind, val, pos = self._peek()
            if kind == "sym" and val in "+-":
                self.k += 1
                rhs = self.term()
                s1, s2 = out.size, _size(rhs)
                poly = out.is_poly() and _is_poly(rhs)
                self._check_size(s1 + s2 if poly else 2 * s1 * s2, pos)
                out.add(rhs, 1 if val == "+" else -1)
            else:
                return out.value()

    def term(self) -> DiffForm:
        out = self.factor()
        while True:
            kind, val, pos = self._peek()
            if kind == "sym" and val in "*/":
                self.k += 1
                rhs = self.factor()
                self._check_size(_size(out) * _size(rhs), pos)
                if val == "*":
                    out = out * rhs
                else:
                    if rhs.degrees() not in (set(), {0}):
                        raise ParseError("cannot divide by a form", pos)
                    sc = rhs.scalar_part()
                    if sc.is_zero():
                        raise ParseError("division by zero", pos)
                    out = out * DiffForm.from_scalar(sc ** -1)
            else:
                return out

    def factor(self) -> DiffForm:
        if self.depth == MAX_DEPTH:
            raise ParseError(f"expression nested more than {MAX_DEPTH} deep",
                             self._peek()[2])
        outer, self.exponent = self.exponent, 1
        self.depth += 1
        out = self._factor()
        self.depth -= 1
        self.exponent = max(outer, self.exponent)
        return out

    def _factor(self) -> DiffForm:
        kind, val, pos = self._peek()
        if kind == "sym" and val in "+-":
            self.k += 1
            inner = self.factor()
            return inner if val == "+" else -inner
        out = self.atom()
        kind, val, pos = self._peek()
        if kind == "sym" and val == "^":
            self.k += 1
            if out.degrees() in (set(), {0}):
                n = self._signed_int()
                self.exponent *= abs(n)
                if self.exponent > MAX_EXPONENT:
                    raise ParseError(
                        f"exponent above {MAX_EXPONENT}, counting nested powers", pos)
                t = _size(out)
                self._check_size(comb(t + abs(n) - 1, abs(n)), pos)
                base = out.scalar_part()
                if n < 0 and base.is_zero():
                    raise ParseError("division by zero", pos)
                return DiffForm.from_scalar(base ** n)
            rhs = self.factor()
            self._check_size(_size(out) * _size(rhs), pos)
            return out * rhs
        return out

    def _signed_int(self) -> int:
        kind, val, pos = self._peek()
        neg = False
        if kind == "sym" and val in "+-":
            neg = val == "-"
            self.k += 1
            kind, val, pos = self._peek()
        if kind != "int":
            raise ParseError("expected an integer exponent", pos)
        self.k += 1
        return -val if neg else val

    def atom(self) -> DiffForm:
        kind, val, pos = self._next()
        chart = self.chart
        if kind == "int":
            return DiffForm.const(chart, val)
        if kind == "name":
            if val == "i":
                return DiffForm.const(chart, GaussianRational(0, 1))
            if val == "d":
                k2, v2, _ = self._peek()
                if k2 == "sym" and v2 == "[":
                    self.k += 1
                    k3, v3, p3 = self._next()
                    if k3 != "name":
                        raise ParseError("expected a coordinate name", p3)
                    if v3 not in chart.names:
                        raise ParseError(f"unknown coordinate {v3!r}", p3)
                    self._expect_sym("]")
                    return DiffForm.d_coord(chart, v3)
            if val in chart.names:
                return DiffForm.coord(chart, val)
            raise ParseError(f"unknown name {val!r}", pos)
        if kind == "sym" and val == "(":
            inner = self.expr()
            self._expect_sym(")")
            return inner
        raise ParseError("expected a value", pos)


def parse_form(text: str, chart: Chart) -> DiffForm:
    return _Parser(text, chart).parse()


def parse_scalar(text: str, chart: Chart) -> RatExpr:
    form = parse_form(text, chart)
    if form.degrees() not in (set(), {0}):
        raise ParseError("expected a scalar expression", 0)
    return form.scalar_part()
