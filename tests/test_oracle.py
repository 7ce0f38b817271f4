"""Differential oracle: the exact expression core against sympy.

Small random polynomials over Q(i) in two variables go through RatExpr
arithmetic, `diff`, `conj`, `subst`, `eval_at` and `poly_gcd`, and the
results are compared with sympy's `cancel`, `diff`, `conjugate`, `subs`
and `gcd` on the same input; a substitution or point that makes the
denominator vanish must raise ZeroDivisionError.  Field operations are
also drawn on pairs that share factors across operands and on monomial
parts, so that the cross-cancelling product and the Henrici sum take
nontrivial gcds.  `poly_gcd` and `divexact` are also checked in three
variables, on monomials and on operands with nontrivial content.  A
RatExpr must be the same rational function as sympy's, fully reduced
(its denominator differs from sympy's by a constant factor only) and
have a monic denominator.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from poissonforms.polynomials import Poly, poly_gcd
from poissonforms.ratexpr import Chart, RatExpr
from poissonforms.scalars import GaussianRational

sympy = pytest.importorskip("sympy")

CHART = Chart(("x", "y"))
SYMBOLS = sympy.symbols("x y")
COMPLEX_CHART = Chart(("z", "zb"), kind="complex", pairs=(("z", "zb"),))
# Real symbols: sympy's conjugate then acts on the coefficients only.
COMPLEX_SYMBOLS = sympy.symbols("z zb", real=True)
SYMBOLS3 = sympy.symbols("x y w")
ORACLE = settings(max_examples=30, deadline=None)

_fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
_coeffs = st.builds(GaussianRational, _fractions, _fractions)


def _polys(top: int, terms: int, nonzero: bool = False, nvars: int = 2,
           coeffs=_coeffs):
    exps = st.tuples(*[st.integers(0, top)] * nvars)
    out = st.dictionaries(exps, coeffs, min_size=int(nonzero),
                          max_size=terms).map(lambda t: Poly(nvars, t))
    return out.filter(lambda p: not p.is_zero()) if nonzero else out


_bodies = _polys(2, 3)
_factors = _polys(1, 2, nonzero=True)
_denominators = _polys(1, 3, nonzero=True)


@st.composite
def _ratexprs(draw, chart=CHART):
    """num*c / (den*c): the shared factor c makes the constructor reduce."""
    c = draw(_factors)
    return RatExpr(chart, draw(_bodies) * c, draw(_denominators) * c)


def _sym_scalar(c: GaussianRational):
    return (sympy.Rational(c.re.numerator, c.re.denominator)
            + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator))


def _sym_poly(p: Poly, symbols=SYMBOLS):
    out = sympy.Integer(0)
    for exps, c in p.terms.items():
        term = _sym_scalar(c)
        for v, k in zip(symbols, exps):
            term *= v ** k
        out += term
    return out


def _sym(r: RatExpr, symbols=SYMBOLS):
    return _sym_poly(r.num, symbols) / _sym_poly(r.den, symbols)


def _is_constant(expr) -> bool:
    return not sympy.cancel(expr).free_symbols


def _assert_agrees(got: RatExpr, want, symbols=SYMBOLS):
    """`got` is sympy's cancel(want), up to a constant in numerator and
    denominator alike, and has a monic denominator."""
    want_num, want_den = sympy.fraction(sympy.cancel(sympy.together(want)))
    num, den = _sym_poly(got.num, symbols), _sym_poly(got.den, symbols)
    assert sympy.expand(num * want_den - want_num * den) == 0
    assert _is_constant(sympy.cancel(den / want_den))
    assert got.den.leading()[1].is_one()


_monomials = _polys(2, 1, nonzero=True)
_parts = st.one_of(_factors, _monomials)


@st.composite
def _sharing_pairs(draw):
    """a = n1 f/(d1 h k) and b = n2 h/(d2 f k) on the real or the complex
    chart, so that gcd(a.num, b.den), gcd(b.num, a.den) and
    gcd(a.den, b.den) are nontrivial unless a reduction took f, h or k
    out; any part may be a monomial."""
    chart, symbols = draw(st.sampled_from([(CHART, SYMBOLS),
                                           (COMPLEX_CHART, COMPLEX_SYMBOLS)]))
    n1, n2 = draw(st.one_of(_bodies, _monomials)), draw(st.one_of(_bodies, _monomials))
    d1, d2 = draw(_parts), draw(_parts)
    f, h, k = draw(_parts), draw(_parts), draw(_parts)
    return (RatExpr(chart, n1 * f, d1 * h * k),
            RatExpr(chart, n2 * h, d2 * f * k), symbols)


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.tuples(_ratexprs(), _ratexprs(), st.just(SYMBOLS)),
                 _sharing_pairs()))
def test_field_operations_match_cancel(pair):
    """(b - a) + a cancels the factors of a's denominator that b's lacks:
    the numerator of that sum shares them with the denominators' gcd."""
    a, b, symbols = pair
    sa, sb = _sym(a, symbols), _sym(b, symbols)
    _assert_agrees(a + b, sa + sb, symbols)
    _assert_agrees(a - b, sa - sb, symbols)
    _assert_agrees((b - a) + a, sb, symbols)
    _assert_agrees(a * b, sa * sb, symbols)
    if not b.is_zero():
        _assert_agrees(a / b, sa / sb, symbols)


@ORACLE
@given(_ratexprs())
def test_diff_matches_sympy(a):
    for j, v in enumerate(SYMBOLS):
        _assert_agrees(a.diff(j), sympy.diff(_sym(a), v))


@ORACLE
@given(_ratexprs(COMPLEX_CHART))
def test_conj_matches_sympy(a):
    """Conjugate the coefficients and swap z with zb."""
    z, zb = COMPLEX_SYMBOLS
    want = sympy.conjugate(_sym(a, COMPLEX_SYMBOLS)).subs(
        {z: zb, zb: z}, simultaneous=True)
    _assert_agrees(a.conj(), want, COMPLEX_SYMBOLS)


_coeffs7 = st.builds(GaussianRational,
                     *[st.builds(Fraction, st.integers(-7, 7), st.integers(1, 7))] * 2)


_operands3 = st.one_of(_polys(2, 4, nvars=3, coeffs=_coeffs7),
                       _polys(2, 1, nonzero=True, nvars=3, coeffs=_coeffs7))
# Nonconstant, free of x: the content in x of a product with it.
_contents3 = st.dictionaries(st.tuples(st.just(0), st.integers(0, 1), st.integers(0, 1)),
                             _coeffs7, min_size=1, max_size=2).map(
    lambda t: Poly(3, t)).filter(lambda p: not p.is_const())


@settings(max_examples=40, deadline=None)
@given(_operands3, _operands3, _polys(1, 2, nonzero=True, nvars=3, coeffs=_coeffs7),
       _contents3)
def test_poly_gcd_and_divexact_in_three_variables(p, q, c, content):
    """Operands may be monomials; the second pair puts a primitive q
    against a p with nontrivial content in x."""
    x = Poly.variable(3, 0)
    for p, q in ((p * c, q * c), (p * c * content, q * c + x)):
        if p.is_zero() and q.is_zero():
            continue
        g = poly_gcd(p, q)
        assert g.leading()[1].is_one()
        sg = _sym_poly(g, SYMBOLS3)
        assert _is_constant(sg / sympy.gcd(_sym_poly(p, SYMBOLS3), _sym_poly(q, SYMBOLS3)))
        for f in (p, q):
            quot = f.divexact(g)
            assert sympy.expand(_sym_poly(quot, SYMBOLS3) * sg - _sym_poly(f, SYMBOLS3)) == 0


@ORACLE
@given(_bodies, _bodies, _factors)
def test_poly_gcd_matches_sympy(p, q, c):
    p, q = p * c, q * c
    assume(not (p.is_zero() and q.is_zero()))
    g = poly_gcd(p, q)
    assert g.leading()[1].is_one()
    want = sympy.gcd(_sym_poly(p), _sym_poly(q))
    assert _is_constant(_sym_poly(g) / want)


@ORACLE
@given(_bodies, _factors)
def test_constant_denominators_scale_the_numerator(p, c):
    const = next(iter(c.terms.values()))
    unit = Poly.const(2, 1)
    for den in (None, unit, Poly.const(2, const)):
        got = RatExpr(CHART, p, den)
        want = _sym_poly(p) if den is None else _sym_poly(p) / _sym_poly(den)
        _assert_agrees(got, want)
        assert got.den == unit


def _subs(expr, u, v):
    return expr.subs(dict(zip(SYMBOLS, (u, v))), simultaneous=True)


_values = st.builds(lambda n, d: RatExpr(CHART, n, d), _factors, _factors)


@ORACLE
@given(_ratexprs(), _values, _values)
def test_subst_matches_sympy(a, u, v):
    su, sv = _sym(u), _sym(v)
    if sympy.cancel(_subs(_sym_poly(a.den), su, sv)) == 0:
        with pytest.raises(ZeroDivisionError):
            a.subst([u, v])
    else:
        _assert_agrees(a.subst([u, v]), _subs(_sym(a), su, sv))


@ORACLE
@given(_ratexprs(), _coeffs, _coeffs)
def test_eval_at_matches_sympy(a, p, q):
    sp, sq = _sym_scalar(p), _sym_scalar(q)
    if sympy.expand(_subs(_sym_poly(a.den), sp, sq)) == 0:
        with pytest.raises(ZeroDivisionError):
            a.eval_at([p, q])
    else:
        want = _subs(_sym(a), sp, sq)
        assert sympy.expand(_sym_scalar(a.eval_at([p, q])) - want) == 0


@ORACLE
@given(_bodies, _factors, _coeffs, _coeffs, _values)
def test_subst_and_eval_at_a_pole(num, other, p, q, v):
    """With a denominator divisible by x - p, x = p is a pole whatever y
    is, unless the numerator cancels that factor."""
    a = RatExpr(CHART, num, (Poly.variable(2, 0) - Poly.const(2, p)) * other)
    sp, sq = _sym_scalar(p), _sym_scalar(q)
    assume(sympy.expand(_subs(_sym_poly(a.den), sp, sq)) == 0)
    with pytest.raises(ZeroDivisionError):
        a.eval_at([p, q])
    with pytest.raises(ZeroDivisionError):
        a.subst([RatExpr.const(CHART, p), v])
