"""Differential oracle: the exact expression core against sympy.

Small random polynomials over Q(i) in two variables go through RatExpr
arithmetic, `diff`, `conj`, `subst`, `eval_at` and `poly_gcd`, and the
results are compared with sympy's `cancel`, `diff`, `conjugate`, `subs`
and `gcd` on the same input; a substitution or point that makes the
denominator vanish must raise ZeroDivisionError.  `poly_gcd` and
`divexact` are also checked in three variables.  A RatExpr must be
the same rational function as sympy's, fully reduced (its denominator
differs from sympy's by a constant factor only) and have a monic
denominator.
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


@ORACLE
@given(_ratexprs(), _ratexprs())
def test_field_operations_match_cancel(a, b):
    sa, sb = _sym(a), _sym(b)
    _assert_agrees(a + b, sa + sb)
    _assert_agrees(a - b, sa - sb)
    _assert_agrees(a * b, sa * sb)
    if not b.is_zero():
        _assert_agrees(a / b, sa / sb)


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


@ORACLE
@given(_polys(2, 4, nvars=3, coeffs=_coeffs7), _polys(2, 4, nvars=3, coeffs=_coeffs7),
       _polys(1, 2, nonzero=True, nvars=3, coeffs=_coeffs7))
def test_poly_gcd_and_divexact_in_three_variables(p, q, c):
    p, q = p * c, q * c
    assume(not (p.is_zero() and q.is_zero()))
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
