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

Field operations and the three-variable gcd are compared in sympy's
polynomial rings over QQ_I instead of on expressions: the result of a
field operation is written out as an unreduced fraction of ring
elements, and the RatExpr must equal it cross-multiplied and have
numerator and denominator with a constant gcd.  Expression-level
`cancel`, `expand` and `gcd` took most of these tests' time.
"""

from fractions import Fraction

import pytest
from hypothesis import Phase, assume, example, given, settings, strategies as st

from poissonforms.polynomials import Poly, poly_gcd
from poissonforms.ratexpr import Chart, RatExpr
from poissonforms.scalars import GaussianRational

from identities import eval_at, subst

sympy = pytest.importorskip("sympy")

CHART = Chart(("x", "y"))
SYMBOLS = sympy.symbols("x y")
COMPLEX_CHART = Chart(("z", "zb"), kind="complex", pairs=(("z", "zb"),))
# Real symbols: sympy's conjugate then acts on the coefficients only.
COMPLEX_SYMBOLS = sympy.symbols("z zb", real=True)
RING = sympy.ring("x,y", sympy.QQ_I)[0]
COMPLEX_RING = sympy.ring("z,zb", sympy.QQ_I)[0]
RING3 = sympy.ring("x,y,w", sympy.QQ_I)[0]
# No shrinking: each shrink step runs sympy's `cancel`, so a failing
# example took minutes to report instead of seconds.
NO_SHRINK = tuple(p for p in Phase if p is not Phase.shrink)
ORACLE = settings(max_examples=30, deadline=None, phases=NO_SHRINK)

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


def _ring_poly(p: Poly, ring):
    return ring({exps: sympy.QQ_I(c.re, c.im) for exps, c in p.terms.items()})


def _ring_pair(r: RatExpr, ring):
    return _ring_poly(r.num, ring), _ring_poly(r.den, ring)


def _assert_is_fraction(got: RatExpr, num, den, ring):
    """`got` is num/den, for ring elements num and den, in lowest terms
    and with a monic denominator."""
    n, d = _ring_pair(got, ring)
    assert n * den == num * d
    assert n.gcd(d).is_ground
    assert got.den.is_monic()


def _is_constant(expr) -> bool:
    return not sympy.cancel(expr).free_symbols


def _assert_agrees(got: RatExpr, want, symbols=SYMBOLS):
    """`got` is sympy's cancel(want), up to a constant in numerator and
    denominator alike, and has a monic denominator."""
    want_num, want_den = sympy.fraction(sympy.cancel(sympy.together(want)))
    num, den = _sym_poly(got.num, symbols), _sym_poly(got.den, symbols)
    assert sympy.expand(num * want_den - want_num * den) == 0
    assert _is_constant(sympy.cancel(den / want_den))
    assert got.den.is_monic()


_monomials = _polys(2, 1, nonzero=True)
_parts = st.one_of(_factors, _monomials)


@st.composite
def _sharing_pairs(draw):
    """a = n1 f/(d1 h k) and b = n2 h/(d2 f k) on the real or the complex
    chart, so that gcd(a.num, b.den), gcd(b.num, a.den) and
    gcd(a.den, b.den) are nontrivial unless a reduction took f, h or k
    out; any part may be a monomial."""
    chart, ring = draw(st.sampled_from([(CHART, RING),
                                        (COMPLEX_CHART, COMPLEX_RING)]))
    n1, n2 = draw(st.one_of(_bodies, _monomials)), draw(st.one_of(_bodies, _monomials))
    d1, d2 = draw(_parts), draw(_parts)
    f, h, k = draw(_parts), draw(_parts), draw(_parts)
    return (RatExpr(chart, n1 * f, d1 * h * k),
            RatExpr(chart, n2 * h, d2 * f * k), ring)


@settings(max_examples=40, deadline=None, phases=NO_SHRINK)
@given(st.one_of(st.tuples(_ratexprs(), _ratexprs(), st.just(RING)),
                 _sharing_pairs()))
def test_field_operations_match_cancel(pair):
    """Sums, products, quotients and powers.  (b - a) + a cancels the
    factors of a's denominator that b's lacks: the numerator of that sum
    shares them with the denominators' gcd."""
    a, b, ring = pair
    (an, ad), (bn, bd) = _ring_pair(a, ring), _ring_pair(b, ring)
    _assert_is_fraction(a + b, an * bd + bn * ad, ad * bd, ring)
    _assert_is_fraction(a - b, an * bd - bn * ad, ad * bd, ring)
    _assert_is_fraction((b - a) + a, bn, bd, ring)
    _assert_is_fraction(a * b, an * bn, ad * bd, ring)
    if not b.is_zero():
        _assert_is_fraction(a / b, an * bd, ad * bn, ring)
    for k in (2, 3):
        _assert_is_fraction(a ** k, an ** k, ad ** k, ring)
    if not a.is_zero():
        for k in (-1, -2):
            _assert_is_fraction(a ** k, ad ** -k, an ** -k, ring)


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


@settings(max_examples=40, deadline=None, phases=NO_SHRINK)
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
        assert g.is_monic()
        rp, rq, rg = (_ring_poly(f, RING3) for f in (p, q, g))
        assert rg.monic() == rp.gcd(rq).monic()
        for f, rf in ((p, rp), (q, rq)):
            assert _ring_poly(f.divexact(g), RING3) * rg == rf


@ORACLE
@given(_bodies, _bodies, _factors)
def test_poly_gcd_matches_sympy(p, q, c):
    p, q = p * c, q * c
    assume(not (p.is_zero() and q.is_zero()))
    g = poly_gcd(p, q)
    assert g.is_monic()
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
            subst(a, [u, v])
    else:
        _assert_agrees(subst(a, [u, v]), _subs(_sym(a), su, sv))


@ORACLE
@given(_ratexprs(), _coeffs, _coeffs)
def test_eval_at_matches_sympy(a, p, q):
    sp, sq = _sym_scalar(p), _sym_scalar(q)
    if sympy.expand(_subs(_sym_poly(a.den), sp, sq)) == 0:
        with pytest.raises(ZeroDivisionError):
            eval_at(a, [p, q])
    else:
        want = _subs(_sym(a), sp, sq)
        assert sympy.expand(_sym_scalar(eval_at(a, [p, q])) - want) == 0


@ORACLE
@given(_bodies, _factors, _coeffs, _coeffs, _values)
# The numerator cancels x - p and leaves the denominator y, which
# vanishes at (p, q) = (0, 0) but not on the line x = 0.
@example(Poly(2, {(1, 0): GaussianRational(-2, -1), (1, 1): GaussianRational(1, -2)}),
         Poly(2, {(0, 1): GaussianRational(0, 2)}),
         GaussianRational(0), GaussianRational(0),
         RatExpr(CHART, Poly(2, {(1, 0): GaussianRational(Fraction(-27, 20),
                                                          Fraction(-21, 20))})))
def test_subst_and_eval_at_a_pole(num, other, p, q, v):
    """With a reduced denominator that vanishes on the whole line x = p,
    as x - p does unless the numerator cancels it, x = p is a pole
    whatever y is."""
    a = RatExpr(CHART, num, (Poly.variable(2, 0) - Poly.const(2, p)) * other)
    sp = _sym_scalar(p)
    assume(sympy.expand(_sym_poly(a.den).subs(SYMBOLS[0], sp)) == 0)
    with pytest.raises(ZeroDivisionError):
        eval_at(a, [p, q])
    with pytest.raises(ZeroDivisionError):
        subst(a, [RatExpr.const(CHART, p), v])
