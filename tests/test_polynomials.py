from fractions import Fraction
from itertools import chain
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from poissonforms.polynomials import Poly, PolySum, _prem, poly_gcd
from poissonforms.scalars import GaussianRational


def xy(nvars=2):
    return Poly.variable(nvars, 0), Poly.variable(nvars, 1)


def test_ring_basics():
    x, y = xy()
    one = Poly.const(2, 1)
    p = x * x + y.scale(2) - one
    assert p.total_degree() == 2
    assert p.degree_in(0) == 2 and p.degree_in(1) == 1
    assert (p - p).is_zero()
    assert not (p - p) and p
    assert p * Poly.zero(2) == Poly.zero(2)
    assert (x + y) * (x - y) == x * x - y * y


def test_pow_and_leading():
    x, y = xy()
    p = (x + y) ** 3
    assert p.terms[(2, 1)] == 3
    exps, c = (x * x + x * y + y).ordered_terms()[0]
    assert exps == (2, 0) and c == 1


def test_pow_builds_no_higher_power(monkeypatch):
    x, y = xy()
    p = x + y + Poly.const(2, 1)
    degrees = []
    mul = Poly.__mul__

    def recording(a, b):
        out = mul(a, b)
        degrees.append(out.total_degree())
        return out

    monkeypatch.setattr(Poly, "__mul__", recording)
    for n in range(9):
        degrees.clear()
        got = p ** n
        assert max(degrees, default=0) == n
        want = Poly.const(2, 1)
        for _ in range(n):
            want = mul(want, p)
        assert got == want


def test_deriv():
    x, y = xy()
    p = x ** 3 * y + x.scale(5)
    assert p.deriv(0) == x * x * y.scale(3) + Poly.const(2, 5)
    assert p.deriv(1) == x ** 3
    assert Poly.const(2, 7).deriv(0).is_zero()


def test_conjugate_with_pairing():
    z, zb = xy()
    i = GaussianRational(0, 1)
    p = z.scale(i) + zb * zb
    q = p.conjugate((1, 0))
    assert q == zb.scale(-i) + z * z
    assert q.conjugate((1, 0)) == p


def test_divexact():
    x, y = xy()
    p = (x + y) * (x * x - y)
    assert p.divexact(x + y) == x * x - y
    assert p.divexact(x * x - y) == x + y
    with pytest.raises(ValueError):
        (x * x + y).divexact(x + y)
    half = (x + y).scale(GaussianRational(1) / GaussianRational(2))
    assert (x + y).divexact(Poly.const(2, 2)) == half


def test_gcd_univariate():
    x, _ = xy()
    one = Poly.const(2, 1)
    assert poly_gcd(x * x - one, x - one) == x - one
    assert poly_gcd(x * x - one, x + one) == x + one
    assert poly_gcd(x * x + one, x + one) == one


def test_gcd_multivariate():
    x, y = xy()
    g = x * y + Poly.const(2, 1)
    p = g * (x + y)
    q = g * (x - y)
    assert poly_gcd(p, q) == g
    assert poly_gcd(p, q * g) == g
    assert poly_gcd(Poly.zero(2), p) == p.monic()


def test_gcd_is_monic():
    x, y = xy()
    g = x.scale(2) + y.scale(2)
    got = poly_gcd(g * x, g * y)
    assert got == x + y


def test_gcd_three_vars():
    n = 3
    x = Poly.variable(n, 0)
    y = Poly.variable(n, 1)
    z = Poly.variable(n, 2)
    g = x + y * z
    assert poly_gcd(g * g * x, g * (y + z)) == g
    assert poly_gcd(x * y, y * z) == y


def test_pseudo_remainder_carries_the_full_power():
    """prem(a, b) = lc(b)^(deg a - deg b + 1) a mod b, also when one step
    drops the degree by two: the subresultant divisions rely on it."""
    x, y = xy()
    assert _prem(x * x + Poly.const(2, 1), y * x, 0) == y * y


def test_gcd_of_small_operands_stays_small():
    """Pairs on which a remainder sequence that takes every remainder's
    content runs for minutes: each content is a gcd of ever larger
    coefficient polynomials."""
    x, y, w = (Poly.variable(3, j) for j in range(3))
    i = GaussianRational(0, 1)
    c = Poly.const(3, 1 + 2 * i)
    q = x ** 3 * y ** 3 * w * w + c * x * x * y * y * w * w + x
    for p in ((x * y + c) * (x * x * w * w + (x * y).scale(i) - x * w + y * y * w * w),
              (x * y + Poly.const(3, 1))
              * (x * x * w * w + (x * y).scale(1 + i) - x * w + c * y * y * w * w)):
        assert poly_gcd(p, q) == Poly.const(3, 1)
        assert poly_gcd(p, q * p) == p.monic()
        assert poly_gcd(p * (x + w), q * (x + w)) == x + w


# -- normal form ------------------------------------------------------

_fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
_scalars = st.builds(GaussianRational, _fractions, _fractions)
_polys = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                         _scalars, max_size=4).map(lambda t: Poly(2, t))
NORMAL_FORM = settings(max_examples=60, deadline=None)


def assert_normal(p: Poly):
    """One positive denominator sharing no factor with every coefficient,
    and no zero entry."""
    assert p.den > 0
    assert all(a or b for a, b in p.coeffs.values())
    assert gcd(p.den, *chain.from_iterable(p.coeffs.values())) == 1


def _reference(op, p: Poly, q: Poly) -> dict:
    """op on the GaussianRational views: the terms of p + q or p * q."""
    out: dict = {}
    if op == "add":
        pairs = chain(p.terms.items(), q.terms.items())
    else:
        pairs = ((tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
                 for e1, c1 in p.terms.items() for e2, c2 in q.terms.items())
    for e, c in pairs:
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


@NORMAL_FORM
@given(_polys, _polys, _polys)
def test_equal_values_built_differently_are_equal(p, q, r):
    left, right = (p * q) + r, r + (q * p)
    assert left == right and hash(left) == hash(right)
    assert (p - q) + q == p and hash((p - q) + q) == hash(p)
    for got in (p, p * q, left, p - p, -p, p.deriv(0), p.monic(),
                p.conjugate((1, 0))):
        assert_normal(got)


@NORMAL_FORM
@given(_polys, _scalars.filter(bool))
def test_scaling_there_and_back(p, c):
    back = p.scale(c).scale(1 / c)
    assert back == p and hash(back) == hash(p)
    assert_normal(p.scale(c))


@NORMAL_FORM
@given(_polys, _polys)
def test_arithmetic_matches_scalar_reference(p, q):
    assert (p + q).terms == _reference("add", p, q)
    assert (p * q).terms == _reference("mul", p, q)
    assert p.scale(3).terms == {e: 3 * c for e, c in p.terms.items()}


@NORMAL_FORM
@given(st.lists(st.tuples(_polys, st.sampled_from((1, -1))), max_size=6))
def test_poly_sum_matches_pairwise_sums(addends):
    acc = PolySum(2)
    want = Poly.zero(2)
    for p, sign in addends:
        acc.add(p, sign)
        want = want + p if sign == 1 else want - p
        assert acc.nterms() == want.nterms()
    assert acc.value() == want
    assert_normal(acc.value())


@NORMAL_FORM
@given(st.lists(st.tuples(st.lists(_polys, min_size=1, max_size=3),
                          st.sampled_from((1, -1))), max_size=5))
def test_poly_sum_of_products_matches_poly_products(addends):
    acc = PolySum(2)
    want = Poly.zero(2)
    for factors, sign in addends:
        acc.add_product(factors, sign)
        prod = factors[0]
        for p in factors[1:]:
            prod = prod * p
        want = want + prod if sign == 1 else want - prod
        assert acc.nterms() == want.nterms()
    assert acc.value() == want
    assert_normal(acc.value())


def test_poly_sum_checks_every_factor():
    x, _ = xy()
    with pytest.raises(ValueError):
        PolySum(2).add_product((x, Poly.variable(3, 0)))


def test_boundary_values_are_gaussian_rationals():
    half = GaussianRational(Fraction(1, 2), Fraction(-1, 3))
    p = Poly(2, {(1, 0): half, (0, 0): Fraction(3, 4), (0, 1): 0})
    assert p.den == 12 and p.coeffs == {(1, 0): (6, -4), (0, 0): (9, 0)}
    assert p.terms == {(1, 0): half, (0, 0): GaussianRational(Fraction(3, 4))}
    assert p.ordered_terms()[0] == ((1, 0), half)
    assert p.nterms() == 2
    assert Poly.const(2, half).const_value() == half
    assert Poly.zero(2).den == 1 and Poly.zero(2).const_value() == 0
