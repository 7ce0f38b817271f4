import pytest

from poissonforms.polynomials import Poly, poly_gcd
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
    assert p * Poly.zero(2) == Poly.zero(2)
    assert (x + y) * (x - y) == x * x - y * y


def test_pow_and_leading():
    x, y = xy()
    p = (x + y) ** 3
    assert p.terms[(2, 1)] == 3
    exps, c = (x * x + x * y + y).leading()
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


def test_homogeneous_part():
    x, y = xy()
    p = x ** 3 + x * y + Poly.const(2, 4)
    assert p.homogeneous_part(3) == x ** 3
    assert p.homogeneous_part(2) == x * y
    assert p.homogeneous_part(1).is_zero()


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
