from fractions import Fraction

import pytest

from poissonforms import ratexpr
from poissonforms.parsing import parse_scalar
from poissonforms.polynomials import Poly
from poissonforms.ratexpr import Chart, RatExpr
from poissonforms.scalars import GaussianRational

from identities import eval_at, subst


@pytest.fixture
def ch():
    return Chart(("x", "y"))


@pytest.fixture
def czx():
    return Chart(("z", "zb"), kind="complex", pairs=(("z", "zb"),))


def test_chart_validation():
    with pytest.raises(ValueError):
        Chart(("x", "x"))
    with pytest.raises(ValueError):
        Chart(("i", "y"))
    with pytest.raises(ValueError):
        Chart(("x", "y"), kind="complex", pairs=(("x", "x"),))
    with pytest.raises(ValueError):
        Chart(("x", "y", "z"), kind="complex", pairs=(("x", "y"),))
    with pytest.raises(ValueError):
        Chart(("x", "y"), pairs=(("x", "y"),))


def test_chart_pairing(czx):
    assert czx.conj_perm() == (1, 0)
    assert czx.is_holo(0) and not czx.is_holo(1)
    assert Chart(("x",)).conj_perm() == (0,)


def test_conjugation_permutation_is_built_once(ch, czx):
    assert ch.conj_perm() is ch.conj_perm()
    assert czx.conj_perm() is czx.conj_perm()


def test_reduction_cancels_common_factor(ch):
    num = parse_scalar("x^2-1", ch)
    den = parse_scalar("x-1", ch)
    assert num / den == parse_scalar("x+1", ch)


def test_monic_denominator(ch):
    r = parse_scalar("x/(2*y)", ch)
    assert r.den == parse_scalar("y", ch).num
    assert r == parse_scalar("(1/2*x)/y", ch)


def test_field_ops(ch):
    x = RatExpr.variable(ch, "x")
    y = RatExpr.variable(ch, "y")
    r = x / (x + y)
    s = y / (x + y)
    assert r + s == 1
    assert r * (x + y) == x
    assert (r - r).is_zero()
    assert (x / y) ** -2 == (y * y) / (x * x)
    assert 1 / (1 / (x + 1)) == x + 1


def test_diff_quotient_rule(ch):
    x = RatExpr.variable(ch, "x")
    y = RatExpr.variable(ch, "y")
    r = (x * x) / (y + 1)
    assert r.diff("x") == (2 * x) / (y + 1)
    assert r.diff("y") == -(x * x) / ((y + 1) * (y + 1))
    assert RatExpr.const(ch, 5).diff("x").is_zero()


def test_diff_is_kept_reduced(ch):
    x = RatExpr.variable(ch, "x")
    y = RatExpr.variable(ch, "y")
    r = 1 / (y * (x * y + 1))
    # gcd(d, d_x) = y, but y divides d^2 twice: dividing the quotient rule
    # by gcd(d, d_x) alone would leave -y/(y (xy + 1)^2).
    assert r.diff(0) == -1 / (x * x * y * y + 2 * x * y + 1)
    assert str(r.diff(0)) == str(parse_scalar("-1/(x^2*y^2 + 2*x*y + 1)", ch))
    assert r.diff(0) is r.diff(0)
    assert r.diff("x") is r.diff(0)


def test_conj_complex(czx):
    z = RatExpr.variable(czx, "z")
    zb = RatExpr.variable(czx, "zb")
    i = GaussianRational(0, 1)
    r = (z * i + 1) / (z * zb + 1)
    assert r.conj() == (zb * (-i) + 1) / (z * zb + 1)
    assert r.conj().conj() == r


def test_subst(ch):
    r = parse_scalar("(x+y)^2/x", ch)
    x = RatExpr.variable(ch, "x")
    y = RatExpr.variable(ch, "y")
    got = subst(r, [y, x])
    assert got == parse_scalar("(x+y)^2/y", ch)
    assert eval_at(r, [1, 2]) == 9
    with pytest.raises(ZeroDivisionError):
        eval_at(r, [0, 1])


def test_equality_is_semantic(ch):
    a = parse_scalar("(x^2+2*x+1)/(x+1)", ch)
    b = parse_scalar("x+1", ch)
    assert a == b
    assert hash(a) == hash(b)


def test_constant_factor_takes_no_gcd(monkeypatch, czx):
    """A nonzero constant scales the numerator and keeps the reduced monic
    denominator: the same value as reducing the product again."""
    v = parse_scalar("(z + 2*i*zb)/(3*z*zb - 1)", czx)
    ks = [3, -1, GaussianRational(Fraction(-2, 5), 1),
          RatExpr.const(czx, GaussianRational(0, 7))]
    want = {}
    for k in ks:
        c = (k if isinstance(k, RatExpr) else RatExpr.const(czx, k)).num
        want[id(k)] = (RatExpr(czx, v.num * c, v.den), RatExpr(czx, v.num, v.den * c))
    calls = []
    gcd = ratexpr.poly_gcd

    def counting(p, q):
        calls.append((p, q))
        return gcd(p, q)

    monkeypatch.setattr(ratexpr, "poly_gcd", counting)
    for k in ks:
        product, quotient = want[id(k)]
        assert k * v == product and v * k == product
        assert v / k == quotient
    assert (0 * v).is_zero() and (v * RatExpr.zero(czx)).is_zero()
    assert calls == []
    assert v * v == RatExpr(czx, v.num * v.num, v.den * v.den)
    assert calls


def test_polynomial_plus_fraction_takes_no_gcd(monkeypatch, czx):
    """(n + p d)/d is reduced whenever n/d is: adding a polynomial to a
    reduced fraction gives the value a reduction would, without a gcd."""
    v = parse_scalar("(z + 2*i*zb)/(3*z*zb - 1)", czx)
    ps = [parse_scalar(t, czx) for t in ("z^2 - i*zb", "1/2", "-z*zb")]
    want = [RatExpr(czx, v.num + p.num * v.den, v.den) for p in ps]
    calls = []
    gcd = ratexpr.poly_gcd

    def counting(p, q):
        calls.append((p, q))
        return gcd(p, q)

    monkeypatch.setattr(ratexpr, "poly_gcd", counting)
    for p, w in zip(ps, want):
        assert v + p == w and p + v == w
        assert v - p == v + (-p) and p - v == -(v - p)
    assert (v + 2) - 2 == v
    assert calls == []


def test_powers_and_conjugates_take_no_gcd(monkeypatch, czx):
    """Powers and conjugates of a reduced fraction are reduced and only
    made monic; the constructor takes one gcd of numerator and
    denominator.  The conjugate and the negative power below have
    denominators that must be rescaled to monic."""
    a = parse_scalar("(3*z + 2*i*zb)/(2*z^2 + zb^2 - i*z)", czx)
    n, d, c = a.num, a.den, parse_scalar("z*zb - 1", czx).num
    perm = czx.conj_perm()
    want = [RatExpr(czx, n.conjugate(perm), d.conjugate(perm)),
            RatExpr(czx, n ** 3, d ** 3), RatExpr(czx, d ** 2, n ** 2)]
    calls = []
    gcd = ratexpr.poly_gcd

    def counting(p, q):
        calls.append((p, q))
        return gcd(p, q)

    monkeypatch.setattr(ratexpr, "poly_gcd", counting)
    got = [a.conj(), a ** 3, a ** -2]
    assert calls == []
    assert got == want
    assert RatExpr(czx, n * c, d * c) == a
    assert len(calls) == 1


def test_polynomial_results_keep_the_chart_unit(czx):
    """Every polynomial result has the chart's one unit as denominator,
    also where a fraction cancels to a polynomial: forms sum the terms
    with that denominator on integers, and pick them by identity."""
    unit = czx.unit
    r = parse_scalar("(3*z + 2*i*zb)^2 - z*zb/2", czx)
    s = parse_scalar("z - i", czx)
    q = parse_scalar("z*zb/(z - i)", czx)
    cancelling = parse_scalar("(z^2 - i*z - z*zb)/(z - i)", czx)
    results = [r, s, r.conj(), r ** 3, r ** 0, -r, r.diff(0), r.diff("zb"),
               r * s, r + s, r - s, r / 3, r / GaussianRational(0, 2),
               q * s, (1 / s) ** -2, q + cancelling,
               RatExpr(czx, r.num, parse_scalar("3", czx).num),
               RatExpr.const(czx, 2), RatExpr.variable(czx, 1)]
    assert all(x.den.is_one() for x in results)
    assert [x for x in results if x.den is not unit] == []


def test_raw_constructor_stores_the_chart_unit(ch, czx):
    """_of stores chart.unit for any denominator equal to 1, also one
    built elsewhere or taken from an equal but distinct chart."""
    for chart, other in ((ch, Chart(ch.names)), (czx, Chart(
            czx.names, kind="complex", pairs=czx.pairs))):
        p = RatExpr.variable(chart, 0).num
        for one in (Poly.const(chart.n, 1), other.unit):
            x = RatExpr._of(chart, p, one)
            assert x.den is chart.unit and x.is_poly()


def test_integer_arithmetic_builds_no_scalars(monkeypatch, czx):
    """+, *, diff and conj on denominator-1 expressions with Gaussian-
    integer coefficients run on ints: no GaussianRational is built."""
    z, zb = RatExpr.variable(czx, "z"), RatExpr.variable(czx, "zb")
    i = RatExpr.const(czx, GaussianRational(0, 1))
    a = (z + i * zb) * (z - 2) + 5
    b = 3 * zb * zb - i * z
    built = []
    init = GaussianRational.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(GaussianRational, "__init__", counting)
    got = [a + b, a - b, a * b, 2 * a, a * i, a.diff(0), b.diff("zb"),
           a.conj(), (a * b).conj().diff(1) + b]
    assert built == []
    assert got[2].num.terms  # the GaussianRational view is counted
    assert built


def test_gcd_arguments_are_no_larger_than_the_operands(monkeypatch, czx):
    """No poly_gcd argument has more terms than the two operands together,
    the size of an operand being that of its larger polynomial.  A
    product cross-cancels each numerator against the other denominator;
    a sum takes the gcd of the two denominators and, when they share a
    factor g, the gcd of g with t = a (d/g) + c (b/g), which here, with
    denominators that are coprime or differ by monomials, has at most the
    terms of the two numerators.  Reducing (a c)/(b d) or (a d + c b)/(b d)
    would take gcds of the products."""
    f, g, h = (parse_scalar(t, czx) for t in
               ("z + zb + 1", "z*zb - 2*i", "zb^2 + 3*z - 1"))
    n1, n2 = (parse_scalar(t, czx) for t in ("z^2 + i*zb + 2", "3*z*zb + zb - 1"))
    d1, d2 = (parse_scalar(t, czx) for t in ("z - zb + 5", "z*zb + zb + 4"))
    z, zb = RatExpr.variable(czx, "z"), RatExpr.variable(czx, "zb")
    a = n1 * f / (d1 * g)
    cases = [
        ("*", a, n2 * g / (d2 * f)),   # gcd(a, d) and gcd(c, b) nontrivial
        ("/", a, d2 * f / (n2 * g)),
        ("+", a, n2 / d2),             # coprime denominators
        ("+", a, n2 * h / (d1 * g)),   # one denominator
        ("+", n1 / (g * h * z), n2 / (g * h * zb)),  # a shared factor g h
        ("+", a, -a + n2 / (d1 * g)),
    ]
    calls = []
    gcd = ratexpr.poly_gcd

    def recording(p, q):
        calls.append((p, q))
        return gcd(p, q)

    for op, u, v in cases:
        size = max(u.num.nterms(), u.den.nterms()) + max(v.num.nterms(), v.den.nterms())
        monkeypatch.setattr(ratexpr, "poly_gcd", recording)
        del calls[:]
        got = u * v if op == "*" else u / v if op == "/" else u + v
        monkeypatch.setattr(ratexpr, "poly_gcd", gcd)
        assert calls, op
        assert max(p.nterms() for pair in calls for p in pair) <= size, op
        if op == "*":
            assert got == RatExpr(czx, u.num * v.num, u.den * v.den)
        elif op == "/":
            assert got == RatExpr(czx, u.num * v.den, u.den * v.num)
        else:
            assert got == RatExpr(czx, u.num * v.den + v.num * u.den, u.den * v.den)
