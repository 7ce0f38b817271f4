import time

import pytest

from poissonforms import polynomials
from poissonforms.parsing import (MAX_DEPTH, MAX_EXPONENT, MAX_TERMS,
                                  ParseError, parse_form, parse_scalar)
from poissonforms.printing import form_str, ratexpr_str
from poissonforms.ratexpr import Chart, RatExpr
from poissonforms.scalars import GaussianRational


@pytest.fixture
def ch():
    return Chart(("x", "y"))


@pytest.fixture
def czx():
    return Chart(("z", "zb"), kind="complex", pairs=(("z", "zb"),))


def test_scalar_literals(ch):
    assert parse_scalar("3", ch) == 3
    assert parse_scalar("-1/2", ch) == GaussianRational(0) - GaussianRational(1) / 2
    assert parse_scalar("i^2", ch) == -1
    assert parse_scalar("2*i", ch) == GaussianRational(0, 2)


def test_precedence(ch):
    assert parse_scalar("x+y*x", ch) == parse_scalar("x+(y*x)", ch)
    assert parse_scalar("x-y-x", ch) == parse_scalar("-y", ch)
    assert parse_scalar("x/y/x", ch) == parse_scalar("1/y", ch)
    assert parse_scalar("2*x^2", ch) == parse_scalar("2*(x^2)", ch)
    assert parse_scalar("x^-1", ch) == parse_scalar("1/x", ch)
    assert parse_scalar("-x^2", ch) == parse_scalar("-(x^2)", ch)


def test_no_implicit_multiplication(ch):
    with pytest.raises(ParseError):
        parse_scalar("2x", ch)
    with pytest.raises(ParseError):
        parse_scalar("x y", ch)


def test_errors_carry_position(ch):
    with pytest.raises(ParseError) as e:
        parse_scalar("x+q", ch)
    assert e.value.pos == 2
    with pytest.raises(ParseError):
        parse_scalar("x+", ch)
    with pytest.raises(ParseError):
        parse_scalar("(x", ch)
    with pytest.raises(ParseError):
        parse_scalar("x)", ch)
    with pytest.raises(ParseError):
        parse_scalar("d[x]", ch)
    with pytest.raises(ParseError):
        parse_scalar("x/0", ch)
    with pytest.raises(ParseError):
        parse_scalar("x @ y", ch)


def test_nesting_depth_is_bounded(ch):
    for text in ("(" * 3000 + "x" + ")" * 3000, "-" * 3000 + "x",
                 "d[x]^" * 3000 + "d[y]"):
        with pytest.raises(ParseError, match="nested more than"):
            parse_form(text, ch)
    ok = MAX_DEPTH - 1
    assert parse_scalar("(" * ok + "x" + ")" * ok, ch) == parse_scalar("x", ch)
    assert parse_scalar("-" * ok + "x", ch) == parse_scalar("-x", ch)
    with pytest.raises(ParseError):
        parse_scalar("(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH, ch)


def test_exponent_is_bounded(ch):
    x = RatExpr.variable(ch, "x")
    assert parse_scalar(f"x^{MAX_EXPONENT}", ch) == x ** MAX_EXPONENT
    assert parse_scalar(f"x^-{MAX_EXPONENT}", ch) == x ** -MAX_EXPONENT
    assert parse_scalar("(x^10)^10", ch) == x ** 100
    assert parse_scalar("x^60*x^60", ch) == x ** 120
    for text in ("10^100000000", f"x^{MAX_EXPONENT + 1}",
                 f"x^-{MAX_EXPONENT + 1}", "((x + 1)^11)^10",
                 "(2*(y + x^11)^3)^4", "-(x^-2)^51"):
        with pytest.raises(ParseError, match="exponent above"):
            parse_scalar(text, ch)


def test_powers_of_zero(ch):
    """0^0 is 1, as x^0 and RatExpr.__pow__(0) are; a negative power of
    zero is a division by zero."""
    for text in ("0^0", "(x-x)^0", "(0)^0", "-0^0"):
        assert parse_scalar(text, ch) == (-1 if text[0] == "-" else 1)
    assert parse_scalar("0^3", ch) == 0
    assert parse_scalar("(x-x)^2 + 0^0*x", ch) == RatExpr.variable(ch, "x")
    for text in ("0^-1", "(x-x)^-2", "(0^0 - 1)^-1"):
        with pytest.raises(ParseError, match="division by zero"):
            parse_scalar(text, ch)


def test_expansion_size_is_bounded():
    """Sums, products, quotients, wedges and powers are refused before
    they are expanded when the predicted term count exceeds MAX_TERMS."""
    ch = Chart(("a", "b", "c", "d"))
    assert MAX_TERMS == 1000
    # (a+b+c+d+1)^9 has C(13, 9) = 715 terms; ^10 would have 1001
    assert len(parse_scalar("(a+b+c+d+1)^9", ch).num.terms) == 715
    assert len(parse_scalar("(a+b+c+d+1)^-9", ch).den.terms) == 715
    six = "*".join(f"(a+{k}*b+c+d+{k})" for k in range(1, 7))
    assert len(parse_scalar(six, ch).num.terms) == 210
    # a sum of fractions multiplies their denominators; a sum of
    # polynomials only adds their terms
    fractions = "+".join(f"1/(a+b+c+d+{k})" for k in range(1, 9))
    polynomial = "+".join(f"a^{i}*b^{j}*c^{k}" for i in range(10)
                          for j in range(10) for k in range(9))
    assert len(parse_scalar(polynomial, ch).num.terms) == 900
    for text in ("(a+b+c+d+1)^10", "(a+b+c+d+1)^-10", "(a+b+c+d+1)^16",
                 six + "*(a+b+c+d+7)", six + "/(a+b+c+d+7)",
                 "(a+b)^40*(c+d)^40", fractions):
        with pytest.raises(ParseError, match="predicted to exceed"):
            parse_scalar(text, ch)
    # a wedge of forms is a product of their sizes as well
    with pytest.raises(ParseError, match="predicted to exceed"):
        parse_form("(a+b+c+d+1)^4*d[a]^(a+b+c+d+1)^4*d[b]", ch)


def test_long_sum_is_accumulated_once(monkeypatch):
    """A sum of many terms costs the size of its terms, not the square of
    it: the 900-term polynomial above parses well within a second, and
    the coefficient entries merged into sums number a few per term, where
    adding the running value to each term would merge about 900^2/2."""
    ch = Chart(("a", "b", "c", "d"))
    polynomial = "+".join(f"a^{i}*b^{j}*c^{k}" for i in range(10)
                          for j in range(10) for k in range(9))
    merge = polynomials._merge
    visited = []

    def counting(terms, coeffs, m):
        visited.append(len(coeffs))
        merge(terms, coeffs, m)

    monkeypatch.setattr(polynomials, "_merge", counting)
    start = time.perf_counter()
    got = parse_scalar(polynomial, ch)
    assert time.perf_counter() - start < 1.0
    assert got.num.nterms() == 900
    assert 900 <= sum(visited) <= 3 * 900


def test_sums_mixing_polynomials_and_fractions(ch):
    x, y = RatExpr.variable(ch, "x"), RatExpr.variable(ch, "y")
    assert parse_scalar("x + 1/y + x - 1/y", ch) == 2 * x
    assert parse_scalar("x - x + y/2 - 1/x + 1/x + y/3", ch) == y * GaussianRational(5) / 6
    assert parse_scalar("1/x + x + y - y", ch) == x + 1 / x
    assert parse_form("x*d[x] + d[y] - x*d[x] - d[y] + 1", ch) == parse_form("1", ch)


def test_form_grammar(czx):
    w = parse_form("d[z]^d[zb]", czx)
    assert w.degree() == 2
    assert parse_form("d[zb]^d[z]", czx) == -w
    assert parse_form("z*d[z] - d[z]*z", czx).is_zero()
    with pytest.raises(ParseError):
        parse_form("1/d[z]", czx)
    with pytest.raises(ParseError):
        parse_form("d[w]", czx)


def test_roundtrip_scalar(ch):
    cases = [
        "0",
        "1",
        "-3/4",
        "i",
        "x",
        "x + 1",
        "x^2 - y",
        "2*i*x",
        "(1+2*i)*x*y - i",
        "x/y",
        "(x + 1)/(x*y + 2)",
        "(-x)/(y + 1)",
        "(x^2 + 2*x*y + 1)/(y^2 + 1)",
    ]
    for s in cases:
        r = parse_scalar(s, ch)
        assert ratexpr_str(r) == s
        assert parse_scalar(ratexpr_str(r), ch) == r


def test_roundtrip_form(czx):
    cases = [
        "0",
        "z + 1",
        "d[z]",
        "-d[zb]",
        "z*d[z]",
        "(z + 1)*d[zb]",
        "zb/(z*zb + 1)*d[z]",
        "d[z]^d[zb]",
        "z^2*d[z]^d[zb]",
        "1 + z*d[z] + d[z]^d[zb]",
    ]
    for s in cases:
        w = parse_form(s, czx)
        assert form_str(w) == s
        assert parse_form(form_str(w), czx) == w


def test_print_order_is_canonical(ch):
    a = parse_scalar("y + x^2 + 1", ch)
    assert ratexpr_str(a) == "x^2 + y + 1"
    b = parse_form("d[y] + x*d[x] + 5", ch)
    assert form_str(b) == "5 + x*d[x] + d[y]"
