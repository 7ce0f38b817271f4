from fractions import Fraction

import pytest

from poissonforms.forms import DiffForm
from poissonforms.ratexpr import Chart, RatExpr
from poissonforms.scalars import GaussianRational, I, ONE, ZERO


def test_construction_and_equality():
    a = GaussianRational(1, 2)
    assert a.re == 1 and a.im == 2
    assert GaussianRational(3) == 3
    assert GaussianRational(Fraction(1, 2)) == Fraction(1, 2)
    assert ZERO == 0 and ONE == 1
    assert I == GaussianRational(0, 1)


def test_field_arithmetic():
    a = GaussianRational(1, 2)
    b = GaussianRational(3, -1)
    assert a + b == GaussianRational(4, 1)
    assert a - b == GaussianRational(-2, 3)
    assert a * b == GaussianRational(5, 5)
    assert (a / b) * b == a
    assert -a == GaussianRational(-1, -2)
    assert 2 * a == GaussianRational(2, 4)
    assert 1 - a == GaussianRational(0, -2)
    assert Fraction(1, 2) / a == GaussianRational(Fraction(1, 10),
                                                  Fraction(-1, 5))


def test_mixed_arithmetic_defers_to_the_other_operand():
    """An exact scalar, a GaussianRational or a Fraction, equals the
    constant expression and form it stands for, and on the left of an
    expression or a form gives the same result as on the right; other
    operands raise a TypeError that names them."""
    ch = Chart(("x",))
    x = RatExpr.variable(ch, 0)
    w = DiffForm.d_coord(ch, 0)
    for a in (GaussianRational(2, 1), Fraction(1, 2)):
        assert RatExpr.const(ch, a) == a and a == RatExpr.const(ch, a)
        assert DiffForm.const(ch, a) == a and a == DiffForm.const(ch, a)
        assert a * x == x * a
        assert a + x == x + a
        assert a - x == -(x - a)
        assert a / x == RatExpr.const(ch, a) / x
        assert x / a == x * RatExpr.const(ch, a) ** -1
        assert a * w == w * a == w.scale(a)
        assert a + w == w + a
        assert a - w == -(w - a)
    a = GaussianRational(2, 1)
    for op in (lambda: a / w, lambda: a * "x", lambda: "x" - a,
               lambda: a + 0.5, lambda: 0.5 / x, lambda: w.scale(0.5)):
        with pytest.raises(TypeError) as err:
            op()
        assert "NoneType" not in str(err.value)


def test_conjugate_and_norm():
    a = GaussianRational(Fraction(2, 3), Fraction(-1, 5))
    assert a.conjugate() == GaussianRational(Fraction(2, 3), Fraction(1, 5))
    assert a * a.conjugate() == GaussianRational(a.norm2())
    assert I * I == -1


def test_inverse_and_pow():
    a = GaussianRational(2, 1)
    assert a * a.inverse() == 1
    assert a ** 3 == a * a * a
    assert a ** 0 == 1
    assert a ** -2 == (a * a).inverse()
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_str_forms():
    assert str(GaussianRational(3)) == "3"
    assert str(GaussianRational(Fraction(-1, 2))) == "-1/2"
    assert str(I) == "i"
    assert str(-I) == "-i"
    assert str(GaussianRational(0, 2)) == "2*i"
    assert str(GaussianRational(1, 2)) == "1+2*i"
    assert str(GaussianRational(1, -2)) == "1-2*i"
    assert str(GaussianRational(Fraction(1, 2), Fraction(-3, 4))) == "1/2-3/4*i"
    assert str(ZERO) == "0"


def test_immutability_and_hash():
    a = GaussianRational(1, 2)
    with pytest.raises(AttributeError):
        a.re = 5
    assert hash(GaussianRational(3)) == hash(Fraction(3))
    assert len({GaussianRational(1, 2), GaussianRational(1, 2)}) == 1
