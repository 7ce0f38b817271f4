"""Exact scalars: rational numbers extended by the imaginary unit.

A GaussianRational is a + b*i with a, b plain fractions.  It is the
public scalar type: parsed constants, printed coefficients, the entries
of the canonical constants and of the exact linear solver.  Polynomials
store their coefficients as Gaussian integers over a common integer
denominator instead (see polynomials), and convert to and from this type
only at their boundary.  Arithmetic is exact; there is no float anywhere.
"""

from __future__ import annotations

from fractions import Fraction


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {x!r}")


_EXACT = (int, Fraction)


class GaussianRational:
    """Immutable a + b*i with exact rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def coerce(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, _EXACT):
            return GaussianRational(x)
        raise TypeError(f"cannot coerce {x!r} to GaussianRational")

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_one(self) -> bool:
        return self.re == 1 and not self.im

    def is_real(self) -> bool:
        return not self.im

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic ---------------------------------------------------

    # A binary operator takes a GaussianRational, int or Fraction and
    # returns NotImplemented for anything else, so that Python tries the
    # reflected operator of the other operand (a RatExpr or a DiffForm).

    def __add__(self, other):
        if not isinstance(other, GaussianRational):
            if not isinstance(other, _EXACT):
                return NotImplemented
            other = GaussianRational(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        if not isinstance(other, SCALARS):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if not isinstance(other, _EXACT):
            return NotImplemented
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, GaussianRational):
            if not isinstance(other, _EXACT):
                return NotImplemented
            other = GaussianRational(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm2(self) -> Fraction:
        """|self|^2, an exact rational."""
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussianRational":
        n = self.norm2()
        if not n:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(self.re / n, -self.im / n)

    def __truediv__(self, other):
        if not isinstance(other, SCALARS):
            return NotImplemented
        return self * GaussianRational.coerce(other).inverse()

    def __rtruediv__(self, other):
        if not isinstance(other, _EXACT):
            return NotImplemented
        return GaussianRational(other) * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            return self.inverse() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparison ---------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, _EXACT):
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    # -- printing -----------------------------------------------------

    def __str__(self) -> str:
        if not self.im:
            return rational_str(self.re)
        if not self.re:
            return _imag_str(self.im)
        sign = "+" if self.im > 0 else "-"
        return f"{rational_str(self.re)}{sign}{_imag_str(abs(self.im))}"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


def _imag_str(b: Fraction) -> str:
    if b == 1:
        return "i"
    if b == -1:
        return "-i"
    return f"{rational_str(b)}*i"


def rational_str(q: Fraction) -> str:
    """str(q), for a rational of any size: the one way numbers are
    written out.  Python refuses str() of an int past its digit limit
    (sys.get_int_max_str_digits()), which keeps huge literals out of the
    input; a result that grows past it is still written in full."""
    if q.denominator == 1:
        return _int_str(q.numerator)
    return f"{_int_str(q.numerator)}/{_int_str(q.denominator)}"


def _int_str(n: int) -> str:
    """str(n) for an int of any size, by halving the digit string until
    each part is below the least digit limit Python allows (640)."""
    if n.bit_length() <= 2000:  # at most 603 digits
        return str(n)
    if n < 0:
        return "-" + _int_str(-n)
    k = n.bit_length() * 3 // 20  # about half the digits of n
    hi, lo = divmod(n, 10 ** k)
    return _int_str(hi) + _int_str(lo).zfill(k)


# The exact scalars: the operands GaussianRational arithmetic takes, and
# the constants RatExpr and DiffForm take.
SCALARS = (GaussianRational, *_EXACT)

ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)
