from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from poissonforms.forms import DiffForm, _signed_sum, sort_indices
from poissonforms.parsing import parse_form, parse_scalar
from poissonforms.polynomials import Poly
from poissonforms.ratexpr import Chart, RatExpr
from poissonforms.scalars import GaussianRational

from identities import pairwise_signed_sum


@pytest.fixture
def ch3():
    return Chart(("x", "y", "z"))


@pytest.fixture
def czx():
    return Chart(("z", "zb"), kind="complex", pairs=(("z", "zb"),))


def test_merge_indices():
    # the wedge product merges two increasing index tuples by sorting
    # their concatenation
    assert sort_indices((0,) + (1,)) == (1, (0, 1))
    assert sort_indices((1,) + (0,)) == (-1, (0, 1))
    assert sort_indices((0,) + (0,)) == (0, None)
    assert sort_indices((0, 2) + (1, 3)) == (-1, (0, 1, 2, 3))
    assert sort_indices((0, 2) + (2,)) == (0, None)
    assert sort_indices(() + (0, 1)) == (1, (0, 1))


def test_sort_indices():
    assert sort_indices((2, 0, 1)) == (1, (0, 1, 2))
    assert sort_indices((1, 0)) == (-1, (0, 1))
    assert sort_indices((1, 1)) == (0, None)


def test_wedge_anticommutes_on_one_forms(ch3):
    dx = DiffForm.d_coord(ch3, "x")
    dy = DiffForm.d_coord(ch3, "y")
    assert dx * dy == -(dy * dx)
    assert (dx * dx).is_zero()
    assert not (dx * dx) and dx * dy
    f = parse_form("x*y", ch3)
    assert f * dx == dx * f


def test_wedge_graded_commutative(ch3):
    a = parse_form("x*d[x] + d[y]", ch3)
    b = parse_form("d[y]^d[z]", ch3)
    assert a * b == b * a
    c = parse_form("d[x]", ch3)
    assert c * a.homogeneous_part(1) == -(a.homogeneous_part(1) * c)


def test_ext_d_basic(ch3):
    f = parse_form("x^2*y", ch3)
    assert f.ext_d() == parse_form("2*x*y*d[x] + x^2*d[y]", ch3)
    w = parse_form("x*d[y]", ch3)
    assert w.ext_d() == parse_form("d[x]^d[y]", ch3)


def test_ext_d_squares_to_zero(ch3):
    w = parse_form("x*y*z*d[x] + x^2*d[y] + (x/(z+1))*d[z]", ch3)
    assert w.ext_d().ext_d().is_zero()
    f = parse_form("(x+y)^3/(z+2)", ch3)
    assert f.ext_d().ext_d().is_zero()


def test_ext_d_is_kept_on_the_form(ch3):
    f = parse_form("x*y*d[z] + z^2", ch3)
    assert f.ext_d() is f.ext_d()
    assert f.ext_d() == parse_form("y*d[x]^d[z] + x*d[y]^d[z] + 2*z*d[z]", ch3)


def test_zero_operands(ch3):
    f = parse_form("x*d[y] + y/(x+1)", ch3)
    zero = DiffForm.zero(ch3)
    assert f + 0 == f and 0 + f == f and f - 0 == f
    assert 0 - f == -f and zero - f == -f
    assert f + zero is f and zero + f is f
    assert f * 0 == 0 and 0 * f == 0
    assert (f * zero).is_zero() and (zero * f).is_zero()


def test_ext_d_leibniz(ch3):
    a = parse_form("x*d[x]", ch3)
    b = parse_form("y*d[z]", ch3)
    lhs = (a * b).ext_d()
    rhs = a.ext_d() * b - a * b.ext_d()
    assert lhs == rhs


def test_holo_split(czx):
    f = parse_form("z^2*zb", czx)
    assert f.d_holo() == parse_form("2*z*zb*d[z]", czx)
    assert f.d_antiholo() == parse_form("z^2*d[zb]", czx)
    assert f.d_holo() + f.d_antiholo() == f.ext_d()
    w = parse_form("z*d[zb]", czx)
    assert w.d_holo() == parse_form("d[z]^d[zb]", czx)
    assert w.d_antiholo().is_zero()


def test_star_involution_on_forms(czx):
    w = parse_form("i*z*d[z]", czx)
    assert w.star() == parse_form("-i*zb*d[zb]", czx)
    two = parse_form("z*d[z]^d[zb]", czx)
    assert two.star() == parse_form("-zb*d[zb]^d[z]", czx)
    assert two.star() == parse_form("zb*d[z]^d[zb]", czx)
    assert two.star().star() == two


def test_bidegree(czx):
    w = parse_form("z*d[z]^d[zb]", czx)
    assert w.bidegree() == (1, 1)
    assert parse_form("d[zb]", czx).bidegree() == (0, 1)
    mixed = parse_form("d[z] + d[zb]", czx)
    with pytest.raises(ValueError):
        mixed.bidegree()
    assert mixed.bidegree_part(1, 0) == parse_form("d[z]", czx)
    assert w.bidegrees() == {(1, 1)}
    assert mixed.bidegrees() == {(1, 0), (0, 1)}
    assert parse_form("zb + z*d[z]^d[zb] + d[zb]", czx).bidegrees() == {
        (0, 0), (1, 1), (0, 1)}
    assert DiffForm.zero(czx).bidegrees() == set()
    every = parse_form("zb + z*d[z] - d[zb] + z*zb*d[z]^d[zb]", czx)
    assert every.bidegrees() == {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert sum((every.bidegree_part(*pq) for pq in every.bidegrees()),
               DiffForm.zero(czx)) == every
    assert DiffForm.zero(czx).bidegree() == (0, 0)


def test_wedge_sign_example(ch3):
    a = parse_form("x*d[y]", ch3)
    b = parse_form("y*d[x]", ch3)
    assert a * b == parse_form("-x*y*d[x]^d[y]", ch3)


def test_holo_split_identities(czx):
    w = parse_form("z^2*zb*d[z] + (z/(zb+2))*d[zb] + z*zb", czx)
    assert (w.d_holo().d_holo()).is_zero()
    assert (w.d_antiholo().d_antiholo()).is_zero()
    assert w.d_holo().d_antiholo() + w.d_antiholo().d_holo() == DiffForm.zero(czx)
    assert w.d_holo() + w.d_antiholo() == w.ext_d()


def test_star_antihomomorphism(czx):
    a = parse_form("z*d[z] + d[zb]", czx)
    b = parse_form("(1+2*i)*d[zb] + zb", czx)
    assert (a * b).star() == b.star() * a.star()
    assert parse_form("i", czx).star() == parse_form("-i", czx)


def test_complex_ops_need_complex_chart(ch3):
    w = parse_form("x*d[y]", ch3)
    with pytest.raises(ValueError):
        w.star()
    with pytest.raises(ValueError):
        w.d_holo()
    with pytest.raises(ValueError):
        w.d_antiholo()


def test_coeff_signed(ch3):
    w = parse_form("x*d[x]^d[y]", ch3)
    x = RatExpr.variable(ch3, "x")
    assert w.coeff((0, 1)) == x
    assert w.coeff((1, 0)) == -x
    assert w.coeff((0, 2)).is_zero()


@st.composite
def index_tuples(draw, n=4, maxlen=3):
    k = draw(st.integers(min_value=0, max_value=maxlen))
    idxs = draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                         min_size=k, max_size=k, unique=True))
    return tuple(idxs)


@given(a=index_tuples(), b=index_tuples())
@settings(max_examples=60, deadline=None)
def test_wedge_sign_matches_sorting(a, b):
    """The wedge of the differentials of a, then of b, is the sorted
    monomial times the sign of the sorting permutation, counted by
    inversions, and zero when an index repeats."""
    ch = Chart(("w", "x", "y", "z"))

    def wedge(idxs):
        out = DiffForm.const(ch, 1)
        for i in idxs:
            out = out * DiffForm.d_coord(ch, i)
        return out

    got = wedge(a) * wedge(b)
    cat = a + b
    if len(set(cat)) < len(cat):
        assert got.is_zero()
    else:
        inversions = sum(1 for i in range(len(cat))
                         for j in range(i + 1, len(cat)) if cat[i] > cat[j])
        assert got.parts == {tuple(sorted(cat)):
                             RatExpr.const(ch, (-1) ** inversions)}


# -- the signed sum against its pairwise reference ---------------------

XYZ = Chart(("x", "y", "z"))
_halves = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2)))
_gaussians = st.builds(GaussianRational, _halves, _halves)
# Polynomials over chart.unit, with halves and Gaussian coefficients.
_polynomials = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 3), _gaussians, max_size=3
).map(lambda t: RatExpr(XYZ, Poly(3, t)))
# Rational functions, whose denominators are not the unit.
_rationals = st.builds(
    lambda p, j, c: p / (RatExpr.variable(XYZ, j) + c),
    _polynomials.filter(bool), st.integers(0, 2), st.integers(-2, 2))
_factors = st.one_of(_polynomials, _polynomials, _rationals, _gaussians)


@st.composite
def _terms(draw):
    """(idxs, s, factors) terms with at least one RatExpr factor each and
    indices that may repeat, then some of them again with the other sign,
    so that whole terms cancel."""
    terms = []
    for _ in range(draw(st.integers(0, 6))):
        factors = draw(st.lists(_factors, min_size=1, max_size=3))
        if not any(isinstance(f, RatExpr) for f in factors):
            factors.append(draw(_polynomials))
        idxs = tuple(draw(st.lists(st.integers(0, 3), max_size=3)))
        terms.append((idxs, draw(st.sampled_from((1, -1))), tuple(factors)))
    if terms:
        again = draw(st.lists(st.sampled_from(terms), max_size=3))
        terms += [(idxs, -s, factors) for idxs, s, factors in again]
    return draw(st.permutations(terms))


@given(_terms())
@settings(max_examples=80, deadline=None)
def test_signed_sum_matches_pairwise_sum(terms):
    got = _signed_sum(XYZ, terms)
    assert got == pairwise_signed_sum(XYZ, terms)
    assert all(c for c in got.parts.values())
    assert all(c.den is XYZ.unit for c in got.parts.values()
               if c.den.is_one())
    values = list(got.parts.values()) + [f for _, _, factors in terms
                                         for f in factors
                                         if isinstance(f, RatExpr)]
    assert all(c.is_poly() == c.den.is_one() for c in values)
