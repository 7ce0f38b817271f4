"""The sparse solver against the dense one it replaced.

`linalg` eliminates on dicts of nonzero entries.  `identities` keeps the
nested-list elimination it replaced; on random matrices over both entry
fields, singular ones, systems without a solution and matrices whose
pivots need row swaps included, both must give the same inverse,
determinant and particular solution.  The determinant is also checked
against its permutation expansion, which shares no code with either
elimination.
"""

import itertools
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from poissonforms.linalg import det_matrix, invert_matrix, solve
from poissonforms.ratexpr import Chart, RatExpr
from poissonforms.scalars import GaussianRational

from identities import (dense_det, dense_invert, dense_solve, sparse_matrix,
                        sparse_vector)

CHART = Chart(("x", "y"))
gr = GaussianRational

_nonzero = st.builds(gr, st.builds(Fraction, st.integers(-2, 2).filter(bool),
                                   st.integers(1, 2)),
                     st.sampled_from([0, 0, 1, -1]))
# About half of the entries are zero, so pivots often need a row swap.
_scalars = st.one_of(st.just(gr(0)), _nonzero)
_variables = st.sampled_from([RatExpr.variable(CHART, k) for k in range(2)])
_expressions = st.one_of(
    st.just(RatExpr.zero(CHART)),
    _nonzero.map(lambda c: RatExpr.const(CHART, c)),
    st.builds(lambda v, c, d: v * c + d, _variables, _nonzero, _scalars),
    st.builds(lambda v, c: 1 / (v + c), _variables, _nonzero))


@st.composite
def matrices(draw, entries, rows=None, cols=None):
    """A nested-list matrix; when `rows` is None it is square.  Half of
    them get a last row that combines the first and the second-to-last."""
    n = draw(st.integers(1, 3))
    nrows = n if rows is None else draw(rows)
    ncols = n if cols is None else draw(cols)
    M = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1 and draw(st.booleans()):
        k = draw(entries)
        M[-1] = [a * k + b for a, b in zip(M[0], M[-2])]
    return M


def permutation_det(M):
    """The Leibniz expansion: the signed sum over the permutations."""
    n = len(M)
    acc = M[0][0] * 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term = term * M[i][j]
        acc = acc + term
    return acc


def check_square(M):
    n = len(M)
    sparse = sparse_matrix(M)
    inv, want = invert_matrix(sparse, n), dense_invert(M)
    assert (inv is None) == (want is None)
    if want is not None:
        assert inv == sparse_matrix(want)
    det = det_matrix(sparse, n)
    assert det == dense_det(M)
    assert det == permutation_det(M)
    assert (det == 0) == (inv is None)


def check_system(A, b):
    W = solve(sparse_matrix(A), sparse_vector(b), len(A[0]))
    want = dense_solve(A, b)
    assert (W is None) == (want is None)
    if want is not None:
        assert W == sparse_vector(want)


Z, ONE, I = gr(0), gr(1), gr(0, 1)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(matrices(_scalars))
@example([[Z, ONE], [ONE, Z]])  # one row swap: determinant -1
@example([[Z, Z, ONE], [Z, ONE, Z], [ONE, Z, Z]])  # one swap again
@example([[Z, ONE, Z], [Z, Z, ONE], [ONE, Z, Z]])  # two swaps: +1
@example([[ONE, I], [I, gr(-1)]])  # singular
@example([[Z, Z], [Z, Z]])  # no entry at all
def test_square_scalar_matrices_match_dense(M):
    check_square(M)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(matrices(_expressions))
def test_square_expression_matrices_match_dense(M):
    check_square(M)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(matrices(_scalars, rows=st.integers(1, 4), cols=st.integers(1, 3)),
       st.data())
def test_scalar_systems_match_dense(A, data):
    b = data.draw(st.lists(_scalars, min_size=len(A), max_size=len(A)))
    check_system(A, b)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(matrices(_expressions, rows=st.integers(1, 3), cols=st.integers(1, 3)),
       st.data())
def test_expression_systems_match_dense(A, data):
    b = data.draw(st.lists(_expressions, min_size=len(A), max_size=len(A)))
    check_system(A, b)


def test_inconsistent_and_underdetermined_systems():
    A = [[ONE, ONE], [gr(2), gr(2)]]
    check_system(A, [ONE, gr(3)])  # inconsistent
    assert solve(sparse_matrix(A), sparse_vector([ONE, gr(3)]), 2) is None
    check_system(A, [ONE, gr(2)])  # one free variable, set to zero
    assert solve(sparse_matrix(A), sparse_vector([ONE, gr(2)]), 2) == {
        (0,): ONE}
    check_system([[Z, Z]], [ONE])  # 0 = 1
    check_system([[Z, ONE], [ONE, Z]], [gr(2), gr(3)])  # row swap
