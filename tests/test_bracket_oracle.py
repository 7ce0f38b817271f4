"""The bracket of two forms against the recursion that defines it.

`PoissonStructure.bracket` sums closed-form terms over the generator
tables `bracket_scalars`, `coord_dx` and `dx_dx`.  The reference below
computes the same bracket the way it is defined: bilinearly over
monomial terms, peeling the second argument by the graded derivation
rule, flipping a function into the second slot by antisymmetry, and
peeling one differential at a time, each step a product or sum of
`DiffForm`s.  The two must agree exactly on forms of every degree from
0 to n, on real and complex charts, with a zero connection, a random
one, a rational one, and on pairs (P, Gamma) where Jacobi fails, since
there the bracket is whatever this recursion makes it.
"""

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from poissonforms.bracket import (PoissonStructure, SamplePlan, random_form,
                                  random_scalar, verify_axioms)
from poissonforms.forms import DiffForm
from poissonforms.geometry import cyclic_jacobi
from poissonforms.ratexpr import Chart, RatExpr

from identities import darboux_p
from test_bracket import sphere_structure


def _dx_form(s, idxs):
    return (DiffForm(s.chart, {idxs: RatExpr.one(s.chart)}) if idxs
            else DiffForm.const(s.chart, 1))


def _fn_dx(s, c, j):
    """(c, dx^j) for a function c, by the chain rule on coordinates."""
    out = DiffForm.zero(s.chart)
    for g in range(s.n):
        dc = c.diff(g)
        if dc:
            out = out + DiffForm.from_scalar(dc) * s.coord_dx(g, j)
    return out


def _dx_dxs(s, j, I):
    """(dx^j, dxI) with I nonempty."""
    i1, rest = I[0], I[1:]
    out = s.dx_dx(j, i1) * _dx_form(s, rest)
    if rest:
        out = out - _dx_form(s, (i1,)) * _dx_dxs(s, j, rest)
    return out


def _br_one_dx(s, a, I, j):
    """(a dxI, dx^j)."""
    if not I:
        return _fn_dx(s, a, j)
    inner = -(_fn_dx(s, a, j) * _dx_form(s, I))
    inner = inner + DiffForm.from_scalar(a) * _dx_dxs(s, j, I)
    if len(I) % 2 == 0:
        inner = -inner
    return inner


def _br_form_dxs(s, a, I, J):
    """(a dxI, dxJ) with J nonempty."""
    j1, rest = J[0], J[1:]
    out = _br_one_dx(s, a, I, j1) * _dx_form(s, rest)
    if rest:
        sub = _dx_form(s, (j1,)) * _br_form_dxs(s, a, I, rest)
        if len(I) % 2:
            sub = -sub
        out = out + sub
    return out


def _br_fn_dxs(s, b, I):
    """(b, dxI) for a function b, peeling one factor at a time."""
    head = _fn_dx(s, b, I[0])
    rest = I[1:]
    out = head * _dx_form(s, rest)
    if rest:
        out = out + _dx_form(s, (I[0],)) * _br_fn_dxs(s, b, rest)
    return out


def _br_mono_fn(s, a, I, b):
    """(a dxI, b) with b a function: flip, then expand (b, a dxI)."""
    fb = s.bracket_scalars(b, a)
    out = DiffForm.from_scalar(fb) * _dx_form(s, I)
    if I:
        out = out + DiffForm.from_scalar(a) * _br_fn_dxs(s, b, I)
    return -out


def _br_mono(s, a, I, b, J):
    """(a dxI, b dxJ): peel the second argument by the derivation rule."""
    if J:
        t1 = _br_mono_fn(s, a, I, b) * _dx_form(s, J)
        t2 = DiffForm.from_scalar(b) * _br_form_dxs(s, a, I, J)
        return t1 + t2
    return _br_mono_fn(s, a, I, b)


def reference_bracket(s, f, g):
    out = DiffForm.zero(s.chart)
    for idxf, a in f.parts.items():
        for idxg, b in g.parts.items():
            out = out + _br_mono(s, a, idxf, b, idxg)
    return out


# -- structures ----------------------------------------------------------


def _real(n):
    return Chart(tuple("xyzw"[:n]))


def _complex(m):
    holo = tuple(f"z{k}" for k in range(m))
    anti = tuple(f"w{k}" for k in range(m))
    return Chart(holo + anti, kind="complex", pairs=tuple(zip(holo, anti)))


def _random_p(chart, rng):
    """A random polynomial P, antisymmetric and, on a complex chart,
    hermitian; the graded Jacobi identity fails for almost every one."""
    n = chart.n
    pr = chart.conj_perm()
    zero = RatExpr.zero(chart)
    P = [[zero] * n for _ in range(n)]
    seen = set()
    for a in range(n):
        for b in range(a + 1, n):
            if (a, b) in seen:
                continue
            r = random_scalar(chart, rng, 2)
            if chart.is_complex():
                if (pr[b], pr[a]) == (a, b):
                    r = r + r.conj()
                P[pr[b]][pr[a]], P[pr[a]][pr[b]] = r.conj(), -r.conj()
                seen |= {(pr[b], pr[a]), (pr[a], pr[b])}
            P[a][b], P[b][a] = r, -r
    return P


def _random_gamma(chart, rng, rational):
    """A sparse random connection; with `rational`, some entries are
    quotients by a shared nonconstant denominator."""
    n = chart.n
    zero = RatExpr.zero(chart)
    den = random_scalar(chart, rng, 2) + RatExpr.variable(chart, 0) + 1
    G = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if rng.random() < 0.4:
                    v = random_scalar(chart, rng, 1)
                    G[a][b][c] = v / den if rational and rng.random() < 0.5 else v
    return G


def _structure(chart, p, gamma, seed):
    rng = random.Random(seed)
    P = darboux_p(chart) if p == "darboux" else _random_p(chart, rng)
    G = None if gamma == "zero" else _random_gamma(chart, rng,
                                                    gamma == "rational")
    return PoissonStructure(chart, P, G)


STRUCTURES = {
    "real2-darboux-flat": lambda: _structure(_real(2), "darboux", "zero", 1),
    "real4-darboux-flat": lambda: _structure(_real(4), "darboux", "zero", 2),
    "real3-random-p-flat": lambda: _structure(_real(3), "random", "zero", 3),
    "real2-darboux-gamma": lambda: _structure(_real(2), "darboux", "random", 4),
    "real3-random-p-gamma": lambda: _structure(_real(3), "random", "random", 5),
    "real2-random-p-rational": lambda: _structure(_real(2), "random",
                                                  "rational", 6),
    "complex2-sphere": sphere_structure,
    "complex2-random-p-gamma": lambda: _structure(_complex(1), "random",
                                                  "random", 9),
    "complex4-random-p-gamma": lambda: _structure(_complex(2), "random",
                                                  "random", 10),
    "complex4-darboux-rational": lambda: _structure(_complex(2), "darboux",
                                                    "rational", 8),
}


@functools.cache
def _built(name):
    return STRUCTURES[name]()


def _mixed_form(chart, rng):
    """A sum of random homogeneous forms of distinct degrees in [0, n].
    Coefficients are linear: with a rational connection, quadratic ones
    make a few brackets reach `poly_gcd` inputs that take minutes."""
    out = DiffForm.zero(chart)
    for k in rng.sample(range(chart.n + 1), rng.randint(1, 2)):
        out = out + random_form(chart, rng, 1, k)
    return out


@pytest.mark.parametrize("name", sorted(STRUCTURES))
@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_bracket_matches_recursion(name, seed):
    s = _built(name)
    rng = random.Random(seed)
    f = _mixed_form(s.chart, rng)
    g = _mixed_form(s.chart, rng)
    assert s.bracket(f, g) == reference_bracket(s, f, g)
    assert s.bracket(g, f) == reference_bracket(s, g, f)


def test_structures_include_non_poisson_ones():
    """Jacobi fails on these structures, so the comparison covers brackets
    that no bracket law constrains: for functions where P itself is not
    Poisson, and on some generator triple of the two-dimensional ones."""
    for name in ("real3-random-p-flat", "real3-random-p-gamma",
                 "complex4-random-p-gamma"):
        assert not cyclic_jacobi(_built(name)).is_zero(), name
    for name in ("real2-darboux-gamma", "complex2-random-p-gamma"):
        rep = verify_axioms(_built(name), SamplePlan(count=0))
        assert any(c.name == "axiom-jacobi" for c in rep.failures), name
