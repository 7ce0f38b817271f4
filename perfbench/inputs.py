"""Seeded inputs and known answers for the benchmark workloads.

This module does not import poissonforms.  The inputs are generated here
from the workload seed, and the expected verdicts follow from the
mathematics, so neither depends on the program under test.

A workload is a cycle of 32 job slots.  Each slot is one structure taken
through its battery, either through the public API or through
``cli.main(argv)``.  Every slot has its own inputs (its own sample seed,
triple or connection), so the median of a run averages over several
inputs and a change of seed moves it little.  Each workload mixes two
job types, a majority type A and a minority type B, in a fixed pattern
that keeps their shares in any prefix of the cycle.  On ``flat`` B (the
four-dimensional structure) is the slow type and the pattern is

    A A B A B A A B

so A is 5/8 and B is 3/8 of the jobs: the median falls inside A and the
tail (the slowest quarter) inside B, each 1/8 of the jobs away from the
boundary.  On ``curved`` and ``broken`` A is the slow type
(complex charts from ``onedim build``; the random connection) and the
pattern is A A A B A A A B: both the median and the tail fall inside A,
at least 1/4 of the jobs away from B.  There the fast type B, whose cost
varies more with the sample seed, moves neither.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

# Four repeats make a cycle longer than a run, so every job of a run has
# inputs of its own and the median averages over them.
PATTERN = "AABABAAB" * 4
PATTERN_SLOW_MAJORITY = "AAABAAAB" * 4

# Known answers.  An empty set means every check passes (exit 0).
PASS = ()

# A connection on Darboux-2 (constant P) that is not special: the laws
# that hold for every connection (degree, derivation, and jacobi-cyclic,
# since P is constant) pass, and every law that constrains the connection
# fails.
BROKEN_DARBOUX = ("axiom-antisymmetry", "axiom-dleibniz", "axiom-jacobi",
                  "curvature-transport", "flatness", "poisson-parallel")

# P = z*zb + 1 with Gamma = 0: dP is not zero, so every Leibniz law for d,
# its holomorphic and antiholomorphic parts, and parallel transport of P
# fail.  The bracket is then (f, g) dx^I dx^J up to sign, so antisymmetry,
# Jacobi (two dimensions), hermiticity and bidegree hold, and a zero
# connection is flat and block diagonal.
BROKEN_SPHERE = ("axiom-dleibniz", "axiom-dleibniz-antiholo",
                 "axiom-dleibniz-holo", "delta-leibniz", "deltabar-leibniz",
                 "poisson-parallel")

WORKLOADS = ("flat", "curved", "product4", "broken")

# Constants files in the program's format: sparse zero-based entries.
SPHERE_REAL = {  # P^{01} = (u1^2 + u2^2)/2 + 1
    "dim": 2,
    "Rt": [(0, 1, 0, 0, 1), (0, 1, 1, 1, 1), (1, 0, 0, 0, -1),
           (1, 0, 1, 1, -1)],
    "g": [(0, 1, 1), (1, 0, -1)],
}
MIXED = {  # P^{01} = u1*u2 + 1
    "dim": 2,
    "Rt": [(0, 1, 0, 1, 1), (0, 1, 1, 0, 1), (1, 0, 0, 1, -1),
           (1, 0, 1, 0, -1)],
    "g": [(0, 1, 1), (1, 0, -1)],
}
PRODUCT4 = {  # P^{02} = z1*zb1 + 1, P^{13} = z2*zb2 + 1
    "dim": 4,
    "Rt": [(0, 2, 0, 2, 1), (0, 2, 2, 0, 1), (2, 0, 0, 2, -1),
           (2, 0, 2, 0, -1), (1, 3, 1, 3, 1), (1, 3, 3, 1, 1),
           (3, 1, 1, 3, -1), (3, 1, 3, 1, -1)],
    "g": [(0, 2, 1), (2, 0, -1), (1, 3, 1), (3, 1, -1)],
}
PRODUCT4_CHART = {"coords": ["z1", "z2", "zb1", "zb2"],
                  "pairs": [["z1", "zb1"], ["z2", "zb2"]]}

# The fixed connection behind the broken Darboux-2 jobs, indexed
# [a][b][c] as in the structure file: polynomials in (q, p) as
# {(deg q, deg p): coefficient}.  Each seed applies its own linear
# symplectic change of coordinates to it (see _symplectic_pullback).
# Every check is a tensor or bracket identity, so whether it holds does
# not change under such a map, and the known answer holds for every seed.
GAMMA0 = [
    [[{(1, 0): 2, (0, 2): -1}, {(0, 1): 3}],
     [{(2, 0): 1, (0, 0): -2}, {(1, 1): -1, (0, 1): 1}]],
    [[{(0, 0): 1, (1, 1): 2}, {(2, 0): -3, (1, 0): 1}],
     [{(0, 1): -2}, {(0, 2): 1, (1, 0): -1, (0, 0): 3}]],
]


def _slot_types(a_types, b_types, pattern=PATTERN):
    """Job types for the cycle: A slots and B slots each rotate through
    their own list."""
    out, ia, ib = [], 0, 0
    for kind in pattern:
        if kind == "A":
            out.append(a_types[ia % len(a_types)])
            ia += 1
        else:
            out.append(b_types[ib % len(b_types)])
            ib += 1
    return out


# -- exact scalars and polynomials as strings ----------------------------


def _frac_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else \
        f"{x.numerator}/{x.denominator}"


def _gauss_str(re: Fraction, im: Fraction) -> str:
    """Parser syntax for re + im*i, both nonzero."""
    return f"{_frac_str(re)}{'+' if im > 0 else '-'}{_frac_str(abs(im))}*i"


def _poly_str(poly: dict, names) -> str:
    terms = []
    for exps in sorted(poly, key=lambda e: (-sum(e), tuple(-k for k in e))):
        c = Fraction(poly[exps])
        if not c:
            continue
        factors = [f"{n}^{k}" if k > 1 else n
                   for n, k in zip(names, exps) if k]
        mag = abs(c)
        if factors:
            body = "*".join(factors if mag == 1 else
                            [_frac_str(mag)] + factors)
        else:
            body = _frac_str(mag)
        terms.append(("-" if c < 0 else "+", body))
    if not terms:
        return "0"
    sign, body = terms[0]
    text = body if sign == "+" else f"-{body}"
    for sign, body in terms[1:]:
        text += f" {sign} {body}"
    return text


def _poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _poly_mul(a: dict, b: dict) -> dict:
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _poly_scale(a: dict, k) -> dict:
    return {e: c * k for e, c in a.items() if c * k}


def _mat_inv2(N):
    (a, b), (c, d) = N
    det = a * d - b * c
    return [[d / det, -b / det], [-c / det, a / det]]


def _symplectic_pullback(gamma, N):
    """Gamma in the coordinates x' = N x, with det N = 1 so that the
    Darboux P is unchanged:
    Gamma'^a_{bc}(x') = N^a_i Gamma^i_{jk}(M x') M^j_b M^k_c, M = N^-1."""
    M = _mat_inv2(N)
    # x_i as a polynomial in x': sum_j M[i][j] x'_j
    lin = [{(1, 0): M[i][0], (0, 1): M[i][1]} for i in range(2)]
    lin = [{e: c for e, c in p.items() if c} for p in lin]

    def subst(poly):
        out = {}
        for (e0, e1), c in poly.items():
            term = {(0, 0): Fraction(c)}
            for _ in range(e0):
                term = _poly_mul(term, lin[0])
            for _ in range(e1):
                term = _poly_mul(term, lin[1])
            out = _poly_add(out, term)
        return out

    old = [[[subst(gamma[i][j][k]) for k in range(2)] for j in range(2)]
           for i in range(2)]
    new = [[[{} for _ in range(2)] for _ in range(2)] for _ in range(2)]
    for a in range(2):
        for b in range(2):
            for c in range(2):
                acc = {}
                for i in range(2):
                    for j in range(2):
                        for k in range(2):
                            w = N[a][i] * M[j][b] * M[k][c]
                            if w:
                                acc = _poly_add(acc, _poly_scale(old[i][j][k], w))
                new[a][b][c] = acc
    return new


def _random_symplectic(rng: random.Random):
    """diag(l, 1/l) with l in {2, 3, 1/2, 1/3}, times one of I, J, -I, -J
    (J the quarter turn).  The map is monomial, so each entry keeps its
    number of terms; l = 1 is left out so that the coefficients of every
    seed have fractions and about the same size, and cost the same."""
    lam = Fraction(rng.choice((2, 3))) ** rng.choice((1, -1))
    turns = [[[1, 0], [0, 1]], [[0, 1], [-1, 0]],
             [[-1, 0], [0, -1]], [[0, -1], [1, 0]]]
    R = rng.choice(turns)
    return [[lam * R[0][0], lam * R[0][1]], [R[1][0] / lam, R[1][1] / lam]]


def _random_triple(rng: random.Random, cls: str):
    """(1, b, c) with b = +-1 +- i, so that P has every term and triples
    of one class cost the same; the class is the sign of ac - |b|^2 =
    c - 2."""
    b = (Fraction(rng.choice((1, -1))), Fraction(rng.choice((1, -1))))
    c = Fraction({"plane": 2, "sphere": 3, "lobachevskian": 1}[cls])
    return Fraction(1), b, c


# -- file writers ----------------------------------------------------------


def _constants_dict(spec: dict) -> dict:
    keys = {"Rt": ("A", "B", "C", "D"), "f": ("A", "B", "C"), "g": ("A", "B")}
    out = {"dim": spec["dim"]}
    for field, names in keys.items():
        if field in spec:
            out[field] = [dict(zip(names, e[:-1]),
                               value={"re": str(e[-1]), "im": "0"})
                          for e in spec[field]]
    return out


def _darboux_dict(dim: int) -> dict:
    half = dim // 2
    names = ([f"q{k + 1}" for k in range(half)]
             + [f"p{k + 1}" for k in range(half)])
    P = [["0"] * dim for _ in range(dim)]
    for k in range(half):
        P[k][half + k] = "1"
        P[half + k][k] = "-1"
    return {"chart": {"coords": names, "kind": "real"}, "P": P}


def _broken_darboux_dict(rng: random.Random) -> dict:
    gamma = _symplectic_pullback(GAMMA0, _random_symplectic(rng))
    names = ("q", "p")
    return {"chart": {"coords": list(names), "kind": "real"},
            "P": [["0", "1"], ["-1", "0"]],
            "Gamma": [[[_poly_str(gamma[a][b][c], names) for c in range(2)]
                       for b in range(2)] for a in range(2)]}


SPHERE_GAMMA0 = {"chart": {"coords": ["z", "zb"], "kind": "complex",
                           "pairing": {"z": "zb"}},
                 "P": [["0", "z*zb + 1"], ["-z*zb - 1", "0"]]}


def _write_json(path: str, data) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
    return path


def _verify_argv(path: str, plan_seed: int) -> list:
    return ["verify", path, "--seed", str(plan_seed), "--format", "machine"]


# -- workloads -------------------------------------------------------------


def generate(workload: str, seed: int, workdir: str) -> list:
    """Write the inputs of one workload run into workdir and return its
    cycle: one job spec per slot, each with its known answer."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(workdir, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")

    def plan_seed():
        return rng.randrange(2 ** 31)

    def out(name):
        return os.path.join(workdir, name)

    jobs = []
    if workload == "flat":
        files = {t: _write_json(out(f"{t}.json"), _darboux_dict(dim))
                 for t, dim in (("darboux2", 2), ("darboux4", 4))}
        for k, t in enumerate(_slot_types(["darboux2"], ["darboux4"])):
            jobs.append({"slot": f"{k}-{t}", "type": t, "kind": "axioms",
                         "path": files[t], "plan_seed": plan_seed(),
                         "expect": {"exits": [0], "fails": list(PASS)}})
    elif workload == "product4":
        path = _write_json(out("product4.json"), _constants_dict(PRODUCT4))
        jobs.append({"slot": "0-product4", "type": "product4",
                     "kind": "product", "path": path,
                     "chart": PRODUCT4_CHART,
                     "expect": {"exits": [0], "fails": list(PASS)}})
    elif workload == "curved":
        consts = {"sphere_real": _write_json(out("sphere_real.json"),
                                             _constants_dict(SPHERE_REAL)),
                  "mixed": _write_json(out("mixed.json"),
                                       _constants_dict(MIXED))}
        types = _slot_types(["plane", "sphere", "lobachevskian"],
                            ["sphere_real", "mixed"], PATTERN_SLOW_MAJORITY)
        for k, t in enumerate(types):
            struct = out(f"slot{k}-{t}.structure.json")
            if t in consts:
                build = ["canonical", "build", consts[t], "--emit", struct]
            else:
                a, (bre, bim), c = _random_triple(rng, t)
                build = ["onedim", "build", f"--a={_frac_str(a)}",
                         f"--b={_gauss_str(bre, bim)}", f"--c={_frac_str(c)}",
                         "--emit", struct]
            jobs.append({"slot": f"{k}-{t}", "type": t, "kind": "cli",
                         "argv": [build, _verify_argv(struct, plan_seed())],
                         "expect": {"exits": [0, 0], "fails": list(PASS)}})
    else:  # broken
        sphere = _write_json(out("sphere_gamma0.json"), SPHERE_GAMMA0)
        for k, t in enumerate(_slot_types(["darboux2-random"],
                                          ["sphere-gamma0"],
                                          PATTERN_SLOW_MAJORITY)):
            if t == "sphere-gamma0":
                path, fails = sphere, BROKEN_SPHERE
            else:
                path = _write_json(out(f"slot{k}-darboux2-random.json"),
                                   _broken_darboux_dict(rng))
                fails = BROKEN_DARBOUX
            jobs.append({"slot": f"{k}-{t}", "type": t, "kind": "cli",
                         "argv": [_verify_argv(path, plan_seed())],
                         "expect": {"exits": [1], "fails": list(fails)}})
    return jobs
