"""Byte pins for the frame-layer and constants reports.

Each case renders a report as `poissonforms ... --format machine` would
(sorted checks, summary) and compares its SHA-256 with a digest taken
before the frame layer was refactored, so any change to a check name,
status, residual string or location shows up here.  Passing reports all
look alike apart from their names and locations, so most cases pair a
structure with a frame built for another structure, or use constants
that break a closure condition, to put nonzero residuals in the bytes.
"""

import hashlib

import pytest

from poissonforms.bracket import PoissonStructure, SamplePlan
from poissonforms.canonical import (CanonicalConstants, build_canonical,
                                    check_constants, e_basis, xi_realization)
from poissonforms.complexforms import (eta_forms, kahler_form,
                                       verify_complex_axioms)
from poissonforms.files import dumps
from poissonforms.geometry import check_integrability
from poissonforms.onedim import HermitianTriple, eta_kahler
from poissonforms.parsing import parse_scalar
from poissonforms.ratexpr import Chart, RatExpr
from poissonforms.scalars import GaussianRational

from test_canonical import (affine_constants, cybe_violating_constants,
                            darboux_constants, mixed_constants,
                            sphere_real_constants)
from test_complex import (flat_build, linear_constants, product_chart,
                          product_constants, sphere_build, zchart)

PLAN = SamplePlan(count=3, seed=5)


def closure_broken_quadratic():
    """Index symmetries hold; jacobi-quadratic and jacobi-linear fail."""
    return CanonicalConstants.from_entries(
        3,
        rt=[(0, 1, 2, 2, 1), (1, 0, 2, 2, -1), (0, 1, 0, 1, 1),
            (0, 1, 1, 0, 1), (1, 0, 0, 1, -1), (1, 0, 1, 0, -1)],
        f=[(0, 1, 2, 1), (1, 0, 2, -1), (1, 2, 0, 2), (2, 1, 0, -2),
           (0, 2, 1, 1), (2, 0, 1, -1)],
        g=[(0, 2, 1), (2, 0, -1), (1, 2, 3), (2, 1, -3)])


def closure_broken_constant():
    """Rt = 0; jacobi-linear and jacobi-constant fail."""
    return CanonicalConstants.from_entries(
        3,
        f=[(0, 1, 2, 1), (1, 0, 2, -1), (1, 2, 0, 2), (2, 1, 0, -2),
           (0, 2, 0, 1), (2, 0, 0, -1)],
        g=[(0, 2, 1), (2, 0, -1), (0, 1, 3), (1, 0, -3)])


def symmetry_broken():
    """Every check of check_constants fails."""
    return CanonicalConstants.from_entries(
        2,
        rt=[(0, 1, 0, 0, 1), (1, 0, 0, 0, 1), (0, 1, 0, 1, 2), (0, 1, 1, 0, 3)],
        f=[(0, 1, 0, 1), (1, 0, 0, 1)],
        g=[(0, 1, 1), (1, 0, 1)])


def real_build(make):
    return build_canonical(make())


def corrupted_sphere():
    """The complex sphere with one off-block connection entry added."""
    s, _ = sphere_build()
    G = [[[s.Gamma[a, b, c] for c in range(2)] for b in range(2)]
         for a in range(2)]
    G[0][0][1] = G[0][0][1] + RatExpr.one(s.chart)
    return PoissonStructure(s.chart, s.P, G)


def non_poisson():
    """Real dim 3 with a P whose cyclic Jacobi sum is nonzero."""
    ch = Chart(("x", "y", "w"))
    return PoissonStructure(ch, [["0", "x", "y"], ["-x", "0", "w^2"],
                                 ["-y", "-w^2", "0"]])


def pattern_broken():
    """Hermitian quadratic P = z^2 + zb^2 + 1 with zero connection: its
    quadratic coefficients break the holomorphic vanishing pattern."""
    ch = zchart()
    p = parse_scalar("z^2 + zb^2 + 1", ch)
    z0 = RatExpr.zero(ch)
    return PoissonStructure(ch, [[z0, p], [-p, z0]])


def product_build():
    return build_canonical(product_constants(), product_chart())


def linear_build():
    return build_canonical(linear_constants(), zchart())


def mismatched(structure, frame):
    return structure()[0], frame()[1]


CASES = {
    "check_constants/sphere_real": lambda: check_constants(sphere_real_constants()),
    "check_constants/cybe": lambda: check_constants(cybe_violating_constants()),
    "check_constants/quadratic": lambda: check_constants(closure_broken_quadratic()),
    "check_constants/constant": lambda: check_constants(closure_broken_constant()),
    "check_constants/symmetry": lambda: check_constants(symmetry_broken()),
    "check_integrability/sphere_real":
        lambda: check_integrability(real_build(sphere_real_constants)[0]),
    "check_integrability/sphere_complex":
        lambda: check_integrability(sphere_build()[0]),
    "check_integrability/corrupted": lambda: check_integrability(corrupted_sphere()),
    "check_integrability/non_poisson": lambda: check_integrability(non_poisson()),
    "xi/darboux": lambda: xi_realization(
        *real_build(lambda: darboux_constants(2)), PLAN)[1],
    "xi/affine": lambda: xi_realization(*real_build(affine_constants), PLAN)[1],
    "xi/sphere_with_flat_frame": lambda: xi_realization(*mismatched(
        lambda: real_build(sphere_real_constants),
        lambda: real_build(lambda: darboux_constants(2))), PLAN)[1],
    "xi/affine_with_mixed_frame": lambda: xi_realization(*mismatched(
        lambda: real_build(affine_constants),
        lambda: real_build(mixed_constants)), PLAN)[1],
    "e_basis/sphere_real": lambda: e_basis(*real_build(sphere_real_constants))[1],
    "e_basis/sphere_with_flat_frame": lambda: e_basis(*mismatched(
        lambda: real_build(sphere_real_constants),
        lambda: real_build(lambda: darboux_constants(2))))[1],
    "e_basis/affine_with_mixed_frame": lambda: e_basis(*mismatched(
        lambda: real_build(affine_constants),
        lambda: real_build(mixed_constants)))[1],
    "eta/sphere": lambda: eta_forms(*sphere_build(), PLAN)[2],
    "eta/linear": lambda: eta_forms(*linear_build(), PLAN)[2],
    "eta/product": lambda: eta_forms(*product_build(), SamplePlan(count=1))[2],
    "eta/sphere_with_flat_frame": lambda: eta_forms(
        *mismatched(sphere_build, flat_build), PLAN)[2],
    "eta/linear_with_sphere_frame": lambda: eta_forms(
        *mismatched(linear_build, sphere_build), PLAN)[2],
    "kahler/sphere": lambda: kahler_form(*sphere_build(), plan=PLAN)[1],
    "kahler/flat_metric": lambda: kahler_form(
        *flat_build(), h=[[0, 0], [2, 0]], plan=PLAN)[1],
    "kahler/flat_imaginary_metric": lambda: kahler_form(
        *flat_build(), h=[[0, 0], [GaussianRational(0, 1), 0]], plan=PLAN)[1],
    "kahler/sphere_with_flat_frame": lambda: kahler_form(
        *mismatched(sphere_build, flat_build), plan=PLAN)[1],
    "kahler/flat_with_sphere_frame": lambda: kahler_form(
        *mismatched(flat_build, sphere_build), plan=PLAN)[1],
    "kahler/linear_with_sphere_frame_metric": lambda: kahler_form(
        *mismatched(linear_build, sphere_build), h=[[0, 0], [1, 0]],
        plan=PLAN)[1],
    "eta_kahler/sphere_b0": lambda: eta_kahler(HermitianTriple(1, 0, 1), PLAN)[3],
    "eta_kahler/b_complex": lambda: eta_kahler(
        HermitianTriple(1, GaussianRational(1, 1), 1), PLAN)[3],
    "complex_axioms/pattern_broken":
        lambda: verify_complex_axioms(pattern_broken(), SamplePlan(count=1)),
    "complex_axioms/corrupted":
        lambda: verify_complex_axioms(corrupted_sphere(), SamplePlan(count=1)),
}


DIGESTS = {
    'check_constants/constant':
        'ac256604a990c72f5f1a8e7052fdb70d01f3bdddee25ca7b4dc0be102b9df739',
    'check_constants/cybe':
        '5ba8b9ccbe7a04e1f563aad4aa56ff145796a40b815c4e1ad225b5f8d5179745',
    'check_constants/quadratic':
        '6f95235c0b11f7ed810f8127af220beaaa8ddcd6324b9da6d3fbef466127ffe5',
    'check_constants/sphere_real':
        '10d1d024a6cc55a19b75d21587b0e5553b9d311bc1e3d09de1b38ac2723c64b7',
    'check_constants/symmetry':
        '36d97b5619b0add9b8a4ed3a17b173fd02c4660a66c01a82a6aa4646cd23f107',
    'check_integrability/corrupted':
        '65539ad0d25e608f33598e34201de3f36a3288963cb6db5fce757e73fb4cc4e6',
    'check_integrability/non_poisson':
        '574a515faef39b1d894708da4891a8bb5241a28163963a9e96e6e5e38e62e46d',
    'check_integrability/sphere_complex':
        '2c20f69a0f1cd37fe638edf3bc10e120f3574e3a815b5638d1a85b931ac30274',
    'check_integrability/sphere_real':
        '56d6e8d8b068d0ee1e81e1295cd0eeb23f6ca2523a1b44c46c571f66e2d308bd',
    'complex_axioms/corrupted':
        '12943cece47f23b2d84b13e36dd80a967c52b9645f4d63ec12d83bdf6ce5b66c',
    'complex_axioms/pattern_broken':
        'e233f6070914059c564d8fe43bcb684deec565c82163d51937bb4b804402f5c3',
    'e_basis/affine_with_mixed_frame':
        'b1d3bb02775d563032e42c24f05cceaae1ea58c895e2ca9b1a5fa2080c35674b',
    'e_basis/sphere_real':
        '80d189e42984c8e349564d9caa73a3608e92aeda6c6665c1ab27cb9fd32449ca',
    'e_basis/sphere_with_flat_frame':
        '49b661bb19dcaab70c769fdcc42c4514321a1debfcae8c06aed2ebaa3d16b209',
    'eta/linear':
        'fe5233933e72286c74368c36f5be755938b5358275e0db2176615139bee7e21c',
    'eta/linear_with_sphere_frame':
        '216af47a71de35e5071bfe6acb39908a42c07c819da63631cfd0c9fb13f0dbac',
    'eta/product':
        '1dbb1930b257ff883f09bc842f97f47bec2e14653dbcb6468aee45ecf14221fa',
    'eta/sphere':
        '3e81c1e9097a2bfbe06ad9fdd3e7be419c65c4a27e30430c46ced9701d53c8bf',
    'eta/sphere_with_flat_frame':
        '6632cf65039d1250f4c66a8081ea77c3d7a441eaf38e32c72b82a683476d3bfa',
    'eta_kahler/b_complex':
        '8603446e5889eb87c664af7c9132dc81d963a3a6501bb0ec9c6f6fd50be1303a',
    'eta_kahler/sphere_b0':
        '7f173e5a77197340a4500a6d47bbabb80e4ee3bf4557f98af7937c90bb7ab4a0',
    'kahler/flat_imaginary_metric':
        'ff46ec67246855eeed30ddd60069e36b6b487e3aa40083bff6be466550dd4d45',
    'kahler/flat_metric':
        '1652c0e62a46b89c59f02bd5c1483a1c77cd797b58856b5d893307098c4957ee',
    'kahler/flat_with_sphere_frame':
        '90d4516f8df081e3927bb700fd778105165e439673837d44f2dbd5480b756d45',
    'kahler/linear_with_sphere_frame_metric':
        '383e655912b6b38b5cd97253a8b3d430167ecc817587152e98b50be7a25fc1ce',
    'kahler/sphere':
        'ef0f8c487a1fab1226e8f664fa70ef8fdabc4e5c3ac4dbc2f274eabdb707063f',
    'kahler/sphere_with_flat_frame':
        '7808cd0941458562b5ec022641ba7626da054c233bbe105a2bc923c8c2988370',
    'xi/affine':
        '2d59463ef08ef9124d9282133f2e4e6ac25b72aeef83395eb8ef5ece01bf2d93',
    'xi/affine_with_mixed_frame':
        '3f163736472d89c03cdc52dc1e3ed561d277789aaa1ce78c68472692f68b6604',
    'xi/darboux':
        'd203624ef22aed70aaf3dea1c12da070d7428e4ecf2e4f8ecb3984c1623ed845',
    'xi/sphere_with_flat_frame':
        '5dcd70a788cb7021b74156084c106ffcb434a378ce4d544c429ad09d1a695a3e',
}


def digest(rep) -> str:
    return hashlib.sha256(dumps(rep.to_dict()).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes(case):
    assert digest(CASES[case]()) == DIGESTS[case]
