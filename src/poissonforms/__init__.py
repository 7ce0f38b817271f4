"""Exact verification toolkit for graded Poisson brackets on differential
forms: an exterior algebra over rational functions with exact Gaussian
rational coefficients, a bracket extended to forms through a connection,
integrability checks, quadratic structures built from constant tensors,
their complex-chart refinement, and the constant-curvature structures on
one complex dimension.
"""

from .bracket import (PoissonStructure, SamplePlan, random_form,
                      random_scalar, verify_axioms)
from .canonical import (CanonicalConstants, CanonicalTransform, Frame,
                        build_canonical, canonical_chart, check_constants,
                        e_basis, find_torsion_zero, frame_curvature,
                        poisson_matrix, transform_constants, xi_realization)
from .complexforms import (eta_forms, frame_split, kahler_form,
                           verify_complex_axioms)
from .files import (load_constants, load_structure, save_constants,
                    save_structure)
from .forms import DiffForm
from .geometry import (Metric, Tensor, check_integrability,
                       connection_from_metric, coord_signature,
                       covariant_derivative, curvature, cyclic_jacobi,
                       torsion)
from .onedim import (HermitianTriple, MoebiusMap, build_one_dim,
                     centering_translation, classify, diagonalize,
                     eta_kahler, gaussian_curvature, moebius, one_dim_chart,
                     p_scalar, triple_constants)
from .parsing import ParseError, parse_form, parse_scalar
from .ratexpr import Chart, RatExpr
from .report import Check, VerificationReport
from .scalars import GaussianRational

__all__ = [
    "CanonicalConstants", "CanonicalTransform", "Chart", "Check", "DiffForm",
    "Frame", "GaussianRational", "HermitianTriple", "Metric", "MoebiusMap",
    "ParseError", "PoissonStructure", "RatExpr", "SamplePlan", "Tensor",
    "VerificationReport", "build_canonical", "build_one_dim",
    "canonical_chart", "centering_translation", "check_constants",
    "check_integrability", "classify", "connection_from_metric",
    "coord_signature", "covariant_derivative", "curvature", "cyclic_jacobi",
    "diagonalize", "e_basis", "eta_forms", "eta_kahler", "find_torsion_zero",
    "frame_curvature", "frame_split", "gaussian_curvature", "kahler_form",
    "load_constants", "load_structure", "moebius", "one_dim_chart",
    "p_scalar", "parse_form", "parse_scalar", "poisson_matrix",
    "random_form", "random_scalar", "save_constants",
    "save_structure", "torsion", "transform_constants", "triple_constants",
    "verify_axioms", "verify_complex_axioms", "xi_realization",
]

__version__ = "0.1.0"
