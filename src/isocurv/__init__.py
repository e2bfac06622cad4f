"""Pointwise curvature algebra for Riemannian and almost-Hermitian
structures with indefinite metrics: derived tensors (conformal, Bochner,
Ricci-star), isotropic-plane classification and sampling, model space
forms, and sampled theorem-equivalence diagnostics."""

from .canonical import (
    antiholomorphic_form_residual,
    bochner,
    build_conformally_flat,
    build_constant_curvature,
    build_space_form,
    conformal,
    hybrid_residual,
    phi,
    pi1,
    pi2,
    psi,
    theorem6_identities,
)
from .diagnostics import (
    DiagReport,
    TheoremId,
    UniquenessKind,
    einstein_check,
    equivalence_check,
    flatness_norms,
    fuzz,
    random_curvature_like,
    uniqueness_check,
    vanishing_report,
)
from .docio import TensorDocument, load_document, save_document
from .model import (
    ModelPoint,
    Tolerance,
    hermitian_model,
    inner,
    signature_metric,
    standard_complex_structure,
    validate_complex_structure,
)
from .planes import (
    Frame,
    Holomorphy,
    Plane,
    PlaneClass,
    PlaneKind,
    classify_holomorphy,
    classify_plane,
    gram_schmidt_indefinite,
    sample_planes,
    sectional_curvature,
)
from .tensors import (
    conjugate,
    quad_eval,
    quad_eval_batch,
    ricci,
    ricci_star,
    scalar_curv,
    scalar_star,
    validate_curvature_like,
)

__version__ = "0.1.0"
