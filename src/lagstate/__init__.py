"""Entanglement of semiclassical states built from Lagrangian submanifolds.

Two concrete Kahler models are provided: degree-k polynomials on the
projective line and level-k theta functions on the square torus.  States in
the tensor square of either Hilbert space are analyzed through their Schmidt
decomposition: entanglement entropy, distance to the nearest product vector,
and the identities tying the two together.
"""

from .linalg import SvdResult, frobenius_distance, hermitian_eigen, svd
from .entanglement import (
    EntanglementReport,
    analyze,
    closest_separable,
    corollary_distance_identity,
    entropy,
    is_maximally_entangled,
)
from .sphere import (
    SphereModel,
    basis_values,
    gram_matrix,
    monomial_gram,
    sphere_quadrature,
    weighted_basis_values,
)
from .torus import (
    TorusModel,
    closed_form_norm,
    gram_quadrature,
    orthonormal_basis,
    quasi_periodicity_factor,
    theta_eval,
    theta_truncation,
)
from .states import (
    LagrangianState,
    antidiagonal_state,
    circle_entropy_closed_form,
    circle_state_closed_form,
    circle_state_quadrature,
    coherent_vector,
    section_frame_value,
)

__version__ = "0.1.0"

__all__ = [
    "SvdResult", "svd", "hermitian_eigen", "frobenius_distance",
    "EntanglementReport", "entropy", "closest_separable",
    "is_maximally_entangled", "corollary_distance_identity", "analyze",
    "SphereModel", "sphere_quadrature", "basis_values",
    "weighted_basis_values", "gram_matrix", "monomial_gram",
    "TorusModel", "theta_truncation", "theta_eval", "gram_quadrature",
    "orthonormal_basis", "quasi_periodicity_factor", "closed_form_norm",
    "LagrangianState", "coherent_vector",
    "section_frame_value", "antidiagonal_state",
    "circle_state_quadrature", "circle_state_closed_form",
    "circle_entropy_closed_form",
]
