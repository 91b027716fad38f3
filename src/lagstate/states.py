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
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .linalg import max_abs
from .sphere import (SphereModel, log_binomial, sphere_quadrature,
                     gram_matrix, weighted_basis_values)
from .sphere import phase_average  # noqa: F401  (perfbench traces this name)
from . import torus as torus_mod
from .torus import TorusModel

ANTIDIAGONAL_TOL_SPHERE = 1e-10
ANTIDIAGONAL_TOL_TORUS = 1e-7


@dataclass(frozen=True)
class CoherentVector:
    """Coefficients of the vector reproducing evaluation at base_point."""

    coeffs: np.ndarray
    base_point: complex
    frame_scale: complex


@dataclass(frozen=True)
class LagrangianState:
    """Unnormalized state in H (x) H built by integrating over a submanifold."""

    coeffs: np.ndarray
    raw_norm: float
    provenance: dict[str, Any] = field(default_factory=dict)

    def normalized(self) -> np.ndarray:
        return self.coeffs / self.raw_norm


def coherent_vector(model: SphereModel, z: complex,
                    frame_scale: complex = 1.0 + 0.0j) -> CoherentVector:
    """Coherent vector for the frame covector scaled by frame_scale at z.

    With the unit frame, the coefficient of phi_j is
    conj(phi_j(z)) / (1 + |z|^2)^(k/2); rescaling the frame by alpha
    multiplies all coefficients by conj(alpha)^k.
    """
    z = complex(z)
    scale = np.conj(complex(frame_scale)) ** model.k
    coeffs = scale * weighted_basis_values(model, z).conj()
    return CoherentVector(coeffs=coeffs, base_point=z,
                          frame_scale=complex(frame_scale))


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


def pair_coherent(u: CoherentVector, w: CoherentVector) -> np.ndarray:
    """Separable state u (x) w as a coefficient matrix (outer product)."""
    if u.coeffs.shape != w.coeffs.shape:
        raise ValueError(
            f"coherent vectors live in different spaces: "
            f"{u.coeffs.shape} vs {w.coeffs.shape}")
    return np.outer(u.coeffs, w.coeffs)


def _sphere_antidiagonal(model: SphereModel) -> LagrangianState:
    quad = sphere_quadrature(model.k)
    gram = gram_matrix(model, quad)
    coeffs = gram.conj()
    defect = max_abs(coeffs - np.eye(model.dim))
    if defect > ANTIDIAGONAL_TOL_SPHERE:
        raise RuntimeError(
            f"sphere antidiagonal coefficients deviate from the identity by "
            f"{defect:.3e} (> {ANTIDIAGONAL_TOL_SPHERE:g}); quadrature is "
            f"not exact")
    return LagrangianState(
        coeffs=coeffs,
        raw_norm=float(np.linalg.norm(coeffs.ravel())),
        provenance={
            "model": "sphere",
            "k": model.k,
            "submanifold": "antidiagonal",
            "radial_nodes": quad.radial_count,
            "angular_nodes": model.angular_nodes,
            "basis_gram_residual": defect,
        },
    )


def _torus_antidiagonal(model: TorusModel, theta_tol: float) -> LagrangianState:
    basis = torus_mod.orthonormal_basis(model, theta_tol=theta_tol)
    quad = basis.quadrature
    coeffs = basis.normalized_gram.conj()
    defect = max_abs(coeffs - np.eye(model.dim))
    if defect > ANTIDIAGONAL_TOL_TORUS:
        raise RuntimeError(
            f"torus antidiagonal coefficients deviate from the identity by "
            f"{defect:.3e} (> {ANTIDIAGONAL_TOL_TORUS:g}); resolution is "
            f"below policy")
    return LagrangianState(
        coeffs=coeffs,
        raw_norm=float(np.linalg.norm(coeffs.ravel())),
        provenance={
            "model": "torus",
            "k": model.k,
            "mu": model.mu,
            "submanifold": "antidiagonal",
            "theta_tol": theta_tol,
            "n_max": quad.truncation.n_max,
            "m_x": quad.m_x,
            "n_y": quad.n_y,
            "basis_gram_residual": defect,
        },
    )


def antidiagonal_state(model: SphereModel | TorusModel, *,
                       theta_tol: float = torus_mod.THETA_TOL) -> LagrangianState:
    """State from the antidiagonal submanifold: quadrature of the conjugated
    fiber pairing.  Its coefficient matrix equals the basis Gram matrix
    (conjugated), hence the identity up to quadrature defect, and the
    normalized state is maximally entangled with raw norm sqrt(d).
    theta_tol is the torus resolution; the sphere rule is exact."""
    if isinstance(model, SphereModel):
        return _sphere_antidiagonal(model)
    if isinstance(model, TorusModel):
        return _torus_antidiagonal(model, theta_tol)
    raise TypeError(f"unsupported model type {type(model).__name__}")


def circle_state_quadrature(model: SphereModel) -> LagrangianState:
    """State from the unit circle |z| = 1 with the angle measure.

    The aliasing-free angle trapezoid rule is the Kronecker delta on every
    frequency here, so it is applied in closed form: the coefficients are
    exactly diagonal, with entries pi 2^(1-k) (k+1)! / (j! (k-j)!) up to
    roundoff.
    """
    k = model.k
    half_log = 0.5 * model.log_amplitudes()
    mag = np.exp(half_log - 0.5 * k * math.log(2.0))
    coeffs = np.diag((2.0 * math.pi * np.square(mag)).astype(complex))
    return LagrangianState(
        coeffs=coeffs,
        raw_norm=float(np.linalg.norm(coeffs.ravel())),
        provenance={
            "model": "sphere",
            "k": k,
            "submanifold": "circle",
            "angular_nodes": model.angular_nodes,
        },
    )


def circle_state_closed_form(k: int) -> np.ndarray:
    """Normalized circle state: diagonal entries C(k,j) k! / sqrt((2k)!)."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    log_diag = np.array([log_binomial(k, j) + math.lgamma(k + 1)
                         - 0.5 * math.lgamma(2 * k + 1) for j in range(k + 1)])
    return np.diag(np.exp(log_diag)).astype(complex)


def circle_entropy_closed_form(k: int) -> float:
    """Entropy of the circle state from its binomial Schmidt spectrum.

    The spectrum is p_j = C(k,j)^2 (k!)^2 / (2k)!, which sums to one by the
    Vandermonde identity sum_j C(k,j)^2 = C(2k,k).  Evaluated in log space
    with compensated summation.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    log_p = [2.0 * (log_binomial(k, j) + math.lgamma(k + 1))
             - math.lgamma(2 * k + 1) for j in range(k + 1)]
    return -math.fsum(math.exp(lp) * lp for lp in log_p)
