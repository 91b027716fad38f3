"""Degree-k polynomial model on the projective line.

The Hilbert space is spanned by the monomials z^j, j = 0..k, with the
weighted inner product

    <f, g> = (1/pi) integral f(z) conj(g(z)) (1 + |z|^2)^(-k-2) dx dy

over the affine chart.  The orthonormal basis is
phi_j = sqrt((k+1) C(k,j)) z^j.  The binomials are exact integers
(:func:`binomials`); each amplitude is rounded once, to its logarithm, so
large k stays finite.  Quadrature uses the substitution t = r^2 / (1 + r^2),
which turns every radial integrand appearing here into a polynomial of
degree <= k in t, so Gauss-Legendre with ceil((k+2)/2) nodes is exact, and
so is any longer rule.  That count is rounded up to the shared rule size of
``linalg.rule_size`` (a power of two, at least 64), so that rows share one
cached rule; state provenance reports the size used as ``radial_nodes``.  The
angular average is the M-point trapezoid rule at its aliasing-free size
M = 2k + 2 (``SphereModel.angular_nodes``), which is the Kronecker delta on
every frequency |j - l| <= k, so it is applied in closed form: the Gram
matrix is diagonal (off-diagonal entries are exact zeros) and only its
radial integrals are computed.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Any

import numpy as np

from .linalg import (GaussLegendreRule, as_point, gauss_legendre_01,
                     identity_defect, rule_size)


def binomials(k: int) -> list[int]:
    """C(k, j) for j = 0..k as exact integers, by the multiplicative
    recurrence C(k, j+1) = C(k, j) (k-j) / (j+1) up to j = k // 2, and the
    symmetry C(k, j) = C(k, k-j) past it."""
    row = [1]
    for j in range(k // 2):
        row.append(row[-1] * (k - j) // (j + 1))
    return row + row[:(k + 1) // 2][::-1]


@dataclass(frozen=True)
class SphereModel:
    """Degree-k model; the Hilbert space has dimension d = k + 1."""

    K_MIN = 1  # smallest degree

    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", operator.index(self.k))  # an int, or TypeError
        if self.k < self.K_MIN:
            raise ValueError(f"sphere model needs k >= {self.K_MIN}, got {self.k}")

    @property
    def dim(self) -> int:
        return self.k + 1

    @property
    def angular_nodes(self) -> int:
        """Trapezoid size 2k + 2 that aliases no frequency up to k; the
        angular rule is applied in closed form at this size."""
        return 2 * self.k + 2

    def log_amplitudes(self) -> np.ndarray:
        """log of the squared basis amplitudes (k+1) C(k, j), each distinct
        one taken once and mirrored by C(k, j) = C(k, k-j)."""
        k = self.k
        half = [math.log((k + 1) * c) for c in binomials(k)[:k // 2 + 1]]
        return np.array(half + half[:(k + 1) // 2][::-1])

    def antidiagonal_gram(self) -> tuple[np.ndarray, np.ndarray, dict[str, Any]]:
        """(raw, normalized, resolution): the orthonormal basis Gram is both."""
        gram = gram_matrix(self)
        return gram, gram, {
            "model": "sphere", "k": self.k,
            "radial_nodes": len(sphere_quadrature(self.k).nodes),
            "angular_nodes": self.angular_nodes}


def exact_radial_count(k: int) -> int:
    """Radial node count ceil((k+2)/2), with which Gauss-Legendre is exact
    through degree k, the degree of every Gram integrand.  It is sufficient,
    not always the fewest: 3 nodes are already exact at k = 5."""
    return (k + 3) // 2


def sphere_quadrature(k: int) -> GaussLegendreRule:
    """Rule in t = r^2/(1+r^2) that integrates every degree-k Gram
    integrand exactly: the cached shared rule of
    ``rule_size(exact_radial_count(k))`` nodes.  The angular trapezoid that
    completes the product rule is applied in closed form."""
    return gauss_legendre_01(rule_size(exact_radial_count(k)))


def weighted_basis_values(model: SphereModel, z: complex) -> np.ndarray:
    """phi_j(z) / (1 + |z|^2)^(k/2), j = 0..k: the fiber-metric-weighted
    basis values, the model's one point evaluator.

    Their squared moduli sum to k + 1 at every z, so each is at most
    sqrt(k+1); they are assembled in log space so any k stays finite.
    """
    z = as_point(z)
    k, r = model.k, abs(z)
    # For r > 1 the weight is r^(-k) (1 + r^-2)^(-k/2), and shift = k takes
    # r^(-k) into the exponent of r^j: r^2 would overflow above 1.3e154.
    shift, s = (k, 1.0 / r) if r > 1.0 else (0, r)
    log_mag = 0.5 * model.log_amplitudes() - 0.5 * k * math.log1p(s * s)
    if z == 0:
        out = np.zeros(k + 1, dtype=complex)
        out[0] = math.exp(log_mag[0])
        return out
    j = np.arange(k + 1)
    mag = np.exp(log_mag + (j - shift) * math.log(r))
    return mag * np.exp(1j * j * np.angle(z))


def phase_average(m: int, deltas: np.ndarray) -> np.ndarray:
    """M-point trapezoid average (1/M) sum_n exp(2 pi i delta n / M) per
    delta, with M = m, in closed form: 1.0 where M divides delta, 0.0
    otherwise."""
    return (np.asarray(deltas) % m == 0).astype(float)


def _gram(model: SphereModel, log_amp: np.ndarray) -> np.ndarray:
    """diag(sum_t w_t f_j(t)^2) with f_j(t)^2 = e^log_amp_j t^j (1-t)^(k-j),
    under :func:`sphere_quadrature`, assembled in log space from the rule's
    cached log t and log(1 - t).

    The angular average of exp(i (j - l) angle) is the Kronecker delta for
    |j - l| <= k under the aliasing-free rule, so only the diagonal is
    integrated.
    """
    k = model.k
    rule = sphere_quadrature(k)
    j = np.arange(k + 1.0)
    # The exponent log_amp + j log t + (k - j) log(1 - t), built in place.
    f2 = rule.log_nodes[:, None] * j
    f2 += log_amp
    f2 += rule.log_complements[:, None] * (k - j)
    np.exp(f2, out=f2)
    return np.diag(rule.weights @ f2)


def gram_matrix(model: SphereModel) -> np.ndarray:
    """Gram matrix of the orthonormal basis: diagonal, and the identity up
    to roundoff because the rule is exact for these integrands."""
    return _gram(model, model.log_amplitudes())


def monomial_gram(model: SphereModel) -> np.ndarray:
    """Gram matrix of the raw monomials z^j; diagonal j!(k-j)!/(k+1)!."""
    return _gram(model, np.zeros(model.k + 1))


def gram_residual(model: SphereModel) -> float:
    """Max-entry deviation of the basis Gram matrix from the identity."""
    return identity_defect(gram_matrix(model))
