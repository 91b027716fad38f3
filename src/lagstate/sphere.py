"""Degree-k polynomial model on the projective line.

The Hilbert space is spanned by the monomials z^j, j = 0..k, with the
weighted inner product

    <f, g> = (1/pi) integral f(z) conj(g(z)) (1 + |z|^2)^(-k-2) dx dy

over the affine chart.  The orthonormal basis is
phi_j = sqrt((k+1) C(k,j)) z^j; all amplitudes are assembled in log space so
large k stays finite.  Quadrature uses the substitution t = r^2 / (1 + r^2),
which turns every radial integrand appearing here into a polynomial of
degree <= k in t, so Gauss-Legendre is exact.  The angular average is an
M-point trapezoid rule; with M >= 2k + 2 it is the Kronecker delta on every
frequency |j - l| <= k, so it is applied in closed form: the Gram matrix is
diagonal (off-diagonal entries are exact zeros) and only its radial
integrals are computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import max_abs


def log_binomial(n: int, j: int) -> float:
    """log C(n, j) via log-gamma; exact enough for amplitude assembly."""
    if not 0 <= j <= n:
        raise ValueError(f"binomial index out of range: C({n}, {j})")
    return math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)


@dataclass(frozen=True)
class SphereModel:
    """Degree-k model; the Hilbert space has dimension d = k + 1."""

    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"sphere model needs k >= 1, got {self.k}")

    @property
    def dim(self) -> int:
        return self.k + 1

    def log_amplitudes(self) -> np.ndarray:
        """log of the squared basis amplitudes (k+1) C(k, j)."""
        k = self.k
        return np.array([math.log(k + 1) + log_binomial(k, j)
                         for j in range(k + 1)])


@dataclass(frozen=True)
class SphereQuadrature:
    """Product rule: Gauss-Legendre in t = r^2/(1+r^2) times angular trapezoid.

    The Gram matrix applies the angular rule in closed form, so
    ``angular_count`` is checked against its aliasing threshold but does not
    change the result; ``nodes_2d`` gives the explicit product nodes.
    """

    t_nodes: np.ndarray
    t_weights: np.ndarray
    angular_count: int

    @property
    def radial_count(self) -> int:
        return len(self.t_nodes)

    def nodes_2d(self) -> tuple[np.ndarray, np.ndarray]:
        """Flattened chart nodes z and weights for the unit-volume measure."""
        theta = 2.0 * np.pi * np.arange(self.angular_count) / self.angular_count
        r = np.sqrt(self.t_nodes / (1.0 - self.t_nodes))
        z = np.outer(r, np.exp(1j * theta)).ravel()
        w = np.repeat(self.t_weights / self.angular_count, self.angular_count)
        return z, w


def exact_node_counts(k: int, radial: int | None = None,
                      angular: int | None = None) -> tuple[int, int]:
    """Radial and angular node counts that integrate degree-k integrands
    exactly, each defaulting to its minimum.

    Minimum node counts: ceil((k+2)/2) radial (Gauss-Legendre exactness
    through degree k) and 2k+2 angular (no aliasing among frequencies up
    to k).  Larger counts are accepted; smaller ones are rejected.
    """
    min_radial = (k + 3) // 2
    min_angular = 2 * k + 2
    radial = min_radial if radial is None else radial
    angular = min_angular if angular is None else angular
    if radial < min_radial:
        raise ValueError(
            f"{radial} radial nodes cannot integrate degree-{k} integrands "
            f"exactly; need at least {min_radial}")
    if angular < min_angular:
        raise ValueError(
            f"{angular} angular nodes alias frequencies up to {k}; "
            f"need at least {min_angular}")
    return radial, angular


def sphere_quadrature(k: int, *, radial: int | None = None,
                      angular: int | None = None) -> SphereQuadrature:
    """Quadrature sized so every degree-k Gram integrand is integrated
    exactly; see :func:`exact_node_counts` for the node counts."""
    radial, angular = exact_node_counts(k, radial, angular)
    x, w = np.polynomial.legendre.leggauss(radial)
    return SphereQuadrature(
        t_nodes=(x + 1.0) / 2.0,
        t_weights=w / 2.0,
        angular_count=angular,
    )


def basis_values(model: SphereModel, z: complex) -> np.ndarray:
    """All orthonormal basis values phi_j(z), j = 0..k."""
    k = model.k
    j = np.arange(k + 1)
    half_log = 0.5 * model.log_amplitudes()
    if z == 0:
        out = np.zeros(k + 1, dtype=complex)
        out[0] = math.exp(half_log[0])
        return out
    mag = np.exp(half_log + j * math.log(abs(z)))
    return mag * np.exp(1j * j * np.angle(z))


def basis_eval(model: SphereModel, j: int, z: complex) -> complex:
    """Single orthonormal basis value phi_j(z) = sqrt((k+1) C(k,j)) z^j."""
    if not 0 <= j <= model.k:
        raise ValueError(f"basis index {j} out of range 0..{model.k}")
    return complex(basis_values(model, z)[j])


def weighted_basis_values(model: SphereModel, z: complex) -> np.ndarray:
    """phi_j(z) / (1 + |z|^2)^(k/2): the fiber-metric-weighted basis values.

    Bounded by sqrt(k+1) for every z, hence safe at any k; assembled from
    t = |z|^2 / (1 + |z|^2) in log space.
    """
    k = model.k
    j = np.arange(k + 1)
    half_log = 0.5 * model.log_amplitudes()
    a2 = abs(z) ** 2
    log1pz = math.log1p(a2)
    log_mag = half_log - 0.5 * k * log1pz
    if z == 0:
        out = np.zeros(k + 1, dtype=complex)
        out[0] = math.exp(log_mag[0])
        return out
    mag = np.exp(log_mag + j * math.log(abs(z)))
    return mag * np.exp(1j * j * np.angle(z))


def pairing_matrix(model: SphereModel, z: complex) -> np.ndarray:
    """Fiber pairing h(phi_j, phi_l)(z) = phi_j(z) conj(phi_l(z)) / (1+|z|^2)^k.

    Hermitian, rank one, positive semidefinite; its trace is the constant
    Bergman-type sum k + 1.
    """
    w = weighted_basis_values(model, z)
    return np.outer(w, w.conj())


def phase_average(angular_count: int, deltas: np.ndarray) -> np.ndarray:
    """Trapezoid average (1/M) sum_m exp(2 pi i delta m / M) per delta, in
    closed form: 1.0 where M divides delta, 0.0 otherwise."""
    return (np.asarray(deltas) % angular_count == 0).astype(float)


def _gram(model: SphereModel, quad: SphereQuadrature, log_amp: np.ndarray) -> np.ndarray:
    """diag(sum_t w_t f_j(t)^2) with f_j(t)^2 = e^log_amp_j t^j (1-t)^(k-j).

    The angular average of exp(i (j - l) angle) is the Kronecker delta for
    |j - l| <= k under the exact rule, so only the diagonal is integrated.
    """
    k = model.k
    exact_node_counts(k, quad.radial_count, quad.angular_count)
    j = np.arange(k + 1)
    t = quad.t_nodes[:, None]
    f2 = np.exp(log_amp + j * np.log(t) + (k - j) * np.log1p(-t))
    return np.diag((quad.t_weights @ f2).astype(complex))


def gram_matrix(model: SphereModel,
                quad: SphereQuadrature | None = None) -> np.ndarray:
    """Gram matrix of the orthonormal basis under the quadrature: diagonal,
    and the identity up to roundoff because the rule is exact for these
    integrands.  Defaults to the minimal exact rule."""
    if quad is None:
        quad = sphere_quadrature(model.k)
    return _gram(model, quad, model.log_amplitudes())


def monomial_gram(model: SphereModel,
                  quad: SphereQuadrature | None = None) -> np.ndarray:
    """Gram matrix of the raw monomials z^j; diagonal j!(k-j)!/(k+1)!."""
    if quad is None:
        quad = sphere_quadrature(model.k)
    return _gram(model, quad, np.zeros(model.k + 1))


def gram_residual(model: SphereModel,
                  quad: SphereQuadrature | None = None) -> float:
    """Max-entry deviation of the basis Gram matrix from the identity."""
    g = gram_matrix(model, quad)
    return max_abs(g - np.eye(model.dim))
