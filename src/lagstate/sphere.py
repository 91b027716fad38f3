"""Degree-k polynomial model on the projective line.

The Hilbert space is spanned by the monomials z^j, j = 0..k, with the
weighted inner product

    <f, g> = (1/pi) integral f(z) conj(g(z)) (1 + |z|^2)^(-k-2) dx dy

over the affine chart.  The orthonormal basis is
phi_j = sqrt((k+1) C(k,j)) z^j; all amplitudes are assembled in log space so
large k stays finite.  Quadrature uses the substitution t = r^2 / (1 + r^2),
which turns every radial integrand appearing here into a polynomial of
degree <= k in t, so Gauss-Legendre with ceil((k+2)/2) nodes is exact.  The
angular average is the M-point trapezoid rule at its aliasing-free size
M = 2k + 2 (``SphereModel.angular_nodes``), which is the Kronecker delta on
every frequency |j - l| <= k, so it is applied in closed form: the Gram
matrix is diagonal (off-diagonal entries are exact zeros) and only its
radial integrals are computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import gauss_legendre_01, max_abs


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

    @property
    def angular_nodes(self) -> int:
        """Trapezoid size 2k + 2 that aliases no frequency up to k; the
        angular rule is applied in closed form at this size."""
        return 2 * self.k + 2

    def log_amplitudes(self) -> np.ndarray:
        """log of the squared basis amplitudes (k+1) C(k, j)."""
        k = self.k
        return np.array([math.log(k + 1) + log_binomial(k, j)
                         for j in range(k + 1)])


@dataclass(frozen=True)
class SphereQuadrature:
    """Gauss-Legendre rule in t = r^2/(1+r^2); the angular trapezoid that
    completes the product rule is applied in closed form."""

    t_nodes: np.ndarray
    t_weights: np.ndarray

    @property
    def radial_count(self) -> int:
        return len(self.t_nodes)


def exact_radial_count(k: int) -> int:
    """Radial node count ceil((k+2)/2), the fewest with which Gauss-Legendre
    is exact through degree k, the degree of every Gram integrand."""
    return (k + 3) // 2


def sphere_quadrature(k: int) -> SphereQuadrature:
    """Quadrature sized so every degree-k Gram integrand is integrated
    exactly; see :func:`exact_radial_count` for the node count."""
    t_nodes, t_weights = gauss_legendre_01(exact_radial_count(k))
    return SphereQuadrature(t_nodes=t_nodes, t_weights=t_weights)


def _basis_values(model: SphereModel, z: complex, weighted: bool) -> np.ndarray:
    """phi_j(z), j = 0..k, divided by (1 + |z|^2)^(k/2) when weighted;
    assembled in log space so large k stays finite."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError("evaluation point must be finite")
    k = model.k
    log_mag = 0.5 * model.log_amplitudes()
    if weighted:
        log_mag = log_mag - 0.5 * k * math.log1p(abs(z) ** 2)
    if z == 0:
        out = np.zeros(k + 1, dtype=complex)
        out[0] = math.exp(log_mag[0])
        return out
    j = np.arange(k + 1)
    mag = np.exp(log_mag + j * math.log(abs(z)))
    return mag * np.exp(1j * j * np.angle(z))


def basis_values(model: SphereModel, z: complex) -> np.ndarray:
    """All orthonormal basis values phi_j(z), j = 0..k."""
    return _basis_values(model, z, weighted=False)


def weighted_basis_values(model: SphereModel, z: complex) -> np.ndarray:
    """phi_j(z) / (1 + |z|^2)^(k/2): the fiber-metric-weighted basis values.

    Bounded by sqrt(k+1) for every z, hence safe at any k.
    """
    return _basis_values(model, z, weighted=True)


def pairing_matrix(model: SphereModel, z: complex) -> np.ndarray:
    """Fiber pairing h(phi_j, phi_l)(z) = phi_j(z) conj(phi_l(z)) / (1+|z|^2)^k.

    Hermitian, rank one, positive semidefinite; its trace is the constant
    Bergman-type sum k + 1.
    """
    w = weighted_basis_values(model, z)
    return np.outer(w, w.conj())


def phase_average(m: int, deltas: np.ndarray) -> np.ndarray:
    """M-point trapezoid average (1/M) sum_n exp(2 pi i delta n / M) per
    delta, with M = m, in closed form: 1.0 where M divides delta, 0.0
    otherwise."""
    return (np.asarray(deltas) % m == 0).astype(float)


def _gram(model: SphereModel, quad: SphereQuadrature, log_amp: np.ndarray) -> np.ndarray:
    """diag(sum_t w_t f_j(t)^2) with f_j(t)^2 = e^log_amp_j t^j (1-t)^(k-j).

    The angular average of exp(i (j - l) angle) is the Kronecker delta for
    |j - l| <= k under the aliasing-free rule, so only the diagonal is
    integrated.
    """
    k = model.k
    need = exact_radial_count(k)
    if quad.radial_count < need:
        raise ValueError(
            f"{quad.radial_count} radial nodes cannot integrate degree-{k} "
            f"integrands exactly; need at least {need}")
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
