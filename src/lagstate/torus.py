"""Level-k theta-function model on the square torus.

The Hilbert space for level k >= 3 is spanned by the k theta series

    theta_j(z) = sum_n exp(-pi k (n + q)^2 + 2 pi i (n + q) k z),  q = (mu + j)/k,

j = 1..k, which are holomorphic and quasi-periodic for the lattice Z + iZ.
The inner product integrates f conj(g) exp(-2 pi k y^2) over the fundamental
square [0,1] x [0,1].  The x-integral is applied analytically; it makes the
theta basis orthogonal, and the squared norm 1/sqrt(2k) (the n-sum unfolds
the y-integral to a Gaussian on the line) is independent of j and mu.

Truncation of the n-sum is certified: the returned tail bound dominates the
dropped terms uniformly over |Im z| <= y_max.  Replacing q by q - round(q)
reindexes the sum without changing its value, so |q| <= 1/2 may be assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import max_abs

THETA_TOL = 1e-12
GRAM_Y_TOL = 1e-10
MAX_TERMS = 64
Y_NODES_START = 16


@dataclass(frozen=True)
class TorusModel:
    """Level-k model with real character parameter mu; dimension d = k."""

    k: int
    mu: float = 0.0

    def __post_init__(self) -> None:
        if self.k < 3:
            raise ValueError(f"torus model needs k >= 3, got {self.k}")
        if not math.isfinite(self.mu):
            raise ValueError("mu must be finite")

    @property
    def dim(self) -> int:
        return self.k

    def reduced_q(self, j: int) -> float:
        if not 1 <= j <= self.k:
            raise ValueError(f"theta index {j} out of range 1..{self.k}")
        # fmod is exact and keeps q mod 1, but stops a large mu from
        # swamping j / k in the division.
        q = (math.fmod(self.mu, self.k) + j) / self.k
        return q - round(q)


@dataclass(frozen=True)
class ThetaTruncation:
    """Certified n-sum cutoff: dropped terms sum below tail_bound <= tol
    everywhere in the strip |Im z| <= y_max."""

    n_max: int
    tail_bound: float
    tol: float
    y_max: float


def theta_truncation(model: TorusModel, tol: float = THETA_TOL,
                     y_max: float = 1.0) -> ThetaTruncation:
    """Smallest cutoff N whose guaranteed tail bound is below tol.

    For |n| = m > N, |q| <= 1/2 and |y| <= y_max each term is bounded by
    g(m) = exp(-pi k (m - 1/2)^2 + 2 pi k (m + 1/2) y_max), and consecutive
    bounds decay by at least exp(-2 pi k (m - y_max)), so the two-sided tail
    is below 2 g(N+1) / (1 - exp(-2 pi k (N + 1 - y_max))).
    """
    if tol <= 0.0 or not math.isfinite(tol):
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    k = model.k
    for n_max in range(max(1, math.ceil(y_max)), MAX_TERMS + 1):
        m = n_max + 1
        log_g = -math.pi * k * (m - 0.5) ** 2 + 2.0 * math.pi * k * (m + 0.5) * y_max
        if log_g > 500.0:
            continue
        bound = 2.0 * math.exp(log_g) / (-math.expm1(-2.0 * math.pi * k * (m - y_max)))
        if bound <= tol:
            return ThetaTruncation(n_max=n_max, tail_bound=bound, tol=tol,
                                   y_max=y_max)
    raise ValueError(
        f"theta tolerance {tol:g} not reachable within {MAX_TERMS} series "
        f"terms for k = {model.k}, y_max = {y_max:g}")


def _theta_columns(model: TorusModel, zs: np.ndarray,
                   trunc: ThetaTruncation) -> np.ndarray:
    """Theta values at the flat array zs; column j-1 holds theta_j."""
    k = model.k
    n = np.arange(-trunc.n_max, trunc.n_max + 1)
    x = zs.real[None, :]
    y = zs.imag[None, :]
    out = np.empty((len(zs), k), dtype=complex)
    for j in range(1, k + 1):
        nq = (n + model.reduced_q(j))[:, None]
        exponent = (-math.pi * k * nq * nq - 2.0 * math.pi * k * nq * y
                    + 2j * math.pi * k * nq * x)
        out[:, j - 1] = np.exp(exponent).sum(axis=0)
    return out


def theta_eval(model: TorusModel, j: int, z: complex,
               tol: float = THETA_TOL) -> complex:
    """theta_j at a single point, truncated with a certified tail below tol."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError("evaluation point must be finite")
    trunc = theta_truncation(model, tol, y_max=max(1.0, abs(z.imag)))
    return complex(_theta_columns(model, np.array([z]), trunc)[0, j - 1])


def quasi_periodicity_factor(model: TorusModel, z: complex, m: int, n: int) -> complex:
    """Multiplier relating theta(z + m + i n) to theta(z)."""
    k = model.k
    return complex(np.exp(2j * math.pi * (-(k / 2.0) * (1j * n * n + 2.0 * n * z)
                                          + m * model.mu)))


def gaussian_weight(k: int, y: np.ndarray | float) -> np.ndarray | float:
    """Inner-product weight exp(-2 pi k y^2), the value of
    exp((k pi / 2)(z - conj(z))^2) on z = x + iy."""
    return np.exp(-2.0 * math.pi * k * np.asarray(y) ** 2)


@dataclass(frozen=True)
class TorusGramResult:
    """Converged Gram matrix of the raw theta basis plus the resolution used."""

    gram: np.ndarray
    truncation: ThetaTruncation
    m_x: int
    n_y: int


def gram_quadrature(model: TorusModel, *, theta_tol: float = THETA_TOL,
                    m_x: int | None = None, y_tol: float = GRAM_Y_TOL,
                    n_y_start: int = Y_NODES_START,
                    n_y_max: int = 2048) -> TorusGramResult:
    """Theta-basis Gram matrix: x-rule in closed form, y by Gauss-Legendre.

    An x-rule with m_x >= 2k(2 n_max + 1) nodes is the Kronecker delta on all
    frequencies of the truncated products: off-diagonal entries are exact
    zeros, and m_x is checked against that threshold only.  The diagonal
    y-rule is doubled until it changes by less than y_tol.
    """
    if not 1 <= n_y_start <= n_y_max:
        raise ValueError(
            f"starting y-node count {n_y_start} is outside 1..{n_y_max}")
    k = model.k
    trunc = theta_truncation(model, theta_tol, y_max=1.0)
    m_min = 2 * k * (2 * trunc.n_max + 1)
    m_x = m_min if m_x is None else m_x
    if m_x < m_min:
        raise ValueError(
            f"{m_x} x-nodes alias truncated theta products at level {k}; "
            f"need at least {m_min}")
    shifts = (np.arange(-trunc.n_max, trunc.n_max + 1)[None, :]
              + np.array([model.reduced_q(j) for j in range(1, k + 1)])[:, None])
    prev = None
    n_y = n_y_start
    while n_y <= n_y_max:
        nodes, weights = np.polynomial.legendre.leggauss(n_y)
        ys = (nodes + 1.0) / 2.0
        # One square per term keeps it <= 1 (|a_n|^2 * weight overflows).
        terms = np.exp(-2.0 * math.pi * k * (ys + shifts[:, :, None]) ** 2)
        gram = np.diag(terms.sum(axis=1) @ (weights / 2.0)).astype(complex)
        if prev is not None and max_abs(gram - prev) < y_tol:
            return TorusGramResult(gram=gram, truncation=trunc, m_x=m_x, n_y=n_y)
        prev = gram
        n_y *= 2
    raise RuntimeError(
        f"torus Gram did not stabilize below {y_tol:g} with up to "
        f"{n_y_max} y-nodes")


def torus_gram(model: TorusModel, *, theta_tol: float = THETA_TOL,
               m_x: int | None = None, y_tol: float = GRAM_Y_TOL) -> np.ndarray:
    """Converged Gram matrix of the raw theta basis."""
    return gram_quadrature(model, theta_tol=theta_tol, m_x=m_x, y_tol=y_tol).gram


@dataclass(frozen=True)
class TorusBasis:
    """Orthonormalized theta basis phi_j = theta_j / |theta_j|."""

    model: TorusModel
    norms: np.ndarray
    raw_gram: np.ndarray
    truncation: ThetaTruncation
    m_x: int
    n_y: int

    @property
    def normalized_gram(self) -> np.ndarray:
        return self.raw_gram / np.outer(self.norms, self.norms)

    def gram_residual(self) -> float:
        return max_abs(self.normalized_gram - np.eye(self.model.k))

    def values(self, z: complex, tol: float = THETA_TOL) -> np.ndarray:
        """All phi_j(z), j = 1..k."""
        z = complex(z)
        trunc = theta_truncation(self.model, tol, y_max=max(1.0, abs(z.imag)))
        return _theta_columns(self.model, np.array([z]), trunc)[0] / self.norms


def orthonormal_basis(model: TorusModel, *, theta_tol: float = THETA_TOL,
                      m_x: int | None = None, y_tol: float = GRAM_Y_TOL,
                      n_y_start: int = Y_NODES_START) -> TorusBasis:
    """Normalize the theta basis by its quadrature norms.

    The closed-form squared norm is 1/sqrt(2k) for every j; the quadrature
    norms are used so that downstream states stay exactly consistent with
    the integration rule that builds them.
    """
    res = gram_quadrature(model, theta_tol=theta_tol, m_x=m_x, y_tol=y_tol,
                          n_y_start=n_y_start)
    norms = np.sqrt(np.diag(res.gram).real)
    return TorusBasis(model=model, norms=norms, raw_gram=res.gram,
                      truncation=res.truncation, m_x=res.m_x, n_y=res.n_y)


def closed_form_norm(model: TorusModel) -> float:
    """|theta_j| = (2k)^(-1/4) from the Gaussian unfolding of the y-integral."""
    return (2.0 * model.k) ** -0.25
