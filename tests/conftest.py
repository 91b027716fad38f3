"""Shared helpers and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they are used to check:
exact rational Beta integrals for the sphere monomial norms, a direct theta
summation for truncation certificates, exact integer binomials for the
circle state, a dense Gauss-Legendre rule for the torus norm, and the full
2-D product rule for the torus Gram matrix.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-ish random unitary via QR with the standard phase fix."""
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(a)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def column_graded_matrix(rng: np.random.Generator, k: int) -> np.ndarray:
    """B diag(C(k, j) / C(k, k//2)) with B = U + I/2, U a random unitary.

    B is normal with eigenvalues of modulus in [1/2, 3/2], so cond(B) <= 3;
    the column scales span the binomial range of the circle spectrum.  This
    is the column-scaled class on which one-sided Jacobi keeps relative
    accuracy (Demmel and Veselic 1992), and its columns are far from
    orthogonal, so the SVD has to rotate.
    """
    col = np.array([math.comb(k, j) for j in range(k + 1)], dtype=float)
    return (random_unitary(rng, k + 1) + 0.5 * np.eye(k + 1)) * (col / col.max())


def random_state(rng: np.random.Generator, d: int) -> np.ndarray:
    """Normalized random coefficient matrix."""
    c = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return c / np.linalg.norm(c)


def random_unit_vector(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def beta_monomial_norm(k: int, j: int) -> Fraction:
    """Exact value of <z^j, z^j> = j! (k-j)! / (k+1)! from the Beta integral."""
    return Fraction(math.factorial(j) * math.factorial(k - j),
                    math.factorial(k + 1))


def circle_diag_coefficient(k: int, j: int) -> float:
    """Exact-rational circle coefficient pi 2^(1-k) (k+1)! / (j! (k-j)!)."""
    ratio = Fraction(2 * math.factorial(k + 1),
                     math.factorial(j) * math.factorial(k - j) * 2 ** k)
    return math.pi * float(ratio)


def circle_raw_norm(k: int) -> float:
    """Exact-form raw norm pi (k+1) 2^(1-k) sqrt(C(2k,k))."""
    return math.pi * (k + 1) * 2.0 ** (1 - k) * math.sqrt(math.comb(2 * k, k))


def circle_spectrum_exact(k: int) -> list[Fraction]:
    """Schmidt spectrum of the circle state: C(k,j)^2 / C(2k,k), exact."""
    total = math.comb(2 * k, k)
    return [Fraction(math.comb(k, j) ** 2, total) for j in range(k + 1)]


def circle_entropy_reference(k: int) -> float:
    """Entropy from the exact spectrum, summed independently."""
    return -math.fsum(float(p) * math.log(float(p))
                      for p in circle_spectrum_exact(k) if p > 0)


def theta_reference(k: int, mu: float, j: int, z: complex, n_max: int) -> complex:
    """Direct theta summation with an explicit cutoff, no reindexing tricks."""
    q = (mu + j) / k
    total = 0.0 + 0.0j
    for n in range(-n_max, n_max + 1):
        total += np.exp(-math.pi * k * (n + q) ** 2
                        + 2j * math.pi * (n + q) * k * z)
    return complex(total)


def torus_norm_reference(k: int, q: float, n_quad: int = 400,
                         n_range: int = 8) -> float:
    """Dense quadrature of sum_n int_0^1 exp(-2 pi k (n + q + y)^2) dy."""
    x, w = np.polynomial.legendre.leggauss(n_quad)
    y = (x + 1.0) / 2.0
    w = w / 2.0
    total = 0.0
    for n in range(-n_range, n_range + 1):
        total += float(np.sum(w * np.exp(-2.0 * math.pi * k * (n + q + y) ** 2)))
    return total


def torus_gram_reference(k: int, mu: float, n_y: int, m_x: int,
                         n_range: int = 8) -> np.ndarray:
    """Raw theta Gram by the full m_x-point trapezoid (x) times n_y-point
    Gauss-Legendre (y) product rule on [0,1]^2, weight exp(-2 pi k y^2).

    Each theta series is summed directly over |n| <= n_range with the
    unreduced characteristic q = (mu + j)/k, so neither the x-sum nor the
    orthogonality of the basis is assumed.
    """
    t, w = np.polynomial.legendre.leggauss(n_y)
    y = (t + 1.0) / 2.0
    z = np.arange(m_x)[None, :] / m_x + 1j * y[:, None]
    theta = np.zeros((k, n_y, m_x), dtype=complex)
    for j in range(1, k + 1):
        q = (mu + j) / k
        for n in range(-n_range, n_range + 1):
            theta[j - 1] += np.exp(-math.pi * k * (n + q) ** 2
                                   + 2j * math.pi * (n + q) * k * z)
    weight = (w / 2.0) * np.exp(-2.0 * math.pi * k * y ** 2) / m_x
    return np.einsum("jyx,lyx,y->jl", theta, theta.conj(), weight)
