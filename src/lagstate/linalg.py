"""Dense complex linear algebra for small coefficient matrices.

The SVD is a one-sided Jacobi iteration on the columns of the input: one
Gram-matrix convergence test per sweep, and rotations in round-robin
parallel order.  It calls no LAPACK routine, so the Schmidt route through
``svd`` stays independent of the spectral route through ``hermitian_eigen``
(which wraps LAPACK); the two are cross-checked against each other.
The Gauss-Legendre rule on [0, 1] that both models integrate with lives
here too.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# Off-diagonal Gram ratio below which a column pair counts as orthogonal.
JACOBI_TOL = 1e-13
MAX_SWEEPS = 30


@dataclass(frozen=True)
class SvdResult:
    """Factorization a = left @ diag(singular_values) @ right.conj().T."""

    left: np.ndarray
    singular_values: np.ndarray
    right: np.ndarray
    sweeps: int          # rotating sweeps performed
    worst_ratio: float   # off-diagonal ratio at the final convergence test

    def reconstruct(self) -> np.ndarray:
        return (self.left * self.singular_values) @ self.right.conj().T


def as_complex_matrix(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate input as a finite complex 2-D array; no copy is made when
    it already is one, so callers that keep or modify it copy it themselves."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(float))):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def max_abs(a: np.ndarray) -> float:
    """Largest entry magnitude; zero for empty input."""
    return 0.0 if np.size(a) == 0 else float(np.max(np.abs(a)))


def frobenius_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius (Hilbert-Schmidt) distance between equally shaped arrays."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm((a - b).ravel()))


@functools.lru_cache(maxsize=16)
def gauss_legendre_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [0, 1], built once per
    node count and shared read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes, weights = (nodes + 1.0) / 2.0, weights / 2.0
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _complete_orthonormal(u: np.ndarray, rank: int) -> None:
    """Fill the zero columns rank.. of u with unit vectors orthogonal to the rest.

    Deterministic: candidates are scanned in canonical basis order and a
    candidate is accepted once its residual keeps at least half its norm.
    """
    n = u.shape[0]
    for j in range(rank, n):
        for i in range(n):
            cand = np.zeros(n, dtype=complex)
            cand[i] = 1.0
            for f in range(j):
                cand -= np.vdot(u[:, f], cand) * u[:, f]
            norm = np.linalg.norm(cand)
            if norm > 0.5:
                u[:, j] = cand / norm
                break
        else:
            raise RuntimeError("failed to complete orthonormal basis")


def round_robin(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Brent-Luk round-robin order of the pairs p < q of n columns: n - 1
    rounds (n for odd n, padded by a dropped dummy index) of disjoint pairs,
    each round given as index arrays (p, q); every pair occurs once."""
    m = n + n % 2
    r, i = np.arange(m - 1)[:, None], np.arange(1, m // 2)
    a, b = (r + i) % (m - 1), (r - i) % (m - 1)
    if n == m:
        a, b = np.hstack((a, r)), np.hstack((b, np.full_like(r, m - 1)))
    return list(zip(np.minimum(a, b), np.maximum(a, b)))


def _worst_ratio(u: np.ndarray) -> float:
    """Largest |<u_p, u_q>| / (|u_p| |u_q|) over rows p != q of u, rows of
    zero norm excluded; formed in place in the Gram matrix, one BLAS call."""
    g = u.conj() @ u.T
    norms = np.sqrt(g.diagonal().real)
    norms[norms == 0.0] = np.inf
    ratio = np.abs(g, out=g).real
    ratio /= norms[:, None]
    ratio /= norms
    ratio[np.diag_indices(len(u))] = 0.0
    return float(ratio.max(initial=0.0))


def _rotate_round(w: np.ndarray, p: np.ndarray, q: np.ndarray, tol: float) -> None:
    """Rotate, all at once, the disjoint row pairs (p, q) of w = [U^T | V^T]
    whose U halves are further than tol from orthogonal."""
    n = w.shape[1] // 2
    xu, yu = w[p, :n], w[q, :n]
    app, aqq = (np.einsum("ij,ij->i", z.view(float), z.view(float)) for z in (xu, yu))
    apq = np.einsum("ij,ij->i", xu.conj(), yu)
    beta = np.abs(apq)
    act = (beta > tol * np.sqrt(app) * np.sqrt(aqq)) & (app > 0.0) & (aqq > 0.0)
    if not act.any():
        return
    p, q, app, aqq, apq, beta = p[act], q[act], app[act], aqq[act], apq[act], beta[act]
    x, y = w[p], w[q]
    # Unitary plane rotation chosen to zero <a_p', a_q'>.
    phase = apq / beta
    tau = (aqq - app) / (2.0 * beta)
    t = np.copysign(1.0, tau) / (np.abs(tau) + np.hypot(1.0, tau))
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = c * t
    w[p] = c[:, None] * x - (s * np.conj(phase))[:, None] * y
    w[q] = s[:, None] * x + (c * np.conj(phase))[:, None] * y


def svd(a: np.ndarray, *, tol: float = JACOBI_TOL,
        max_sweeps: int = MAX_SWEEPS) -> SvdResult:
    """One-sided Jacobi SVD of a square complex matrix, without LAPACK.

    Each sweep starts with one test on the Gram matrix of the working
    columns, and the SVD stops once every off-diagonal ratio
    |<a_p, a_q>| / (|a_p| |a_q|) between nonzero columns is at most ``tol``.
    Otherwise the sweep rotates the pairs above ``tol`` in round-robin
    order, one numpy step per round of disjoint pairs.  Singular values are
    descending; equal values keep the order of the original columns.  Raises
    ValueError on non-square or non-finite input, and RuntimeError when
    ``max_sweeps`` rotating sweeps do not converge.
    """
    a = as_complex_matrix(a, "svd input")
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError(f"svd input must be square, got shape {a.shape}")
    # Row j is column j of U, then column j of V: a pair rotation updates rows.
    w = np.concatenate((a.T, np.eye(n)), axis=1)
    del a
    sweeps = 0
    while (worst := _worst_ratio(w[:, :n])) > tol:
        if sweeps == max_sweeps:
            raise RuntimeError(
                f"jacobi svd did not converge in {max_sweeps} sweeps; "
                f"worst off-diagonal ratio {worst:.3e}")
        for p, q in round_robin(n):
            _rotate_round(w, p, q, tol)
        sweeps += 1
    w = np.ascontiguousarray(w.T)  # U above V, both in column layout again
    # Each column is scaled by a power of two near its largest modulus: exact,
    # so squares of moduli below 1e-154 cannot underflow to a zero norm.
    e = np.maximum(np.frexp(np.abs(w[:n]).max(axis=0, initial=0.0))[1], -1021)
    sigma = np.ldexp(np.linalg.norm(w[:n] * np.ldexp(1.0, -e), axis=0), e)
    order = np.argsort(-sigma, kind="stable")
    sigma = sigma[order]
    u, v = w[:n, order], w[n:, order]
    rank = np.count_nonzero(sigma)
    u[:, :rank] /= sigma[:rank]
    _complete_orthonormal(u, rank)
    return SvdResult(left=u, singular_values=sigma, right=v, sweeps=sweeps,
                     worst_ratio=worst)


def hermitian_eigen(h: np.ndarray, *, tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and eigenvectors of a Hermitian matrix.

    Thin wrapper over LAPACK's Hermitian solver; serves as the spectral
    cross-check for :func:`svd`.  Rejects input whose Hermitian defect
    exceeds ``tol`` relative to its largest entry.
    """
    h = as_complex_matrix(h, "hermitian_eigen input")
    if h.shape[0] != h.shape[1]:
        raise ValueError(f"hermitian_eigen input must be square, got {h.shape}")
    defect = max_abs(h - h.conj().T)
    scale = max_abs(h)
    if defect > tol * scale:
        raise ValueError(
            f"input is not Hermitian: max |h - h^*| = {defect:.3e} "
            f"(max entry {scale:.3e})")
    w, vecs = np.linalg.eigh(h)
    return w[::-1].copy(), vecs[:, ::-1].copy()
