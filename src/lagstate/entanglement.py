"""Schmidt analysis of bipartite vectors with equal factor dimensions.

A vector v = sum_{j,l} c_{jl} e_j (x) e_l in H (x) H is represented by its
coefficient matrix c (rows index the first factor).  The Schmidt
decomposition is the SVD of c, the reduced density of the first factor is
c c^*, the entropy is the Shannon entropy (natural log) of its eigenvalues,
and the nearest product vector is the top Schmidt term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import as_complex_matrix, hermitian_eigen, svd

NORM_TOL = 1e-9
EIGENVALUE_FLOOR = 1e-15


@dataclass(frozen=True)
class SchmidtDecomposition:
    """v = sum_j alphas[j] * basis_left[:, j] (x) basis_right[:, j]."""

    alphas: np.ndarray
    basis_left: np.ndarray
    basis_right: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.basis_left * self.alphas) @ self.basis_right.T


def _state_matrix(coeffs: np.ndarray, *, require_normalized: bool) -> np.ndarray:
    c = as_complex_matrix(coeffs, "state coefficients")
    if c.shape[0] != c.shape[1]:
        raise ValueError(f"coefficient matrix must be square, got {c.shape}")
    if require_normalized:
        norm = float(np.linalg.norm(c.ravel()))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state is not normalized: |v| = {norm:.12g}")
    return c


def schmidt(coeffs: np.ndarray) -> SchmidtDecomposition:
    """Schmidt decomposition of a (not necessarily normalized) state.

    The left/right bases are orthonormal and the coefficients are the
    singular values of the coefficient matrix in descending order.  With
    c = U S V^* the right basis holds the conjugated columns of V, so that
    ``reconstruct`` resumes c without further conjugation.
    """
    res = svd(_state_matrix(coeffs, require_normalized=False))
    return SchmidtDecomposition(res.singular_values, res.left, res.right.conj())


def partial_trace_2(coeffs: np.ndarray) -> np.ndarray:
    """Reduced density matrix of the first factor: c c^*."""
    c = _state_matrix(coeffs, require_normalized=False)
    return c @ c.conj().T


def _spectrum(c: np.ndarray) -> tuple[np.ndarray, float]:
    """Eigenvalues of c c^* clamped to [0, 1], and their entropy."""
    lam = np.clip(hermitian_eigen(c @ c.conj().T)[0].real, 0.0, 1.0)
    return lam, math.fsum(-x * math.log(x) for x in lam if x > EIGENVALUE_FLOOR)


def _tail_norm(alphas: np.ndarray) -> float:
    return math.sqrt(math.fsum(float(a) ** 2 for a in alphas[1:]))


@dataclass(frozen=True)
class EntanglementReport:
    """Entanglement measures of one normalized state with coefficients c;
    the SVD behind the separable distance runs on first access only."""

    coeffs: np.ndarray = field(repr=False)
    d: int
    entropy: float
    max_entropy: float
    corollary_distance: float
    schmidt_spectrum: np.ndarray

    @cached_property
    def separable_distance(self) -> float:
        return _tail_norm(svd(self.coeffs).singular_values)

    def is_maximally_entangled(self, tol: float = 1e-9) -> bool:
        """Whether the Schmidt spectrum is flat, i.e. the entropy attains ln d.

        Two equivalent checks are run: the entropy is within ``tol`` of
        ln d, and every eigenvalue is within sqrt(2 tol / d) of 1/d (the
        second-order expansion of the entropy around the flat spectrum).  A
        disagreement between them indicates a borderline state and raises
        RuntimeError: it is a numerical outcome, not a usage error.
        """
        by_entropy = abs(self.entropy - self.max_entropy) <= tol
        by_spectrum = bool(np.max(np.abs(self.schmidt_spectrum - 1.0 / self.d))
                           <= math.sqrt(2.0 * tol / self.d))
        if by_entropy != by_spectrum:
            raise RuntimeError(
                "maximal-entanglement checks disagree: "
                f"entropy check {by_entropy}, spectrum check {by_spectrum}")
        return by_entropy


def analyze(coeffs: np.ndarray) -> EntanglementReport:
    """Entanglement summary of a normalized state, factorized once: one
    eigensolve of c c^*, plus one SVD of c if the distance is read.  The
    report keeps its own copy of c, the only copy along this path."""
    c = _state_matrix(coeffs, require_normalized=True).copy()
    lam, nu = _spectrum(c)
    return EntanglementReport(
        coeffs=c, d=len(c), entropy=nu, max_entropy=math.log(len(c)),
        corollary_distance=math.sqrt(max(0.0, 1.0 - math.exp(-nu))),
        schmidt_spectrum=lam)


def schmidt_spectrum(coeffs: np.ndarray) -> np.ndarray:
    """Eigenvalues of the reduced density matrix, descending, clamped to [0, 1]."""
    return _spectrum(_state_matrix(coeffs, require_normalized=False))[0]


def entropy(coeffs: np.ndarray, *, require_normalized: bool = True) -> float:
    """Entanglement entropy -sum lam ln lam in nats, by compensated
    summation; eigenvalues below 1e-15 count as exact zeros (0 ln 0 = 0)."""
    return _spectrum(_state_matrix(coeffs, require_normalized=require_normalized))[1]


def closest_separable(coeffs: np.ndarray) -> tuple[np.ndarray, float]:
    """Nearest product vector and its distance from the state.

    The minimizer keeps only the top Schmidt term; the distance is the
    Euclidean norm of the remaining Schmidt coefficients.
    """
    dec = schmidt(coeffs)
    u_s = dec.alphas[0] * np.outer(dec.basis_left[:, 0], dec.basis_right[:, 0])
    return u_s, _tail_norm(dec.alphas)


def is_maximally_entangled(coeffs: np.ndarray, *, tol: float = 1e-9) -> bool:
    """See :meth:`EntanglementReport.is_maximally_entangled`."""
    return analyze(coeffs).is_maximally_entangled(tol)


def corollary_distance_identity(coeffs: np.ndarray, *, tol: float = 1e-9) -> tuple[float, float]:
    """Separable distance of a maximally entangled state vs sqrt(1 - e^-nu).

    Returns the pair (distance, sqrt(1 - exp(-entropy))); for maximally
    entangled states the two agree.  Raises for states that are not
    maximally entangled within ``tol``.
    """
    report = analyze(coeffs)
    if abs(report.entropy - report.max_entropy) > tol:
        raise ValueError(
            f"state is not maximally entangled: entropy {report.entropy:.12g} "
            f"vs ln d = {report.max_entropy:.12g}")
    return report.separable_distance, report.corollary_distance


def separable_distance_minimized(coeffs: np.ndarray, *, seed: int,
                                 starts: int = 16, iters: int = 500,
                                 tol: float = 1e-12) -> float:
    """Distance to the separable set by direct numerical minimization.

    Alternating maximization of the overlap |<u1 (x) u2, v>| over unit
    vectors u1, u2 from several seeded random starts.  Intentionally avoids
    the SVD so it can serve as an independent check on
    :func:`closest_separable`.
    """
    c = _state_matrix(coeffs, require_normalized=False)
    rng = np.random.default_rng(seed)
    total = float(np.linalg.norm(c.ravel()))
    best = 0.0
    for _ in range(starts):
        b = rng.standard_normal(len(c)) + 1j * rng.standard_normal(len(c))
        b /= np.linalg.norm(b)
        value = 0.0
        for _ in range(iters):
            m = c @ b.conj()
            na = np.linalg.norm(m)
            if na == 0.0:
                break
            a = m / na
            h = c.T @ a.conj()
            nb = np.linalg.norm(h)
            if nb == 0.0:
                break
            b = h / nb
            done, value = abs(nb - value) <= tol * max(1.0, nb), float(nb)
            if done:
                break
        best = max(best, value)
    return math.sqrt(max(0.0, total * total - best * best))
