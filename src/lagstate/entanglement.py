"""Schmidt analysis of bipartite vectors with equal factor dimensions.

A vector v = sum_{j,l} c_{jl} e_j (x) e_l in H (x) H is represented by its
coefficient matrix c (rows index the first factor).  The Schmidt
decomposition is the SVD of c, the reduced density of the first factor is
c c^*, the entropy is the Shannon entropy (natural log) of its eigenvalues,
and the nearest product vector is the top Schmidt term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (as_matrix, frobenius_norm, hermitian_eigen, root_sum_squares,
                     svd)

NORM_TOL = 1e-9
# Default gap between the entropy and ln d within which a state counts as
# maximally entangled.
MAX_ENTROPY_TOL = 1e-9


def _fsum_squares(a: np.ndarray) -> float:
    # x * x is one IEEE product, rounded the same on every platform; x ** 2
    # calls the platform's pow, which may differ in the last bit.
    try:
        return math.fsum([x * x for x in a.tolist()])
    except OverflowError:  # fsum raises when its partial sums overflow
        return math.inf


def _tail_norm(alphas: np.ndarray) -> float:
    return root_sum_squares(alphas[1:], _fsum_squares)


@dataclass(frozen=True)
class EntanglementReport:
    """Entanglement measures of one normalized state with coefficients c:
    the entropy and Schmidt spectrum from the eigenvalues of c c^*, the
    separable distance from the singular values of c."""

    d: int
    entropy: float
    max_entropy: float
    corollary_distance: float
    separable_distance: float
    schmidt_spectrum: np.ndarray

    def is_maximally_entangled(self, tol: float = MAX_ENTROPY_TOL) -> bool:
        """Whether the entropy is within ``tol`` of its maximum ln d."""
        return abs(self.entropy - self.max_entropy) <= tol


def analyze(coeffs: np.ndarray) -> EntanglementReport:
    """Entanglement summary of a normalized state, factorized once each way:
    one eigensolve of c c^* and one SVD of c, of which only the singular
    values are read.  The entropy -sum lam ln lam (nats) sums every
    eigenvalue above zero after clamping to [0, 1] (0 ln 0 = 0), by
    compensated summation.  The report holds no reference to ``coeffs``."""
    c = as_matrix(coeffs, "analyze input")
    norm = frobenius_norm(c)
    if abs(norm - 1.0) > NORM_TOL:
        raise ValueError(f"state is not normalized: |v| = {norm:.12g}")
    lam = hermitian_eigen(c @ c.conj().T).clip(0.0, 1.0)
    nu = math.fsum([-x * math.log(x) for x in lam.tolist() if x > 0.0])
    return EntanglementReport(
        d=len(c), entropy=nu, max_entropy=math.log(len(c)),
        corollary_distance=math.sqrt(max(0.0, 1.0 - math.exp(-nu))),
        separable_distance=_tail_norm(svd(c).singular_values),
        schmidt_spectrum=lam)


def entropy(coeffs: np.ndarray) -> float:
    """Entanglement entropy of a normalized state; see :func:`analyze`."""
    return analyze(coeffs).entropy


def closest_separable(coeffs: np.ndarray) -> tuple[np.ndarray, float]:
    """Nearest product vector and its distance from the state.

    The minimizer keeps only the top Schmidt term, or is zero for the zero
    state; the distance is the Euclidean norm of the remaining Schmidt
    coefficients.
    """
    res = svd(coeffs)
    s = res.singular_values
    return (res.left[:, :1] * s[:1]) @ res.right[:, :1].conj().T, _tail_norm(s)


def is_maximally_entangled(coeffs: np.ndarray) -> bool:
    """See :meth:`EntanglementReport.is_maximally_entangled`."""
    return analyze(coeffs).is_maximally_entangled()


def corollary_distance_identity(coeffs: np.ndarray) -> tuple[float, float]:
    """Separable distance of a maximally entangled state vs sqrt(1 - e^-nu).

    Returns the pair (distance, sqrt(1 - exp(-entropy))); for maximally
    entangled states the two agree.  Raises ValueError for states that
    :meth:`EntanglementReport.is_maximally_entangled` rejects at its
    default ``MAX_ENTROPY_TOL``.
    """
    report = analyze(coeffs)
    if not report.is_maximally_entangled():
        raise ValueError(
            f"state is not maximally entangled: entropy {report.entropy:.12g} "
            f"vs ln d = {report.max_entropy:.12g}")
    return report.separable_distance, report.corollary_distance
