"""Level-k theta-function model on the square torus.

The Hilbert space for level k >= 3 is spanned by the k theta series

    theta_j(z) = sum_n exp(-pi k (n + q)^2 + 2 pi i (n + q) k z),  q = (mu + j)/k,

j = 1..k, which are holomorphic and quasi-periodic for the lattice Z + iZ.
The inner product integrates f conj(g) exp(-2 pi k y^2) over the fundamental
square [0,1] x [0,1].  The x-integral is the trapezoid rule at its
aliasing-free size m_x = 2k(2 n_max + 1), applied in closed form; it makes
the theta basis orthogonal, and the squared norm 1/sqrt(2k) (the n-sum
unfolds the y-integral to a Gaussian on the line) is independent of j and
mu.  The orthonormal basis divides by that closed-form norm and only
evaluates.  :func:`gram_quadrature` returns the Gram with its resolution
dict; :meth:`TorusModel.antidiagonal_gram` divides the Gram by the
closed-form squared norm, so the normalized Gram's defect from the identity
measures the quadrature against the closed form, and reports the resolution
as the state's provenance.

Truncation of the n-sum is certified: the returned tail bound dominates the
dropped terms uniformly over |Im z| <= y_max.  Replacing q by q - round(q)
reindexes the sum without changing its value, so |q| <= 1/2 may be assumed.
The y-integral of the Gram diagonal is certified the same way: its
Gauss-Legendre rule is the smallest shared rule size of ``linalg.rule_size``
whose Bernstein-ellipse error bound (``_y_bound``) meets the target, and
that one rule is evaluated.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import Any

import numpy as np

from .linalg import as_point, gauss_legendre_01, rule_size

THETA_TOL = 1e-12
_LOG_FLOAT_MAX = math.log(sys.float_info.max)  # exp overflows past it
MAX_TERMS = 64
# log rho over which the y-rule error bound is minimized.  Every rho gives a
# valid bound, so the grid sets only its tightness; it brackets the optimum
# asinh(4n / (pi k)) / 2 (ignoring the 1/(rho^2 - 1) factor) for every
# k < 10^7 at THETA_TOL.
_LOG_RHO = np.geomspace(1e-3, 8.0, 256)
# The terms of the y-rule bound that depend on log rho alone.
_SINH_LOG_RHO_SQ = np.sinh(_LOG_RHO) ** 2
_LOG_EXPM1_2LOG_RHO = np.log(np.expm1(2.0 * _LOG_RHO))


@dataclass(frozen=True)
class TorusModel:
    """Level-k model with real character parameter mu; dimension d = k."""

    K_MIN = 3  # smallest level

    k: int
    mu: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", operator.index(self.k))  # an int, or TypeError
        if self.k < self.K_MIN:
            raise ValueError(f"torus model needs k >= {self.K_MIN}, got {self.k}")
        if not math.isfinite(self.mu):
            raise ValueError("mu must be finite")

    @property
    def dim(self) -> int:
        return self.k

    def _check_index(self, j: int) -> None:
        if not 1 <= j <= self.k:
            raise ValueError(f"theta index {j} out of range 1..{self.k}")

    def reduced_q(self, j: int) -> float:
        self._check_index(j)
        return float(_reduced_q(self, j))

    def antidiagonal_gram(self) -> tuple[np.ndarray, np.ndarray, dict[str, Any]]:
        """(raw Gram, normalized Gram, resolution) of the theta basis; the
        normalized Gram is the raw one over the closed-form squared norm."""
        gram, resolution = gram_quadrature(self)
        return gram, gram * math.sqrt(2.0 * self.k), {
            "model": "torus", "k": self.k, "mu": self.mu, **resolution}


def theta_truncation(model: TorusModel, *,
                     y_max: float = 1.0) -> tuple[int, float]:
    """Smallest cutoff N whose guaranteed tail bound is below THETA_TOL, as
    (N, tail bound): the dropped terms sum below that bound everywhere in
    the strip |Im z| <= y_max.

    For |n| = m > N, |q| <= 1/2 and |y| <= y_max each term is bounded by
    g(m) = exp(-pi k (m - 1/2)^2 + 2 pi k (m + 1/2) y_max), and consecutive
    bounds decay by at least exp(-2 pi k (m - y_max)), so the two-sided tail
    is below 2 g(N+1) / (1 - exp(-2 pi k (N + 1 - y_max))).
    """
    if not 0.0 <= y_max < math.inf:
        raise ValueError(f"y_max must be finite and non-negative, got {y_max}")
    k = model.k
    for n_max in range(max(1, math.ceil(y_max)), MAX_TERMS + 1):
        m = n_max + 1
        log_g = -math.pi * k * (m - 0.5) ** 2 + 2.0 * math.pi * k * (m + 0.5) * y_max
        if log_g > 500.0:
            continue
        bound = 2.0 * math.exp(log_g) / (-math.expm1(-2.0 * math.pi * k * (m - y_max)))
        if bound <= THETA_TOL:
            return n_max, bound
    raise ValueError(
        f"theta tolerance {THETA_TOL:g} not reachable within {MAX_TERMS} "
        f"series terms for k = {model.k}, y_max = {y_max:g}")


def _reduced_q(model: TorusModel, j: int | np.ndarray) -> float | np.ndarray:
    """q_j = (mu + j)/k less its nearest integer, for an index or an index
    array j."""
    # fmod is exact and keeps q mod 1, but stops a large mu from swamping
    # j / k in the division.
    q = (math.fmod(model.mu, model.k) + j) / model.k
    return q - np.round(q)


def _shifts(model: TorusModel, n_max: int) -> np.ndarray:
    """The k x (2 n_max + 1) table of n + q_j; row j-1 belongs to theta_j."""
    return (np.arange(-n_max, n_max + 1)[None, :]
            + _reduced_q(model, np.arange(1, model.k + 1))[:, None])


def _theta_values(model: TorusModel, z: complex) -> np.ndarray:
    """All theta_j(z), j = 1..k, with a certified tail below THETA_TOL.  The
    largest term is about exp(pi k (Im z)^2): past k (Im z)^2 ~ 226 it is a
    ValueError."""
    z = as_point(z)
    k = model.k
    nq = _shifts(model, theta_truncation(model, y_max=max(1.0, abs(z.imag)))[0])
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.exp(-math.pi * k * nq * nq - 2.0 * math.pi * k * nq * z.imag
                        + 2j * math.pi * k * nq * z.real).sum(axis=1)
    if not np.isfinite(values).all():
        raise ValueError(f"theta series overflows at k = {k}, Im z = {z.imag:g}")
    return values


def theta_eval(model: TorusModel, j: int, z: complex) -> complex:
    """theta_j at a single point, truncated with a certified tail below
    THETA_TOL."""
    model._check_index(j)
    return complex(_theta_values(model, z)[j - 1])


def quasi_periodicity_factor(model: TorusModel, z: complex, m: int, n: int) -> complex:
    """Multiplier relating theta(z + m + i n) to theta(z); m, n integers.  Its
    modulus is exp(pi k n (n + 2 Im z)): past the float range a ValueError."""
    m, n, z, k = operator.index(m), operator.index(n), as_point(z), model.k
    exponent = 2j * math.pi * (-(k / 2.0) * (1j * n * n + 2.0 * n * z) + m * model.mu)
    if exponent.real > _LOG_FLOAT_MAX:
        raise ValueError(f"quasi-periodicity multiplier overflows at k = {k}, "
                         f"n = {n}, Im z = {z.imag:g}")
    return complex(np.exp(exponent))


def _y_bound(k: int, n_max: int, n: int) -> float:
    """Error bound of the n-point Gauss-Legendre y-rule on the Gram diagonal.

    The diagonal integrand f(y) = sum_{|n| <= N} exp(-2 pi k (y + n + q)^2)
    is entire.  On the Bernstein ellipse E_rho of [0, 1],
    |Im y| <= b = (rho - 1/rho)/4, so |f| <= (2N + 1) exp(2 pi k b^2), and
    the n-point Gauss-Legendre error is below
    (32/15) (2N + 1) exp(2 pi k b^2) rho^(-2n) / (rho^2 - 1)
    (Trefethen, SIAM Rev. 50, 2008, Thm 4.5), minimized here over the fixed
    grid of log rho.  The bound falls as n grows.
    """
    return float(np.exp((math.log(32.0 / 15.0 * (2 * n_max + 1))
                         + 0.5 * math.pi * k * _SINH_LOG_RHO_SQ
                         - _LOG_EXPM1_2LOG_RHO - 2.0 * n * _LOG_RHO).min()))


def gram_quadrature(model: TorusModel) -> tuple[np.ndarray, dict[str, Any]]:
    """Theta-basis Gram matrix and its resolution, as (gram, resolution):
    x-rule in closed form, y by Gauss-Legendre.

    ``resolution`` is {"n_max", "tail_bound", "m_x", "n_y", "y_bound"}, in
    that order.  The series is cut at |n| <= n_max with a tail below
    tail_bound on |Im z| <= 1.  m_x = 2k(2 n_max + 1) is the size of the
    x-trapezoid that aliases no frequency of the truncated theta products;
    at that size the rule is the Kronecker delta on all of them, so it is
    applied in closed form and off-diagonal entries are exact zeros.  The
    diagonal is integrated once, by the n_y-node rule: the smallest shared
    rule size of :func:`linalg.rule_size` whose :func:`_y_bound`, the
    reported y_bound, is at most THETA_TOL (2k)^(-1/2), i.e. THETA_TOL
    relative to the closed-form squared norm.  Both the series tail and the
    y-rule are certified at ``THETA_TOL``.
    """
    k = model.k
    n_max, tail_bound = theta_truncation(model)
    target = THETA_TOL / math.sqrt(2.0 * k)
    n_y = rule_size(1)
    while (y_bound := _y_bound(k, n_max, n_y)) > target:
        n_y = rule_size(n_y + 1)
    shifts = _shifts(model, n_max)
    ys, weights, _, _ = gauss_legendre_01(n_y)
    # One square per term keeps it <= 1 (|a_n|^2 * weight overflows).
    terms = np.exp(-2.0 * math.pi * k * (ys + shifts[:, :, None]) ** 2)
    gram = np.diag(terms.sum(axis=1) @ weights)
    return gram, {"n_max": n_max, "tail_bound": tail_bound,
                  "m_x": 2 * k * (2 * n_max + 1), "n_y": n_y, "y_bound": y_bound}


def orthonormal_basis(model: TorusModel, z: complex) -> np.ndarray:
    """All phi_j(z) = theta_j(z) / |theta_j|, j = 1..k, with the closed-form
    norm (2k)^(-1/4) and the theta tail below THETA_TOL; no Gram is
    computed."""
    return _theta_values(model, z) / closed_form_norm(model)


def closed_form_norm(model: TorusModel) -> float:
    """|theta_j| = (2k)^(-1/4) from the Gaussian unfolding of the y-integral."""
    return (2.0 * model.k) ** -0.25
