"""Shared helpers and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they are used to check:
exact rational Beta integrals for the sphere monomial norms, a direct theta
summation for truncation certificates, exact integer binomials for the
circle state, a dense Gauss-Legendre rule for the torus norm, the erf closed
form of the truncated torus Gram diagonal, the full 2-D product rule for the
torus Gram matrix, the torus Gram diagonal summed over every shift,
Newton-polished Legendre roots in 30-digit arithmetic for the error of the
computed Gauss-Legendre rule, and alternating maximization (no SVD) for the
distance to the separable set.  It also holds the small helpers that only
tests call: the torus inner-product weight, the separable pair of two
coherent vectors, the sphere fiber pairing, the reduced density matrix,
``report``'s CSV for a list of rows with the parser of it back into rows,
and the environment of a ``lagstate`` child process.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterable
from fractions import Fraction

import numpy as np

from lagstate.cli import CSV_HEADER, ReportRow, render_row
from lagstate.linalg import gauss_legendre_01
from lagstate.torus import _reduced_q


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


def near_flat_state(d: int, gap: float) -> np.ndarray:
    """Diagonal d x d state (d even) with Schmidt weights 1/d +- eps,
    alternating in sign, eps = sqrt(2 gap) / d: its entropy is ln d - gap
    up to fourth order in eps."""
    eps = math.sqrt(2.0 * gap) / d
    signs = np.resize([1.0, -1.0], d)
    return np.diag(np.sqrt(1.0 / d + signs * eps))


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


def circle_schmidt_values_exact(k: int) -> np.ndarray:
    """Circle Schmidt values C(k,j) / sqrt(C(2k,k)), j = 0..k, each from an
    exact integer square root carrying at least 64 significant bits, so they
    keep full relative accuracy where the weights C(k,j)^2 / C(2k,k)
    underflow."""
    central = math.comb(2 * k, k)
    shift = k + 64  # sqrt(C(2k,k)) < 2^k, so every root is >= 2^64
    roots = [math.isqrt((math.comb(k, j) ** 2 << 2 * shift) // central)
             for j in range(k + 1)]
    return np.array([math.ldexp(float(r), -shift) for r in roots])


def circle_entropy_reference(k: int) -> float:
    """Entropy from the exact spectrum, summed independently."""
    return -math.fsum(float(p) * math.log(float(p))
                      for p in circle_spectrum_exact(k) if p > 0)


def gaussian_weight(k: int, y: np.ndarray | float) -> np.ndarray | float:
    """Torus inner-product weight exp(-2 pi k y^2), the value of
    exp((k pi / 2)(z - conj(z))^2) on z = x + iy."""
    return np.exp(-2.0 * math.pi * k * np.asarray(y) ** 2)


def pair_coherent(u, w) -> np.ndarray:
    """Separable state u (x) w of two coherent vectors, given by their
    coefficients, as a coefficient matrix (outer product)."""
    if u.shape != w.shape:
        raise ValueError(
            f"coherent vectors live in different spaces: {u.shape} vs {w.shape}")
    return np.outer(u, w)


def pairing_matrix(model, z: complex) -> np.ndarray:
    """Fiber pairing h(phi_j, phi_l)(z) = phi_j(z) conj(phi_l(z)) / (1+|z|^2)^k
    of the sphere model.

    Hermitian, rank one, positive semidefinite; its trace is the constant
    Bergman-type sum k + 1.
    """
    from lagstate.sphere import weighted_basis_values

    w = weighted_basis_values(model, z)
    return np.outer(w, w.conj())


def partial_trace_2(coeffs: np.ndarray) -> np.ndarray:
    """Reduced density matrix of the first factor: c c^*."""
    c = np.asarray(coeffs, dtype=complex)
    return c @ c.conj().T


def gauss_legendre_01_defects(ys: np.ndarray, ws: np.ndarray,
                              n: int | None = None) -> tuple[float, float]:
    """Errors of a computed Gauss-Legendre rule on [0, 1]: the largest node
    error and the sum of absolute weight errors.

    ys and ws are the whole n-point rule, or some of its nodes with their
    weights when n is given.  Each computed node seeds two Newton steps on
    P_n in 30-digit arithmetic (the three-term recurrence); the exact weight
    is 1 / ((1 - x^2) P_n'(x)^2) on [0, 1].
    """
    import mpmath

    n = len(ys) if n is None else n
    node_error = weight_error = 0.0
    with mpmath.workdps(30):
        for y, w in zip(ys, ws):
            x = 2 * mpmath.mpf(float(y)) - 1
            for step in range(3):
                p0, p1 = mpmath.mpf(1), x
                for m in range(2, n + 1):
                    p0, p1 = p1, ((2 * m - 1) * x * p1 - (m - 1) * p0) / m
                dp = n * (x * p1 - p0) / (x * x - 1)
                if step < 2:
                    x -= p1 / dp
            node_error = max(node_error, abs(float((x + 1) / 2 - float(y))))
            weight_error += abs(float(1 / ((1 - x * x) * dp * dp) - float(w)))
    return node_error, weight_error


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


def torus_gram_diag_reference(k: int, q: float, n_max: int) -> float:
    """Exact sum_{|n| <= n_max} int_0^1 exp(-2 pi k (y + n + q)^2) dy: the
    n-sum unfolds to one Gaussian integral over [q - n_max, q + n_max + 1]."""
    r = math.sqrt(2.0 * math.pi * k)
    return ((math.erf(r * (q + n_max + 1)) - math.erf(r * (q - n_max)))
            / (2.0 * math.sqrt(2.0 * k)))


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


def torus_gram_every_shift(model, n_max: int, n_y: int) -> np.ndarray:
    """Raw torus Gram diagonal with a term for every shift |n| <= n_max, those
    that underflow to 0.0 included: exp(-2 pi k (y + n + q)^2) at the nodes y
    of the n_y-point rule, summed over ascending n, then weighted by the
    rule.  The terms are formed 256 rows at a time, so that large k stays
    small in memory."""
    k = model.k
    ys, weights, _, _ = gauss_legendre_01(n_y)
    shifts = (np.arange(-n_max, n_max + 1)[None, :]
              + _reduced_q(model, np.arange(1, k + 1))[:, None])
    sums = np.empty((k, n_y))
    for lo in range(0, k, 256):
        terms = np.exp(-2.0 * math.pi * k
                       * (ys + shifts[lo:lo + 256, :, None]) ** 2)
        sums[lo:lo + 256] = terms.sum(axis=1)
    return sums @ weights


def separable_distance_minimized(coeffs: np.ndarray, *, seed: int,
                                 starts: int = 16, iters: int = 500,
                                 tol: float = 1e-12) -> float:
    """Distance to the separable set by direct numerical minimization.

    Alternating maximization of the overlap |<u1 (x) u2, v>| over unit
    vectors u1, u2 from several seeded random starts.  Intentionally avoids
    the SVD so it can serve as an independent check on
    ``closest_separable``.
    """
    c = np.asarray(coeffs, dtype=complex)
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


def render_csv(rows: Iterable[ReportRow]) -> str:
    """``report``'s CSV text for ``rows``, from the CLI's per-row renderer."""
    return "".join(render_row("csv", row, first=i == 0)
                   for i, row in enumerate(rows))


def parse_csv(text: str) -> list[ReportRow]:
    """Rows of ``report``'s CSV output; the header must be ``CSV_HEADER``."""
    lines = [ln for ln in text.strip().splitlines() if ln]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("unexpected CSV header")
    rows = []
    for line in lines[1:]:
        k, d_k, *floats = line.split(",")
        rows.append(ReportRow(int(k), int(d_k), *map(float, floats)))
    return rows


def child_env(**extra: str) -> dict[str, str]:
    """This process's environment for a child that imports ``lagstate`` from
    this checkout's ``src``, with ``extra`` variables added."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    return dict(os.environ, PYTHONPATH=os.path.abspath(src), **extra)
