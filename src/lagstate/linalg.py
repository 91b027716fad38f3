"""Dense linear algebra for small coefficient matrices, real or complex,
dtype preserved: real input gets real factors in real arithmetic.

The SVD is a one-sided Jacobi iteration on the columns of the input: one
Gram-matrix convergence test per sweep, and rotations in round-robin
parallel order.  The singular values are the norms of the rotated columns,
so they are computed up front and the singular vectors only when read; V is
accumulated only once a sweep rotates.  The SVD is compact: singular vectors
exist only for the nonzero singular values.  It calls no LAPACK routine, so
the Schmidt route through ``svd`` stays independent of the spectral route
through ``hermitian_eigen``, which returns eigenvalues only, from LAPACK's
Hermitian eigenvalue solver; the two are cross-checked against each other.
Exactly diagonal input, whose off-diagonal entries are all exact zeros, as
in every state the CLI builds, is tested for first and then read off its
diagonal in O(d), with the bits of the dense path: ``hermitian_eigen`` takes
its Hermitian check from the diagonal and returns it sorted, exact, with no
LAPACK call; ``svd`` skips the Gram matrix of its first convergence test and
reads its scale, column maxima and column norms off the diagonal; and
``identity_defect`` reads only the diagonal's gap to 1.
The Gauss-Legendre rule on [0, 1] that both models integrate with lives
here too, with the policy that sizes it (:func:`rule_size`).  It is built in
θ-form, by Newton steps on P_n(cos θ) with the weights from the same
derivative, so no companion-matrix eigensolve is made.  Half of it is solved
and mirrored, which halves the work and keeps the rule exactly symmetric,
and it carries log t and log(1 - t) for log-space integrands.
The helpers that every CLI row runs call numpy's ufunc reductions
(``np.maximum.reduce``, ``np.add.reduce``, ``np.logical_or.reduce``) and
array methods written in C, not numpy's Python-level wrappers (``np.sum``,
``np.all``, ``ndarray.max``) that reach the same reductions through several
Python calls: on the small arrays of a row, those calls, not the
arithmetic, set the cost.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

# Off-diagonal Gram ratio below which a column pair counts as orthogonal.
JACOBI_TOL = 1e-13
MAX_SWEEPS = 30
_FLOAT = np.finfo(np.float64)
# Hermitian defect, relative to the largest entry, that hermitian_eigen accepts.
HERMITIAN_TOL = 1e-10
# Smallest Gauss-Legendre rule the models build.  Building the 64-node rule
# takes about 1.5 ms, six times a whole sphere or torus row at k <= 10
# (0.22-0.29 ms, one core of a Xeon VM), so every sphere level up to k = 126
# and every torus level up to k = 74 shares this one, and a sweep over them
# builds a single rule.
RULE_FLOOR = 64
# Newton steps from the Tricomi guesses to the Gauss-Legendre nodes.  The
# worst guess, the first node's, is 2 % off, and the steps correct θ by
# 2e-2, 2e-4 and 2e-8 relative: three steps reach roundoff, and the fourth
# evaluates the derivative, and so the weight, at a converged node.
NEWTON_STEPS = 4


@dataclass(frozen=True)
class SvdResult:
    """Compact factorization a = left @ diag(singular_values) @ right.conj().T
    of an n x n matrix of rank r, singular_values (r,) and positive, left and
    right (n, r) with orthonormal columns: of a state's coefficients c, the
    Schmidt decomposition c = sum_j s_j left[:, j] (x) conj(right[:, j]),
    which ``reconstruct`` resumes.  Left and right are formed on first read
    and cached, so reading only the singular values never builds them."""

    singular_values: np.ndarray
    sweeps: int          # rotating sweeps performed
    worst_ratio: float   # off-diagonal ratio at the final convergence test
    # The rotated columns scaled by powers of two, with their norms, and the
    # index of each kept singular value among them, descending.
    scaled: np.ndarray = field(repr=False)
    norms: np.ndarray = field(repr=False)
    order: np.ndarray = field(repr=False)
    # Row j is column j of V; None when no sweep rotated, V being the identity.
    v_rows: np.ndarray | None = field(repr=False)

    @functools.cached_property
    def left(self) -> np.ndarray:
        u = self.scaled[:, self.order]
        u /= self.norms[self.order]
        return u

    @functools.cached_property
    def right(self) -> np.ndarray:
        if self.v_rows is None:
            return np.eye(len(self.scaled), dtype=self.scaled.dtype)[:, self.order]
        return self.v_rows.T[:, self.order]

    def reconstruct(self) -> np.ndarray:
        return (self.left * self.singular_values) @ self.right.conj().T


def as_matrix(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate input as a 2-D, finite and square array, checked in that
    order: complex input stays complex, anything else becomes float64, with
    no copy when it already is either, so callers that modify it copy it."""
    a = np.asarray(a)
    a = a.astype(np.promote_types(a.dtype, np.float64), copy=False)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    if not np.logical_and.reduce(np.isfinite(a), axis=None):
        raise ValueError(f"{name} contains non-finite entries")
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    return a


def as_point(z: complex) -> complex:
    """Validate an evaluation point as a finite complex number."""
    z = complex(z)
    if not np.isfinite(z):
        raise ValueError("evaluation point must be finite")
    return z


def max_abs(a: np.ndarray) -> float:
    """Largest entry magnitude; zero for empty input.  Real input is read
    from its two extremes, with no modulus array."""
    a = np.asarray(a)
    if a.dtype.kind == "c":
        return float(np.maximum.reduce(np.abs(a), axis=None, initial=0.0))
    # abs maps an extreme of -0.0 to 0.0, as np.abs does.
    return abs(max(float(np.maximum.reduce(a, axis=None, initial=0.0)),
                   -float(np.minimum.reduce(a, axis=None, initial=0.0))))


def identity_defect(a: np.ndarray) -> float:
    """Largest entrywise |a - I| of a square matrix: the defect of a basis
    Gram matrix, and of the antidiagonal state built from it, from its closed
    form.  Taken as the larger of the diagonal's gap to 1 and the largest
    off-diagonal modulus, so no d x d array is formed for real C- or
    F-contiguous input (other layouts are copied once; complex input forms
    its off-diagonal modulus).  An off-diagonal of exact zeros, as in every
    state the CLI builds, is only tested: the gap alone is the defect.  Any
    NaN entry makes the defect NaN."""
    a = np.asarray(a)
    if a.shape != (len(a), len(a)):
        raise ValueError(f"identity_defect input must be square, got {a.shape}")
    gap = max_abs(a.diagonal() - 1.0)
    off = _off_diagonal(a)
    # np.maximum keeps a NaN either side; Python's max keeps gap over NaN.
    return (float(np.maximum(gap, max_abs(off)))
            if np.logical_or.reduce(off, axis=None) else gap)


def _off_diagonal(a: np.ndarray) -> np.ndarray:
    """The off-diagonal entries of a square matrix, as an (n - 1, n) view
    for C- or F-contiguous input (other layouts are copied once)."""
    n = len(a)
    # The transpose has the same diagonal and off-diagonal entries.  In the
    # row-major flat array the diagonal sits every n + 1 entries, so the
    # entries between two of them are the rows of an (n - 1, n + 1) view
    # (for n = 0, reshape(-1, 1) of nothing: empty too).
    flat = (a.T if a.flags.f_contiguous else a).ravel()
    return flat[1:].reshape(n - 1, n + 1)[:, :n]


def _is_diagonal(a: np.ndarray) -> bool:
    """Whether every off-diagonal entry of a square matrix is exactly zero:
    a test for exact zeros, with no tolerance."""
    return not np.logical_or.reduce(_off_diagonal(a), axis=None)


def root_sum_squares(a: np.ndarray,
                     sum_squares: Callable[[np.ndarray], float]) -> float:
    """sqrt(sum_squares(a)) for a real array a, where ``sum_squares`` sums
    the squares of its entries, inf past the float range.  The plain sum is
    kept when it is normal and finite.  When it is zero with a nonzero
    entry, subnormal or infinite, the squares under- or overflowed: the sum
    is taken again on a scaled by the power of two of its largest modulus,
    exactly, and the root is scaled back in two halves, so that neither
    factor leaves the float range."""
    total = sum_squares(a)
    if not _FLOAT.tiny <= total < math.inf and (m := max_abs(a)) > 0.0:
        e = math.frexp(m)[1]
        root = math.sqrt(sum_squares(np.ldexp(a, -e)))
        return root * 2.0 ** (e // 2) * 2.0 ** (e - e // 2)
    return math.sqrt(total)


def _pairwise_sum_squares(a: np.ndarray) -> float:
    with np.errstate(over="ignore"):  # an overflow is inf, rescaled above
        return float(np.add.reduce(np.square(a, dtype=np.float64), axis=None))


def frobenius_norm(a: np.ndarray) -> float:
    """Frobenius norm by numpy's pairwise sum rather than a BLAS dot, whose
    summation order, and so its last bits, follow the BLAS thread count.
    Real entries are squared directly: x^2 = |x|^2 exactly.  Safe from
    under- and overflow (:func:`root_sum_squares`)."""
    a = np.asarray(a)
    a = np.abs(a) if a.dtype.kind == "c" else a
    return root_sum_squares(a, _pairwise_sum_squares)


def frobenius_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius (Hilbert-Schmidt) distance between equally shaped arrays."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return frobenius_norm(a - b)


def rule_size(n_min: int) -> int:
    """Node count of the rule built for a certified minimum of n_min nodes:
    the next power of two >= n_min, and at least RULE_FLOOR.  A longer rule
    keeps the exactness or error bound that certified n_min, and rounding
    lets rows of nearby k share one cached rule."""
    return max(RULE_FLOOR, 1 << (n_min - 1).bit_length())


class GaussLegendreRule(NamedTuple):
    """Gauss-Legendre nodes t and weights on [0, 1], ascending, with log t
    and log(1 - t) at each node; every array is read-only."""

    nodes: np.ndarray
    weights: np.ndarray
    log_nodes: np.ndarray
    log_complements: np.ndarray


@functools.lru_cache(maxsize=16)
def gauss_legendre_01(n: int) -> GaussLegendreRule:
    """n-point Gauss-Legendre rule on [0, 1], built once per node count and
    shared read-only.

    The roots of P_n are x_i = cos θ_i, and the rule is symmetric under
    t -> 1 - t, so only the roots with θ_i in (0, π/2] are solved for:
    ``NEWTON_STEPS`` Newton steps on P_n(cos θ) from the Tricomi guesses
    θ_i = π(4i - 1)/(4n + 2), with P_n and P_{n-1} from the three-term
    recurrence and dP_n/dθ = n (x P_n - P_{n-1}) / sin θ.  The weight on
    [0, 1] is 1 / (dP_n/dθ)², shared by both mirror nodes.  The nodes are
    sin²(θ_i/2) = (1 - x_i)/2 and 1 - sin²(θ_i/2) = cos²(θ_i/2), so both
    ends of [0, 1] come from small θ_i without cancellation, and log t,
    log(1 - t) are 2 log sin(θ_i/2) and log1p(-sin²(θ_i/2)) = 2 log cos(θ_i/2).
    """
    if n < 1:
        raise ValueError(f"rule needs n >= 1 nodes, got {n}")
    theta = np.pi * (4 * np.arange(1, (n + 3) // 2) - 1) / (4 * n + 2)
    for _ in range(NEWTON_STEPS):
        x = np.cos(theta)
        p0, p1 = np.ones_like(x), x
        for m in range(2, n + 1):
            p0, p1 = p1, ((2 * m - 1) * x * p1 - (m - 1) * p0) / m
        dp = n * (x * p1 - p0) / np.sin(theta)
        theta = theta - p1 / dp
    # The last step moves θ by roundoff, so dp is the derivative at the node.
    s = np.sin(theta / 2.0)
    s2 = s * s
    log_s2, log_c2, weights = 2.0 * np.log(s), np.log1p(-s2), 1.0 / dp ** 2

    def mirrored(a: np.ndarray, image: np.ndarray) -> np.ndarray:
        """a at the nodes t <= 1/2, then image at their mirrors 1 - t, the
        middle node θ = π/2 of odd n being its own mirror."""
        return np.concatenate((a, image[:n // 2][::-1]))

    rule = GaussLegendreRule(
        nodes=mirrored(s2, 1.0 - s2), weights=mirrored(weights, weights),
        log_nodes=mirrored(log_s2, log_c2),
        log_complements=mirrored(log_c2, log_s2))
    for a in rule:
        a.flags.writeable = False
    return rule


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


def _rotate_round(w: np.ndarray, p: np.ndarray, q: np.ndarray) -> None:
    """Rotate, all at once, the disjoint row pairs (p, q) of w = [U^T | V^T]
    whose U halves are further than JACOBI_TOL from orthogonal."""
    n = w.shape[1] // 2
    xu, yu = w[p, :n], w[q, :n]
    app, aqq = (np.einsum("ij,ij->i", z.view(float), z.view(float)) for z in (xu, yu))
    apq = np.einsum("ij,ij->i", xu.conj(), yu)
    beta = np.abs(apq)
    act = (beta > JACOBI_TOL * np.sqrt(app) * np.sqrt(aqq)) & (app > 0.0) & (aqq > 0.0)
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


def svd(a: np.ndarray) -> SvdResult:
    """One-sided Jacobi SVD of a square real or complex matrix, without
    LAPACK; the factors have the dtype of :func:`as_matrix` of the input.

    Each sweep starts with one test on the Gram matrix of the working
    columns, and the SVD stops once every off-diagonal ratio
    |<a_p, a_q>| / (|a_p| |a_q|) between nonzero columns is at most
    ``JACOBI_TOL``.  Otherwise the sweep rotates the pairs above it in
    round-robin order, one numpy step per round of disjoint pairs.  Singular
    values are descending; equal values keep the order of the original
    columns.  Only the r nonzero ones are kept, with their columns of U and
    V: shapes (n, r), (r,) and (n, r), U and V formed when first read.  A
    matrix whose columns pass the first test never accumulates V, which is
    then the identity.  Input whose off-diagonal entries are exact zeros
    passes the first test without forming its Gram matrix, and its scale,
    column maxima and column norms are read off its diagonal, with the same
    bits.  Badly scaled input is rescaled by a power of two.
    Raises ValueError on non-square or non-finite input, and RuntimeError
    when ``MAX_SWEEPS`` rotating sweeps do not converge.
    """
    a = as_matrix(a, "svd input")
    n = len(a)
    # Columns whose off-diagonal entries are exact zeros are exactly
    # orthogonal, and the power-of-two rescale below keeps those zeros, so
    # this one test decides the path: the first convergence test then reads
    # 0.0 without the Gram matrix, and the largest entry is the diagonal's.
    diagonal = _is_diagonal(a)
    # Rotations keep the squared Frobenius norm, in [m^2, n^2 m^2] for the
    # largest entry m.  Unless n tiny <= m^2 <= max / (2 n^2), where twice a
    # Gram entry is finite and the largest column's (>= m^2 / n) is normal,
    # the input is scaled into [1/2, 1) by 2^-shift, in two normal halves.
    m, shift = max_abs(a.diagonal() if diagonal else a), 0
    if m > 0.0 and not n * _FLOAT.tiny <= m * m <= _FLOAT.max / (2 * n * n):
        shift = math.frexp(m)[1]
        a = a * 2.0 ** -(shift // 2) * 2.0 ** (shift // 2 - shift)
    # Row j is column j of U; the first rotating sweep copies the input into
    # w, appends column j of V and builds the pair schedule, so a matrix that
    # passes the first test is read in place and builds none.
    w = a.T
    del a
    worst, sweeps = 0.0 if diagonal else _worst_ratio(w), 0
    while worst > JACOBI_TOL:
        if sweeps == MAX_SWEEPS:
            raise RuntimeError(
                f"jacobi svd did not converge in {MAX_SWEEPS} sweeps; "
                f"worst off-diagonal ratio {worst:.3e}")
        if sweeps == 0:
            w = np.concatenate((w, np.eye(n, dtype=w.dtype)), axis=1)
            schedule = round_robin(n)
        for p, q in schedule:
            _rotate_round(w, p, q)
        sweeps += 1
        worst = _worst_ratio(w[:, :n])
    v_rows = w[:, n:].copy() if sweeps else None
    u = w[:, :n].T  # U in column layout again: the input if nothing rotated
    del w
    # Each column is scaled by a power of two near its largest modulus: exact,
    # so squares of moduli below 1e-154 cannot underflow to a zero norm, and
    # U is the scaled column over its scaled norm, never over a subnormal.
    # The product is a new row-major array, so the column norms sum in the
    # same order whatever the input's layout, and no factor aliases it.
    # On a diagonal, a column's largest modulus is its diagonal entry's, and
    # its norm the root of that entry's squared modulus: the one nonzero term
    # of the sum that np.linalg.norm takes, (x^* x).real, so the same bits.
    top = np.abs(u.diagonal()) if diagonal else np.abs(u).max(axis=0, initial=0.0)
    e = np.maximum(np.frexp(top)[1], -1021)
    scaled = np.multiply(u, np.ldexp(1.0, -e), order="C")
    del u
    if diagonal:
        y = scaled.diagonal()
        norms = np.sqrt((y.conj() * y).real)
    else:
        norms = np.linalg.norm(scaled, axis=0)
    sigma = np.ldexp(norms, e + shift)
    order = (-sigma).argsort(kind="stable")[:np.count_nonzero(sigma)]
    return SvdResult(singular_values=sigma[order], sweeps=sweeps,
                     worst_ratio=worst, scaled=scaled, norms=norms,
                     order=order, v_rows=v_rows)


def hermitian_eigen(h: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, descending, in float64.

    Thin wrapper over LAPACK's eigenvalue-only Hermitian solver; serves as
    the spectral cross-check for :func:`svd`.  Rejects input whose
    Hermitian defect max |h - h^*| exceeds ``HERMITIAN_TOL`` relative to its
    largest entry; the defect is read from one d x d work array, h^* - h.
    Input whose off-diagonal entries are exact zeros (no tolerance) forms no
    work array: its defect is twice its largest imaginary part and its
    largest entry the diagonal's, the same numbers.  It gets its real
    diagonal, sorted, with no LAPACK call.  Those are LAPACK's bits too,
    except on input so badly scaled that LAPACK rescales it and rounds.
    """
    h = as_matrix(h, "hermitian_eigen input")
    diagonal = _is_diagonal(h)
    if diagonal:
        # h^* - h is zero off the diagonal and -2i Im h_jj on it.
        entries = h.diagonal()
        defect = 2.0 * max_abs(entries.imag) if entries.dtype.kind == "c" else 0.0
        scale = max_abs(entries)
    else:
        # h^T in h's row-major layout, so the in-place steps run unbuffered.
        work = h.T.copy()
        np.conjugate(work, out=work)
        work -= h
        defect, scale = max_abs(work), max_abs(h)
        del work
    if defect > HERMITIAN_TOL * scale:
        raise ValueError(
            f"input is not Hermitian: max |h - h^*| = {defect:.3e} "
            f"(max entry {scale:.3e})")
    if diagonal:
        # The eigenvalues of a diagonal h are its diagonal's real parts, the
        # only part of the diagonal that LAPACK's Hermitian solver reads
        # either.  A -0.0 among them goes to LAPACK, whose order of signed
        # zeros no sort reproduces (numpy's may even turn 0.0 into -0.0).
        values = entries.real
        if not np.logical_or.reduce(np.signbit(values[values == 0.0]), axis=None):
            values = values.copy()
            values.sort()
            return values[::-1]
    return np.linalg.eigvalsh(h)[::-1]
