import math

import numpy as np
import pytest

from conftest import column_graded_matrix
from lagstate.linalg import (JACOBI_TOL, SvdResult, frobenius_distance,
                             hermitian_eigen, max_abs, round_robin, svd)
from lagstate.sphere import SphereModel
from lagstate.states import (antidiagonal_state, circle_state_closed_form,
                             circle_state_quadrature)


def test_svd_identity_input():
    res = svd(np.eye(3))
    assert np.allclose(res.singular_values, np.ones(3), atol=1e-15)
    # U and V are diagonal with a common phase per column.
    off = ~np.eye(3, dtype=bool)
    assert max_abs(res.left[off]) <= 1e-14
    assert max_abs(res.right[off]) <= 1e-14
    assert np.allclose(np.diag(res.left) / np.diag(res.right), np.ones(3),
                       atol=1e-14)


def test_svd_diagonal_ordering_and_ties():
    c = np.diag([1.0, 4.0, 1.0]) / math.sqrt(18.0)
    res = svd(c)
    expected = np.array([4.0, 1.0, 1.0]) / math.sqrt(18.0)
    assert np.allclose(res.singular_values, expected, rtol=1e-15)
    # Ties keep the original column order: column 0 before column 2.
    assert abs(res.left[1, 0]) > 0.99
    assert abs(res.left[0, 1]) > 0.99
    assert abs(res.left[2, 2]) > 0.99


def test_svd_reconstruction_and_unitarity_sweep():
    rng = np.random.default_rng(42)
    cases = []
    for d in (1, 2, 3, 5, 8, 16):
        cases.append(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    # Large scale, rank deficient, and zero inputs.
    cases.append(1e6 * (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))))
    a = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    b = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    cases.append(np.outer(a, b))
    cases.append(np.zeros((4, 4), dtype=complex))
    for c in cases:
        res = svd(c)
        d = c.shape[0]
        scale = np.linalg.norm(c.ravel())
        assert frobenius_distance(res.reconstruct(), c) <= 1e-12 * max(scale, 1.0)
        assert max_abs(res.left.conj().T @ res.left - np.eye(d)) <= 1e-12
        assert max_abs(res.right.conj().T @ res.right - np.eye(d)) <= 1e-12
        assert np.all(np.diff(res.singular_values) <= 1e-15)
        assert np.all(res.singular_values >= 0.0)


def test_svd_matches_hermitian_eigen_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        c = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        res = svd(c)
        eigvals, _ = hermitian_eigen(c.conj().T @ c)
        assert max_abs(res.singular_values ** 2 - eigvals) <= 1e-10


def test_svd_singular_values_unitarily_invariant():
    rng = np.random.default_rng(13)
    from conftest import random_unitary
    for d in (2, 4, 6):
        c = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        u = random_unitary(rng, d)
        w = random_unitary(rng, d)
        s0 = svd(c).singular_values
        s1 = svd(u @ c @ w).singular_values
        assert max_abs(s0 - s1) <= 1e-10


def test_svd_deterministic():
    rng = np.random.default_rng(3)
    c = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    r1 = svd(c)
    r2 = svd(c)
    assert np.array_equal(r1.left, r2.left)
    assert np.array_equal(r1.singular_values, r2.singular_values)
    assert np.array_equal(r1.right, r2.right)


def test_svd_rejects_bad_input():
    with pytest.raises(ValueError, match="non-finite"):
        svd(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="square"):
        svd(np.ones((2, 3)))
    with pytest.raises(ValueError, match="2-D"):
        svd(np.ones(4))


def test_svd_convergence_error_names_residual():
    rng = np.random.default_rng(1)
    c = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    with pytest.raises(RuntimeError, match="off-diagonal ratio"):
        svd(c, max_sweeps=1)


def test_hermitian_eigen_examples():
    vals, vecs = hermitian_eigen(3.0 * np.eye(2))
    assert np.allclose(vals, [3.0, 3.0], atol=1e-15)
    pauli_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    vals, vecs = hermitian_eigen(pauli_x)
    assert np.allclose(vals, [1.0, -1.0], atol=1e-14)
    assert max_abs(pauli_x @ vecs - vecs @ np.diag(vals)) <= 1e-10


def test_hermitian_eigen_sum_matches_trace():
    rng = np.random.default_rng(5)
    for d in (2, 3, 6):
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = a @ a.conj().T
        vals, vecs = hermitian_eigen(h)
        assert abs(math.fsum(vals) - np.trace(h).real) <= 1e-10 * max_abs(h) * d
        assert max_abs(h @ vecs - vecs * vals) <= 1e-10 * max_abs(h)
        assert np.all(np.diff(vals) <= 1e-15)


def test_hermitian_eigen_rejects_non_hermitian():
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_frobenius_distance_basics():
    v = np.array([1.0 + 1j, 2.0])
    assert frobenius_distance(v, v) == 0.0
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    assert abs(frobenius_distance(e1, e2) - math.sqrt(2.0)) <= 1e-15
    with pytest.raises(ValueError, match="shape mismatch"):
        frobenius_distance(np.ones(2), np.ones(3))


def test_frobenius_distance_to_top_schmidt_term():
    # Maximally entangled state at d = 4: distance to the nearest product
    # vector is sqrt(3)/2.
    from lagstate.entanglement import closest_separable
    v = np.eye(4, dtype=complex) / 2.0
    u_s, dist = closest_separable(v)
    assert abs(frobenius_distance(v, u_s) - math.sqrt(3.0) / 2.0) <= 1e-12
    assert abs(dist - math.sqrt(3.0) / 2.0) <= 1e-12


def test_svd_result_reconstruct_is_pure():
    c = np.diag([2.0, 1.0]).astype(complex)
    res = svd(c)
    assert isinstance(res, SvdResult)
    first = res.reconstruct()
    second = res.reconstruct()
    assert np.array_equal(first, second)


@pytest.mark.parametrize("n", range(1, 10))
def test_round_robin_covers_each_pair_once(n):
    rounds = round_robin(n)
    assert len(rounds) == (n - 1 if n % 2 == 0 else n)
    seen = []
    for p, q in rounds:
        assert np.all(p < q)
        # Pairs of one round are disjoint, so they rotate independently.
        assert len(set(p.tolist()) | set(q.tolist())) == 2 * len(p)
        seen.extend(zip(p.tolist(), q.tolist()))
    assert sorted(seen) == [(p, q) for p in range(n) for q in range(p + 1, n)]


@pytest.mark.parametrize("d", [31, 32, 33, 64])
def test_svd_matches_lapack_singular_values(d):
    rng = np.random.default_rng(d)
    c = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    res = svd(c)
    lapack = np.linalg.svd(c, compute_uv=False)
    assert max_abs(res.singular_values - lapack) <= 1e-12 * lapack[0]
    assert frobenius_distance(res.reconstruct(), c) <= 1e-12 * np.linalg.norm(c.ravel())
    assert max_abs(res.left.conj().T @ res.left - np.eye(d)) <= 1e-12
    assert max_abs(res.right.conj().T @ res.right - np.eye(d)) <= 1e-12
    assert res.sweeps >= 1
    assert res.worst_ratio <= JACOBI_TOL


def test_svd_circle_states_relative_accuracy():
    # One-sided Jacobi keeps high relative accuracy on the graded circle
    # spectrum (Demmel-Veselic): even the tiniest Schmidt values, down to
    # about 1e-35 at k = 120, match the exact sqrt(C(k,j)^2 / C(2k,k)).
    from conftest import circle_spectrum_exact
    worst = 0.0
    for k in range(1, 121):
        res = svd(circle_state_quadrature(SphereModel(k)).normalized())
        exact = np.sort([math.sqrt(p) for p in circle_spectrum_exact(k)])[::-1]
        worst = max(worst, float(np.max(np.abs(res.singular_values - exact) / exact)))
        assert res.worst_ratio <= JACOBI_TOL
    assert worst <= 1e-12


def test_svd_reports_sweeps_and_worst_ratio():
    for k in range(1, 41):
        # Near-identity sphere states pass the first Gram test: no rotation.
        res = svd(antidiagonal_state(SphereModel(k)).normalized())
        assert res.sweeps == 0
        assert res.worst_ratio <= JACOBI_TOL
    res = svd(column_graded_matrix(np.random.default_rng(80), 80))
    assert res.sweeps >= 1
    assert res.worst_ratio <= JACOBI_TOL
    res = svd(np.zeros((3, 3)))
    assert (res.sweeps, res.worst_ratio) == (0, 0.0)


@pytest.mark.parametrize("k", [20, 40])
def test_svd_column_graded_relative_accuracy(k):
    # Demmel-Veselic: on B D with D diagonal, one-sided Jacobi gets every
    # singular value to relative error O(sweeps * d * eps * cond(B)), about
    # 2e-13 here with cond(B) <= 3, down to sigma ~ 1e-11 at k = 40.  LAPACK's
    # bidiagonal SVD misses the smallest ones by about 6e-8 at k = 40.
    mpmath = pytest.importorskip("mpmath")
    a = column_graded_matrix(np.random.default_rng(k), k)
    res = svd(a)
    assert res.sweeps >= 1
    with mpmath.workdps(40):
        oracle = mpmath.svd_c(mpmath.matrix(a.tolist()), compute_uv=False)
        exact = np.sort([float(s) for s in oracle])[::-1]
    assert np.max(np.abs(res.singular_values - exact) / exact) <= 1e-12


def test_svd_tiny_singular_values_do_not_underflow():
    # Squares of moduli below about 1e-154 underflow; the column norms must
    # not, or those columns come out as zero singular values.
    values = np.logspace(0, -300, 61)
    phases = np.exp(1j * np.arange(61))
    res = svd(np.diag(values * phases)[::-1])
    assert res.sweeps == 0
    assert np.max(np.abs(res.singular_values - values) / values) <= 1e-15
    assert max_abs(res.left.conj().T @ res.left - np.eye(61)) <= 1e-15


def test_svd_large_circle_state_is_full_rank():
    # Circle Schmidt values at k = 600 reach 1e-180; each one must stay
    # within 1e-12 relative of the closed form instead of underflowing to 0.
    k = 600
    res = svd(circle_state_quadrature(SphereModel(k)).normalized())
    exact = np.sort(np.diag(circle_state_closed_form(k)).real)[::-1]
    assert res.sweeps == 0
    assert np.max(np.abs(res.singular_values - exact) / exact) <= 1e-12


def test_svd_calls_no_lapack(monkeypatch):
    # The Jacobi route must stay independent of the LAPACK eigensolver that
    # it is cross-checked against.
    def forbidden(*args, **kwargs):
        raise AssertionError("LAPACK routine called from svd")
    for name in ("svd", "eig", "eigh", "eigvals", "eigvalsh", "qr", "solve",
                 "lstsq", "inv", "cholesky", "det"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    rng = np.random.default_rng(11)
    a = rng.standard_normal((7, 2)) + 1j * rng.standard_normal((7, 2))
    for c in (rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)),
              a @ a.T, np.zeros((3, 3))):
        res = svd(c)
        assert frobenius_distance(res.reconstruct(), c) <= 1e-12 * max(
            1.0, float(np.linalg.norm(c.ravel())))

