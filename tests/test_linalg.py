import math
import subprocess
import sys

import numpy as np
import pytest

from conftest import child_env, circle_schmidt_values_exact, column_graded_matrix
from lagstate import linalg
from lagstate.entanglement import analyze
from lagstate.linalg import (HERMITIAN_TOL, JACOBI_TOL, SvdResult, as_matrix,
                             frobenius_distance, frobenius_norm,
                             hermitian_eigen, identity_defect, max_abs,
                             round_robin, svd)
from lagstate.sphere import SphereModel
from lagstate.states import antidiagonal_state, circle_state_quadrature
from lagstate.torus import TorusModel


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
    ranks = []
    for c in cases:
        res = svd(c)
        d, r = c.shape[0], len(res.singular_values)
        ranks.append(r)
        assert res.left.shape == res.right.shape == (d, r)
        scale = np.linalg.norm(c.ravel())
        assert frobenius_distance(res.reconstruct(), c) <= 1e-12 * max(scale, 1.0)
        assert max_abs(res.left.conj().T @ res.left - np.eye(r)) <= 1e-12
        assert max_abs(res.right.conj().T @ res.right - np.eye(r)) <= 1e-12
        assert np.all(np.diff(res.singular_values) <= 1e-15)
        assert np.all(res.singular_values > 0.0)
    # Compact factors: one singular pair per nonzero singular value, so the
    # random inputs keep all d pairs and the zero input keeps none.
    assert ranks[:7] == [len(c) for c in cases[:7]]
    assert ranks[-1] == 0


def test_svd_matches_hermitian_eigen_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        c = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        res = svd(c)
        eigvals = hermitian_eigen(c.conj().T @ c)
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
    with pytest.raises(ValueError, match="2-D"):
        svd(np.ones(4))


def test_svd_convergence_error_names_residual(monkeypatch):
    rng = np.random.default_rng(1)
    c = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    monkeypatch.setattr(linalg, "MAX_SWEEPS", 1)
    with pytest.raises(RuntimeError,
                       match="in 1 sweeps; worst off-diagonal ratio"):
        svd(c)


def test_hermitian_eigen_examples():
    # Known spectra: 3I, and the Pauli matrices X (real) and Y (complex).
    assert np.array_equal(hermitian_eigen(3.0 * np.eye(2)), [3.0, 3.0])
    pauli_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    pauli_y = np.array([[0.0, -1j], [1j, 0.0]])
    for pauli in (pauli_x, pauli_y):
        assert max_abs(hermitian_eigen(pauli) - [1.0, -1.0]) <= 1e-15


def test_hermitian_eigen_sum_matches_trace():
    # Invariants of any Hermitian h: sum(lam) = tr h and sum(lam^2) = |h|_F^2,
    # with the eigenvalues in descending order.
    rng = np.random.default_rng(5)
    for d in (2, 3, 6):
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = a @ a.conj().T
        vals = hermitian_eigen(h)
        assert vals.shape == (d,)
        assert abs(math.fsum(vals) - np.trace(h).real) <= 1e-10 * max_abs(h) * d
        frob2 = math.fsum(np.abs(h.ravel()) ** 2)
        assert abs(math.fsum(vals ** 2) - frob2) <= 1e-12 * frob2
        assert np.all(np.diff(vals) <= 0.0)


def test_hermitian_eigen_rejects_non_hermitian():
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_eigen_rejects_a_defect_of_1e_8():
    # On a unit diagonal a defect of 1e-8 is 100 times HERMITIAN_TOL, and a
    # check loosened to 1e-6 would let it through.
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eigen(np.array([[1.0, 0.0], [1e-8, 1.0]]))


def test_frobenius_distance_basics():
    v = np.array([1.0 + 1j, 2.0])
    assert frobenius_distance(v, v) == 0.0
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    assert abs(frobenius_distance(e1, e2) - math.sqrt(2.0)) <= 1e-15
    with pytest.raises(ValueError, match="shape mismatch"):
        frobenius_distance(np.ones(2), np.ones(3))


@pytest.mark.parametrize("s", [1e-170, 1e160, 2.0**-1070, 1e300])
def test_frobenius_norm_of_badly_scaled_input(s):
    # The squares of these entries underflow to zero or a subnormal, or
    # overflow (a RuntimeWarning, which the test settings make an error);
    # the norm of the all-s 2 x 2 matrix is still 2 s, within an ulp.
    for a in (np.full((2, 2), s), np.full((2, 2), 1j * s)):
        assert abs(frobenius_norm(a) - 2.0 * s) <= 2.0**-52 * 2.0 * s
        assert abs(frobenius_distance(a, -a) - 4.0 * s) <= 2.0**-52 * 4.0 * s
    assert frobenius_norm(np.full((3, 3), 1.7e308)) == math.inf


@pytest.mark.parametrize("dtype", [float, complex])
def test_frobenius_norm_scales_exactly(dtype):
    # At 2^+-600 the plain sum of squares over- or underflows, and the sum is
    # taken again on the input scaled back by a power of two: exact.
    rng = np.random.default_rng(31)
    a = rng.standard_normal((6, 6))
    if dtype is complex:
        a = a + 1j * rng.standard_normal((6, 6))
    ref = frobenius_norm(a)
    for s in (2.0**600, 2.0**-600):
        assert frobenius_norm(a * s) == ref * s
    assert frobenius_norm(np.zeros((2, 2))) == 0.0


def test_frobenius_distance_is_independent_of_blas_threads():
    # A BLAS dot sums in an order that follows its thread count: through
    # one, the real pair gave 2123.1108306606907 on one thread and
    # 2123.11083066069 on two.
    code = ("import numpy as np\n"
            "from lagstate.linalg import frobenius_distance\n"
            "a, b, c, d = np.random.default_rng(43).standard_normal("
            "(4, 1500, 1500))\n"
            "print(repr(frobenius_distance(a, b)))\n"
            "print(repr(frobenius_distance(a + 1j * b, c + 1j * d)))\n")
    outputs = []
    for threads in ("1", "2"):
        env = child_env(OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                        MKL_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, check=False)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


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


def test_svd_builds_its_rotation_schedule_once(monkeypatch):
    # The pair schedule depends on n alone: the first rotating sweep builds
    # it and the later sweeps reuse it, and a matrix that passes the first
    # Gram test builds none.
    calls = []

    def counted(n, exact=linalg.round_robin):
        calls.append(n)
        return exact(n)

    monkeypatch.setattr(linalg, "round_robin", counted)
    assert svd(column_graded_matrix(np.random.default_rng(80), 80)).sweeps > 1
    assert calls == [81]
    calls.clear()
    diagonal = circle_state_quadrature(SphereModel(40)).normalized()
    assert not (diagonal - np.diag(np.diag(diagonal))).any()
    assert svd(diagonal).sweeps == 0
    assert calls == []


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


def test_svd_subnormal_singular_values():
    # Complex division by a subnormal singular value overflows, so U must be
    # formed from the power-of-two-scaled columns and their scaled norms.
    values = np.array([1.0, 2.0**-1060, 2.0**-1070])
    res = svd(np.diag(values))
    assert res.sweeps == 0
    assert np.array_equal(res.singular_values, values)
    assert np.array_equal(res.left, np.eye(3))
    assert np.array_equal(res.right, np.eye(3))


@pytest.mark.parametrize("s", [1e-170, 1e160, 2.0**-1070])
def test_svd_of_badly_scaled_rank_one_input(s):
    # The squares in the Gram test underflow or overflow at these scales,
    # which once passed the column norms [sqrt(2) s, sqrt(2) s] off as
    # converged singular values after no sweep.  The bound is two ulps of
    # 2 s; at the subnormal 2 s = 2^-1069 it asks for the exact value.
    res = svd(np.full((2, 2), s))
    assert res.sweeps == 1
    assert res.worst_ratio <= JACOBI_TOL
    assert res.singular_values.shape == (1,)
    assert abs(res.singular_values[0] - 2.0 * s) <= 2.0**-52 * 2.0 * s


@pytest.mark.parametrize("dtype", [float, complex])
def test_svd_singular_values_scale_with_the_input(dtype):
    # Largest modulus in [1/2, 1), where the input is read as it is; scaled
    # by 2^+-600 it is scaled back to the same matrix, so the singular values
    # scale exactly.  Scaled by 1e+-170 it is rounded once (u relative per
    # entry, sqrt(5) u sigma_max in norm) and rescaled into another binade,
    # where the rotations round differently: 1e-14 sigma_max leaves room
    # for both (600 seeded 5 x 5 cases reached 1.9e-15), against errors of
    # up to 175 % when the Gram test was run unscaled.
    rng = np.random.default_rng(29)
    a = rng.standard_normal((5, 5))
    if dtype is complex:
        a = a + 1j * rng.standard_normal((5, 5))
    a *= 2.0 ** -math.frexp(max_abs(a))[1]
    ref = svd(a)
    for s in (2.0**600, 2.0**-600):
        assert np.array_equal(svd(a * s).singular_values,
                              ref.singular_values * s)
    for s in (1e170, 1e-170):
        res = svd(a * s)
        assert res.worst_ratio <= JACOBI_TOL
        sigma = res.singular_values / s
        assert max_abs(sigma - ref.singular_values) <= 1e-14 * sigma[0]
        assert (frobenius_distance(res.reconstruct() / s, a)
                <= 1e-12 * frobenius_norm(a))


def test_svd_large_circle_state_is_full_rank():
    # Circle Schmidt values at k = 600 reach 1e-180; each one must stay
    # within 1e-12 relative of C(k,j) / sqrt(C(2k,k)) instead of underflowing
    # to 0.
    k = 600
    res = svd(circle_state_quadrature(SphereModel(k)).normalized())
    exact = np.sort(circle_schmidt_values_exact(k))[::-1]
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



@pytest.mark.parametrize("d", [1, 2, 5, 16, 40])
def test_svd_real_input_gives_real_factors(d):
    rng = np.random.default_rng(100 + d)
    c = rng.standard_normal((d, d))
    res = svd(c)
    for factor in (res.left, res.singular_values, res.right):
        assert factor.dtype == np.float64
    lapack = np.linalg.svd(c, compute_uv=False)
    assert max_abs(res.singular_values - lapack) <= 1e-12 * lapack[0]
    assert frobenius_distance(res.reconstruct(), c) <= 1e-12 * np.linalg.norm(c.ravel())
    assert max_abs(res.left.T @ res.left - np.eye(d)) <= 1e-12
    assert max_abs(res.right.T @ res.right - np.eye(d)) <= 1e-12


def test_hermitian_eigen_real_symmetric_input():
    # h = Q diag(lam) Q^T with a random orthogonal Q has the spectrum lam.
    rng = np.random.default_rng(17)
    lam = rng.uniform(-2.0, 3.0, 6)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    h = (q * lam) @ q.T
    h = (h + h.T) / 2.0
    vals = hermitian_eigen(h)
    assert vals.dtype == np.float64
    assert max_abs(vals - np.sort(lam)[::-1]) <= 1e-13 * max_abs(lam)
    assert abs(math.fsum(vals) - np.trace(h)) <= 1e-10 * max_abs(h) * 6


def test_integer_input_promotes_and_complex_input_stays_complex():
    ints = np.diag([3, 0, 4])
    assert as_matrix(ints).dtype == np.float64
    res = svd(ints)
    assert res.left.dtype == res.right.dtype == np.float64
    assert np.array_equal(res.singular_values, [4.0, 3.0])
    assert res.left.shape == res.right.shape == (3, 2)
    assert np.array_equal(hermitian_eigen(ints * ints), [16.0, 9.0, 0.0])
    assert hermitian_eigen(ints).dtype == np.float64
    # Complex input keeps complex factors, here also through the division
    # by subnormal column norms, which overflows in complex arithmetic
    # unless the columns are scaled first.
    values = np.array([1.0, 2.0**-1060, 2.0**-1070])
    res = svd(np.diag(values).astype(complex))
    assert res.left.dtype == res.right.dtype == np.complex128
    assert np.array_equal(res.singular_values, values)
    assert np.array_equal(res.left, np.eye(3))
    # Eigenvalues of Hermitian input are real, so complex input gives float64.
    assert hermitian_eigen(np.eye(2, dtype=complex)).dtype == np.float64
    with pytest.raises(ValueError, match="non-finite"):
        as_matrix(np.array([[1.0, complex(0.0, math.inf)]]))


def test_svd_compact_factors_over_many_exact_zeros():
    # 300 of 400 diagonal entries are exact zeros, scattered over the rows,
    # and three dense columns sit among 37 exact zero ones: the factors keep
    # only the r = 100 and r = 3 nonzero singular values and their vectors.
    rng = np.random.default_rng(400)
    values = np.zeros(400)
    values[rng.choice(400, size=100, replace=False)] = rng.uniform(0.5, 2.0, 100)
    res = svd(np.diag(values))
    assert np.array_equal(res.singular_values, np.sort(values[values > 0.0])[::-1])
    assert res.left.shape == res.right.shape == (400, 100)
    assert max_abs(res.left.T @ res.left - np.eye(100)) <= 1e-12
    assert max_abs(res.right.T @ res.right - np.eye(100)) <= 1e-12
    assert frobenius_distance(res.reconstruct(), np.diag(values)) <= 1e-12
    a = np.zeros((40, 40))
    a[:, :3] = rng.standard_normal((40, 3))
    res = svd(a)
    lapack = np.linalg.svd(a[:, :3], compute_uv=False)
    assert max_abs(res.singular_values - lapack) <= 1e-13 * lapack[0]
    assert res.left.shape == res.right.shape == (40, 3)
    assert max_abs(res.left.T @ res.left - np.eye(3)) <= 1e-12
    assert max_abs(res.right.T @ res.right - np.eye(3)) <= 1e-12
    assert frobenius_distance(res.reconstruct(), a) <= 1e-12 * np.linalg.norm(a.ravel())


def test_svd_matches_hermitian_eigen_oracle_rank_deficient():
    # Four dense complex columns scattered among eight exact zero ones: the
    # squared singular values are the top r = 4 eigenvalues of a^* a, and
    # the remaining eight eigenvalues vanish.
    rng = np.random.default_rng(12)
    a = np.zeros((12, 12), dtype=complex)
    cols = [1, 4, 5, 10]
    a[:, cols] = rng.standard_normal((12, 4)) + 1j * rng.standard_normal((12, 4))
    sigma = svd(a).singular_values
    eigvals = hermitian_eigen(a.conj().T @ a)
    r = len(cols)
    assert len(sigma) == r
    assert max_abs(sigma ** 2 - eigvals[:r]) <= 1e-12 * eigvals[0]
    assert max_abs(eigvals[r:]) <= 1e-12 * eigvals[0]


def _lazy_vector_input(kind):
    rng = np.random.default_rng(11)
    if kind == "sphere state":
        return antidiagonal_state(SphereModel(12)).normalized()
    if kind == "real diagonal, rank 3":
        return np.diag([0.0, 3.0, 1.0, 3.0, 0.0])
    if kind == "complex diagonal, rank 3":
        return np.diag([1j, 0.0, 2.0 - 1.0j, 0.5])
    if kind == "real dense":
        return rng.standard_normal((7, 7))
    a = np.zeros((8, 8), dtype=complex if kind.startswith("complex") else float)
    a[:, [1, 4, 6]] = rng.standard_normal((8, 3))
    if kind.startswith("complex"):
        a[:, [1, 4, 6]] += 1j * rng.standard_normal((8, 3))
    return a


@pytest.mark.parametrize("kind, rotates", [
    ("sphere state", False), ("real diagonal, rank 3", False),
    ("complex diagonal, rank 3", False), ("real dense", True),
    ("real, rank 3 among zero columns", True),
    ("complex, rank 3 among zero columns", True)])
def test_svd_singular_vectors_formed_on_first_read(kind, rotates):
    # svd computes the singular values only; U and V are formed when first
    # read and then cached.  An input whose columns pass the first Gram test
    # never accumulates V: right is then exactly columns of the identity.
    a = _lazy_vector_input(kind)
    n = len(a)
    res = svd(a)
    assert (res.sweeps > 0) == rotates
    assert "left" not in vars(res) and "right" not in vars(res)
    if not rotates:
        assert res.v_rows is None
        assert np.array_equal(res.right, np.eye(n)[:, res.order])
    assert res.left is res.left and res.right is res.right
    r = len(res.singular_values)
    assert r == (3 if "rank 3" in kind else n)
    assert res.left.shape == res.right.shape == (n, r)
    assert res.left.dtype == res.right.dtype == a.dtype
    assert frobenius_distance(res.reconstruct(), a) <= 1e-12 * np.linalg.norm(a.ravel())
    assert max_abs(res.left.conj().T @ res.left - np.eye(r)) <= 1e-12
    assert max_abs(res.right.conj().T @ res.right - np.eye(r)) <= 1e-12


@pytest.mark.parametrize("kind", [
    "sphere state", "complex diagonal, rank 3", "real dense", "complex dense",
    "empty", "all zero"])
def test_svd_leaves_its_input_alone(kind):
    # A matrix that passes the first Gram test is read in place, yet no
    # factor aliases it: the caller may change it before or after U and V
    # are first read.
    rng = np.random.default_rng(13)
    if kind == "complex dense":
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    elif kind == "empty":
        a = np.zeros((0, 0))
    elif kind == "all zero":
        a = np.zeros((4, 4))
    else:
        a = _lazy_vector_input(kind)
    before = a.copy()
    expected = svd(before.copy())
    res = svd(a)
    assert np.array_equal(a, before)
    assert (res.sweeps > 0) == kind.endswith("dense")
    a += 1.0
    for factor in (res.left, res.right):
        assert not np.shares_memory(factor, a)
    assert np.array_equal(res.left, expected.left)
    assert np.array_equal(res.right, expected.right)
    a *= -3.0
    assert np.array_equal(res.singular_values, expected.singular_values)
    assert np.array_equal(res.left, expected.left)
    assert np.array_equal(res.right, expected.right)


def _in_layout(b, layout):
    """A matrix equal to b, stored in the given memory layout."""
    if layout == "row-major":
        return b.copy()
    if layout == "transpose":
        return b.T.copy().T
    if layout == "reversed rows":
        return b[::-1].copy()[::-1]
    if layout == "reversed columns":
        return b[:, ::-1].copy()[:, ::-1]
    if layout == "reversed":
        return b[::-1, ::-1].copy()[::-1, ::-1]
    n = len(b)
    big = np.zeros((2 * n + 3, 2 * n + 3), dtype=b.dtype)
    view = big[1:n + 1, 2:n + 2] if layout == "slice" else big[1::2, ::2][:n, :n]
    view[...] = b
    return view


@pytest.mark.parametrize("layout", ["row-major", "transpose", "reversed rows",
                                    "reversed columns", "reversed", "slice",
                                    "strided slice"])
@pytest.mark.parametrize("dtype", [float, complex])
def test_identity_defect_is_the_largest_entry_of_a_minus_identity(monkeypatch,
                                                                   layout, dtype):
    # The diagonal's gap to 1 and the off-diagonal maximum, taken apart,
    # give exactly the largest |a - I| in every layout.  A dominant entry
    # put at each position in turn reads differently on the diagonal (|x - 1|)
    # and off it (|x|), so a misplaced diagonal shows.
    # Diagonal input, with +0.0 and -0.0 off the diagonal, is read from its
    # diagonal alone and must agree too.  The off-diagonal is taken once, so
    # a layout that is neither C- nor F-contiguous is copied once.
    taken = []
    off_diagonal = linalg._off_diagonal
    monkeypatch.setattr(linalg, "_off_diagonal",
                        lambda a: taken.append(a.shape) or off_diagonal(a))
    rng = np.random.default_rng(17)
    big = -3.0j if dtype is complex else -3.0
    for n in (0, 1, 2, 5):
        base = np.eye(n, dtype=dtype) + 1e-3 * rng.standard_normal((n, n))
        if dtype is complex:
            base += 1e-3j * rng.standard_normal((n, n))
        diagonal = np.diag(base.diagonal())
        diagonal[~np.eye(n, dtype=bool)] = np.resize([-0.0, 0.0], n * n - n)
        cases = [base, diagonal]
        for i, j in np.ndindex(n, n):
            cases.append(base.copy())
            cases[-1][i, j] = big
        for i in range(n):
            cases.append(diagonal.copy())
            cases[-1][i, i] = big
        for b in cases:
            a = _in_layout(b, layout)
            assert np.array_equal(a, b)
            taken.clear()
            assert identity_defect(a) == max_abs(b - np.eye(n))
            assert taken == [(n, n)]


def _max_abs_cases():
    """Named real and complex inputs of max_abs."""
    real = np.random.default_rng(29).standard_normal((7, 6))
    cases = {
        "empty": np.zeros((0, 3)),
        "all negative": -np.abs(real) - 0.5,
        "+0.0": np.zeros((2, 3)),
        "-0.0": np.full((2, 3), -0.0),
        "mixed zeros": np.array([0.0, -0.0, -0.0]),
        "scalar": np.array(-2.5),
        "random": real,
        "transposed": real.T,
        "strided": real[::2, ::-3],
    }
    return {**cases, **{f"{name}, complex": a * (0.6 - 0.8j)
                        for name, a in cases.items()}}


MAX_ABS_CASES = _max_abs_cases()


@pytest.mark.parametrize("a", MAX_ABS_CASES.values(), ids=MAX_ABS_CASES)
def test_max_abs_is_the_largest_modulus(a):
    # Exactly np.abs(a).max(), zero for empty input, and never -0.0.
    want = float(np.abs(a).max()) if a.size else 0.0
    got = max_abs(a)
    assert got == want
    assert math.copysign(1.0, got) == 1.0


def test_max_abs_of_real_input_forms_no_modulus_array():
    import tracemalloc
    a = np.random.default_rng(31).standard_normal((300, 300))
    tracemalloc.start()
    try:
        for view in (a, a.T, a[::2, ::-3]):
            max_abs(view)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < a.nbytes // 4


def test_identity_defect_rejects_non_square_input():
    for a in (np.ones((2, 3)), np.ones(4)):
        with pytest.raises(ValueError, match="square"):
            identity_defect(a)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("a", [[[1.0, math.nan], [0.0, 1.0]],
                               [[1.0, 0.5], [math.nan, 1.0]],
                               [[math.nan, 0.5], [0.0, 1.0]]],
                         ids=["nan_off_diagonal", "nan_below_a_gap",
                              "nan_diagonal"])
def test_identity_defect_of_a_nan_entry_is_nan(a, dtype):
    # A NaN is no defect of zero: the gap to 1 must not hide it.
    assert math.isnan(identity_defect(np.array(a, dtype=dtype)))


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("scale", [1.0, 2.0 ** -30, 2.0 ** 20])
def test_hermitian_eigen_tolerance_is_relative_to_the_largest_entry(dtype,
                                                                    scale):
    # A Hermitian matrix whose largest entry is its unit diagonal, with the
    # defect delta placed where it reads back exactly as max |h - h^*|.
    h = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.25], [0.0, 0.25, 1.0]],
                 dtype=dtype)
    if dtype is complex:
        h[0, 1], h[1, 0] = 0.5j, -0.5j
    tol = HERMITIAN_TOL * scale
    for delta, accepted in ((tol * (1.0 - 1e-6), True),
                            (tol * (1.0 + 1e-6), False)):
        a = scale * h
        a[0, 2] = delta * (1j if dtype is complex else 1.0)
        assert max_abs(a - a.conj().T) == delta
        assert max_abs(a) == scale
        if accepted:
            assert hermitian_eigen(a).shape == (3,)
        else:
            with pytest.raises(ValueError, match="not Hermitian"):
                hermitian_eigen(a)


@pytest.mark.parametrize("entry", [analyze, svd, hermitian_eigen],
                         ids=lambda f: f.__name__)
def test_entry_points_reject_non_square_input(entry):
    with pytest.raises(ValueError,
                       match=rf"^{entry.__name__} input must be square"):
        entry(np.ones((2, 3)))


def test_hermitian_eigen_of_complex_input_holds_one_and_a_half_blocks():
    # One d x d work array holds h^* - h; the largest moduli of it and of h
    # are each read from a modulus array of half its size, one at a time.
    # The eigenvalues are O(d), and LAPACK's workspace is not traced.
    import tracemalloc
    d = 301
    rng = np.random.default_rng(37)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h, block = g + g.conj().T, 16 * d * d
    tracemalloc.start()
    try:
        hermitian_eigen(h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * block + 64 * d


def _cli_state(kind, k, mu=0.37):
    """Normalized coefficients of a state the CLI builds: exactly diagonal."""
    if kind == "torus":
        return antidiagonal_state(TorusModel(k, mu)).normalized()
    build = antidiagonal_state if kind == "sphere" else circle_state_quadrature
    return build(SphereModel(k)).normalized()


@pytest.mark.parametrize("kind", ["sphere", "circle", "torus"])
def test_analyze_of_a_cli_state_reads_its_diagonal(monkeypatch, kind):
    # Off-diagonal entries that are exact zeros make the eigenvalues the
    # diagonal and the columns orthogonal, so analyze calls neither LAPACK's
    # eigensolver nor the Gram test.  One off-diagonal 1e-300, real or
    # imaginary, is not zero and takes both again.
    c = _cli_state(kind, 12)
    eigvalsh, worst_ratio = np.linalg.eigvalsh, linalg._worst_ratio

    def forbidden(*args):
        raise AssertionError("dense path taken on exactly diagonal input")
    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    monkeypatch.setattr(linalg, "_worst_ratio", forbidden)
    analyze(c)

    calls = []

    def counted(name, f):
        def call(*args):
            calls.append(name)
            return f(*args)
        return call
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", eigvalsh))
    monkeypatch.setattr(linalg, "_worst_ratio",
                        counted("_worst_ratio", worst_ratio))
    for entry in (1e-300, 1e-300j):
        b = c.astype(type(entry))
        b[0, 1] = entry
        calls.clear()
        analyze(b)
        assert calls == ["eigvalsh", "_worst_ratio"]


def _signed_zeros():
    # numpy's sort may turn 0.0 into -0.0 beside a -0.0, and LAPACK's order
    # of the two is its own: such a diagonal takes the LAPACK path.
    return np.diag(np.resize([0.0, -0.0, 0.5, -0.0, 0.0, -0.25, 0.0], 40))


def _cli_inputs(kind, k, mu=0.37):
    """The inputs of a CLI row's two factorizations, c c^* and c."""
    c = _cli_state(kind, k, mu)
    return c @ c.conj().T, c


def _as_both(d):
    return d, d


DIAGONAL_CASES = {
    **{f"{kind} k={k}": (lambda kind=kind, k=k: _cli_inputs(kind, k))
       for kind, ks in (("sphere", (1, 2, 7, 40, 300)),
                        ("circle", (1, 2, 40, 300, 1500)),
                        ("torus", (3, 24, 100))) for k in ks},
    **{f"torus mu={mu} k=50": (lambda mu=mu: _cli_inputs("torus", 50, mu))
       for mu in (0.0, -1.2)},
    "ties": lambda: _as_both(np.diag([0.5, 0.25, 0.5, 0.25, 0.5])),
    "zeros": lambda: _as_both(np.diag([0.0, 1.0, 0.0, 0.3, 0.0])),
    "negative": lambda: _as_both(np.diag([-0.5, 0.25, -2.0, 0.25])),
    "signed zeros": lambda: _as_both(_signed_zeros()),
    "complex": lambda: _as_both(np.diag([0.5 + 1e-13j, 0.25 - 1e-14j, 0.125])),
    "0 x 0": lambda: _as_both(np.zeros((0, 0))),
    "1 x 1": lambda: _as_both(np.array([[0.7]])),
}


@pytest.mark.parametrize("make", DIAGONAL_CASES.values(), ids=DIAGONAL_CASES)
def test_diagonal_input_matches_the_dense_path_bit_for_bit(monkeypatch, make):
    # The circle state at k = 1500 holds weights that underflow to 0.0.
    h, c = make()
    fast = hermitian_eigen(h), svd(c), identity_defect(h)
    monkeypatch.setattr(linalg, "_is_diagonal", lambda a: False)
    dense = hermitian_eigen(h), svd(c), identity_defect(h)
    assert fast[0].tobytes() == dense[0].tobytes()
    for name in ("singular_values", "norms", "left", "right"):
        assert (getattr(fast[1], name).tobytes()
                == getattr(dense[1], name).tobytes()), name
    assert (fast[1].sweeps, fast[1].worst_ratio) == (dense[1].sweeps,
                                                     dense[1].worst_ratio)
    # identity_defect tests no diagonal: its reference is the entrywise max.
    assert fast[2] == dense[2] == max_abs(h - np.eye(len(h)))


@pytest.mark.parametrize("scale", [1.0, 2.0 ** -30, 2.0 ** 20, 1e-200, 1e200])
def test_hermitian_check_of_a_complex_diagonal_matches_the_dense_path(
        monkeypatch, scale):
    # On a diagonal the defect max |h - h^*| is twice the largest imaginary
    # part: just below HERMITIAN_TOL times the largest entry it passes, just
    # above it raises, with the same numbers in the message on both paths.
    def check(h):
        try:
            return hermitian_eigen(h).tobytes()
        except ValueError as error:
            return str(error)

    entries = scale * np.array([0.5, -0.25 + 0.0j, 1.0, 0.0, 0.125])
    verdicts = []
    for factor in (1.0 - 1e-6, 1.0 + 1e-6):
        h = np.diag(entries)
        h[2, 2] += 0.5j * HERMITIAN_TOL * scale * factor
        fast = check(h)
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "_is_diagonal", lambda a: False)
            assert check(h) == fast
        verdicts.append(isinstance(fast, str))
    assert verdicts == [False, True]
