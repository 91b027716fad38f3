import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import (near_flat_state, partial_trace_2, random_state,
                      random_unitary, random_unit_vector,
                      separable_distance_minimized)
from lagstate.entanglement import (_fsum_squares, analyze, closest_separable,
                                   corollary_distance_identity, entropy,
                                   is_maximally_entangled)
from lagstate.linalg import frobenius_distance, max_abs, svd

# Entropy of the circle state at k = 2, from the exact Schmidt spectrum
# (1/6, 2/3, 1/6): (1/3) ln 6 + (2/3) ln(3/2).
CIRCLE_K2_ENTROPY = 0.8675632284814612


def test_schmidt_flat_spectrum():
    for d in (2, 3, 4, 7):
        v = np.eye(d, dtype=complex) / math.sqrt(d)
        dec = svd(v)
        assert np.allclose(dec.singular_values,
                           np.full(d, 1.0 / math.sqrt(d)), atol=1e-14)


def test_schmidt_product_state():
    rng = np.random.default_rng(0)
    a = random_unit_vector(rng, 5)
    b = random_unit_vector(rng, 5)
    dec = svd(np.outer(a, b))
    assert abs(dec.singular_values[0] - 1.0) <= 1e-13
    assert max_abs(dec.singular_values[1:]) <= 1e-13


def test_schmidt_diagonal_example():
    c = np.diag([1.0, 4.0, 1.0]) / math.sqrt(18.0)
    dec = svd(c)
    assert np.allclose(dec.singular_values,
                       np.array([4.0, 1.0, 1.0]) / math.sqrt(18.0),
                       rtol=1e-14)


def test_schmidt_reconstruction():
    rng = np.random.default_rng(21)
    for d in (2, 3, 5, 9, 16):
        c = random_state(rng, d)
        dec = svd(c)
        assert max_abs(dec.reconstruct() - c) <= 1e-10
        assert max_abs(dec.left.conj().T @ dec.left - np.eye(d)) <= 1e-12


def test_partial_trace_examples():
    d = 5
    v = np.eye(d, dtype=complex) / math.sqrt(d)
    assert max_abs(partial_trace_2(v) - np.eye(d) / d) <= 1e-14

    c = np.diag([1.0, 4.0, 1.0]) / math.sqrt(18.0)
    assert max_abs(partial_trace_2(c) - np.diag([1.0, 16.0, 1.0]) / 18.0) <= 1e-15

    rng = np.random.default_rng(2)
    sep = np.outer(random_unit_vector(rng, 4), random_unit_vector(rng, 4))
    rho = partial_trace_2(sep)
    assert abs(np.trace(rho).real - 1.0) <= 1e-12
    assert max_abs(rho @ rho - rho) <= 1e-12  # rank-one projector


def test_entropy_examples():
    assert abs(entropy(np.eye(4, dtype=complex) / 2.0) - math.log(4.0)) <= 1e-12
    rng = np.random.default_rng(3)
    sep = np.outer(random_unit_vector(rng, 4), random_unit_vector(rng, 4))
    assert entropy(sep) <= 1e-12
    circle = np.diag([1.0, 2.0, 1.0]) / math.sqrt(6.0)
    assert abs(entropy(circle) - CIRCLE_K2_ENTROPY) <= 1e-12


def test_entropy_requires_normalization():
    # analyze is the one spectral entry point, and entropy reads it, so both
    # reject a state whose norm is off by more than NORM_TOL.
    near = np.eye(3) / math.sqrt(3.0) * (1.0 + 1e-8)
    for c in (2.0 * np.eye(3, dtype=complex), near):
        for fn in (analyze, entropy):
            with pytest.raises(ValueError, match="not normalized"):
                fn(c)
    assert abs(entropy(np.eye(3) / math.sqrt(3.0)) - math.log(3.0)) <= 1e-15


def test_entropy_range_and_spectrum_sum():
    rng = np.random.default_rng(17)
    for d in (2, 4, 9, 16):
        for _ in range(5):
            c = random_state(rng, d)
            nu = entropy(c)
            assert -1e-15 <= nu <= math.log(d) + 1e-12
            lam = analyze(c).schmidt_spectrum
            assert abs(math.fsum(lam) - 1.0) <= 1e-12


def test_entropy_unitary_invariance():
    rng = np.random.default_rng(29)
    for d in (2, 5, 11):
        c = random_state(rng, d)
        u = random_unitary(rng, d)
        w = random_unitary(rng, d)
        assert abs(entropy(u @ c @ w.T) - entropy(c)) <= 1e-10


def test_closest_separable_maximally_entangled():
    v = np.eye(4, dtype=complex) / 2.0
    u_s, dist = closest_separable(v)
    assert abs(dist - math.sqrt(3.0) / 2.0) <= 1e-12
    # The minimizer is a product state at the top Schmidt term.
    dec = svd(u_s)
    assert abs(dec.singular_values[0] - 0.5) <= 1e-12
    assert max_abs(dec.singular_values[1:]) <= 1e-12


@pytest.mark.parametrize("s", [1e-170, 1e160])
def test_closest_separable_of_badly_scaled_input(s):
    # The squared tail s^2 underflows or overflows; the distance is s, within
    # an ulp of the rounded square taken on the rescaled tail.
    assert abs(closest_separable(np.diag([s, s]))[1] - s) <= 2.0**-52 * s


def test_separable_distance_scales_exactly():
    # svd's singular values scale exactly by 2^+-600, and the tail norm of
    # them is taken again on the tail scaled back: the distance scales too.
    c = random_state(np.random.default_rng(37), 5)
    ref = closest_separable(c)[1]
    for s in (2.0**600, 2.0**-600):
        assert closest_separable(c * s)[1] == ref * s


def test_tail_norm_squares_are_correctly_rounded():
    # x * x is one IEEE product, correctly rounded on every platform, while
    # x ** 2 calls the platform's pow, which may miss it in the last bit.
    # On doubles where the two differ here, each square the tail norm sums
    # must be the exact square, rounded once.
    xs = [x for x in np.random.default_rng(41).random(200_000).tolist()
          if x ** 2 != x * x][:50]
    if not xs:
        pytest.skip("x ** 2 == x * x on every sampled double on this platform")
    for x in xs:
        assert _fsum_squares(np.array([x])) == float(Fraction(x) ** 2)


def test_closest_separable_of_product_state_is_itself():
    rng = np.random.default_rng(4)
    sep = np.outer(random_unit_vector(rng, 4), random_unit_vector(rng, 4))
    u_s, dist = closest_separable(sep)
    assert dist <= 1e-12
    assert max_abs(u_s - sep) <= 1e-10


def test_schmidt_rank_deficient_states():
    # Schmidt terms exist only for nonzero coefficients: the number of
    # singular values is the Schmidt rank.  The product state's two nonzero
    # columns are equal bit for bit, so one rotation cancels one of them
    # exactly; the diagonal state has 100 nonzero entries scattered among 300
    # exact zeros.
    rng = np.random.default_rng(16)
    a = random_unit_vector(rng, 5)
    b = np.zeros(5)
    b[[1, 3]] = math.sqrt(0.5)
    values = np.zeros(400)
    values[rng.choice(400, size=100, replace=False)] = rng.uniform(0.5, 2.0, 100)
    tail = np.sort(values)[::-1][1:100]
    for c, rank, distance in ((np.zeros((4, 4)), 0, 0.0),
                              (np.outer(a, b), 1, 0.0),
                              (np.diag(values), 100,
                               math.sqrt(math.fsum(tail ** 2)))):
        dec = svd(c)
        s = dec.singular_values
        assert len(s) == rank
        assert max_abs(dec.reconstruct() - c) <= 1e-12
        u_s, dist = closest_separable(c)
        assert dist == math.sqrt(math.fsum(s[1:] ** 2)) == distance
        assert frobenius_distance(c, u_s) <= distance + 1e-12
    # The zero state is its own nearest product vector.
    u_s, _ = closest_separable(np.zeros((4, 4)))
    assert np.array_equal(u_s, np.zeros((4, 4)))


def test_closest_separable_matches_minimization_oracle():
    rng = np.random.default_rng(51)
    for trial in range(8):
        c = random_state(rng, 3)
        _, dist = closest_separable(c)
        oracle = separable_distance_minimized(c, seed=100 + trial)
        assert abs(dist - oracle) <= 1e-6


def test_closest_separable_not_unique_for_flat_spectrum():
    # Any Schmidt pair of a maximally entangled state is equally close.
    v = np.eye(4, dtype=complex) / 2.0
    dec = svd(v)
    u_s, dist = closest_separable(v)
    alt = dec.singular_values[0] * np.outer(dec.left[:, 1],
                                            dec.right[:, 1].conj())
    assert abs(frobenius_distance(v, alt) - dist) <= 1e-12


def test_proof_inequality_on_seeded_triples():
    rng = np.random.default_rng(77)
    for _ in range(50):
        d = int(rng.integers(2, 7))
        v = random_state(rng, d)
        _, dist = closest_separable(v)
        u1 = random_unit_vector(rng, d) * (0.5 + rng.random())
        u2 = random_unit_vector(rng, d)
        gap = frobenius_distance(v, np.outer(u1, u2)) ** 2 - dist ** 2
        assert gap >= -1e-12


def test_separability_iff_zero_entropy_at_tolerance():
    rng = np.random.default_rng(91)
    for _ in range(20):
        d = int(rng.integers(2, 7))
        sep = np.outer(random_unit_vector(rng, d), random_unit_vector(rng, d))
        noise = random_state(rng, d)
        near = sep + 5e-7 * noise
        near /= np.linalg.norm(near)
        generic = random_state(rng, d)
        for c in (near, generic):
            alphas = svd(c).singular_values
            assert (alphas[1] <= 1e-6) == (entropy(c) <= 1e-9)


def test_is_maximally_entangled():
    assert is_maximally_entangled(np.eye(5, dtype=complex) / math.sqrt(5.0))
    assert is_maximally_entangled(np.diag([1.0, 1.0]) / math.sqrt(2.0))
    rng = np.random.default_rng(6)
    sep = np.outer(random_unit_vector(rng, 3), random_unit_vector(rng, 3))
    assert not is_maximally_entangled(sep)
    circle = np.diag([1.0, 2.0, 1.0]) / math.sqrt(6.0)
    assert not is_maximally_entangled(circle)


def test_maximal_entanglement_is_one_entropy_comparison():
    # d = 4 with ln d - nu = 2e-9.  Its weights lie within sqrt(2 tol/d) of
    # 1/d at tol = 1e-9, so a spectrum test would call the state flat; the
    # verdict is the entropy's alone.
    report = analyze(near_flat_state(4, 2e-9))
    assert abs(report.max_entropy - report.entropy - 2e-9) <= 1e-12
    assert report.is_maximally_entangled(1e-8) is True
    assert report.is_maximally_entangled(1e-9) is False


def test_maximal_entanglement_rejects_a_gap_above_tol():
    # d = 100, weights 1/d +- sqrt(2e-9/d)/2: every weight is inside the
    # spectrum band sqrt(2 tol/d) of the default tol, yet the entropy is
    # 2.5e-8 short of ln d, 25 times tol.
    c = near_flat_state(100, 2.5e-8)
    assert max_abs(np.diag(c) ** 2 - 0.01) < math.sqrt(2e-9 / 100)
    report = analyze(c)
    assert abs(report.max_entropy - report.entropy - 2.5e-8) <= 1e-11
    assert report.is_maximally_entangled() is False
    assert report.is_maximally_entangled(1e-7) is True
    assert is_maximally_entangled(c) is False


def test_corollary_distance_identity_uses_the_verdict():
    # The identity rejects exactly the states that the verdict rejects.
    c = near_flat_state(100, 2.5e-8)
    assert not analyze(c).is_maximally_entangled()
    with pytest.raises(ValueError, match="not maximally entangled"):
        corollary_distance_identity(c)
    flat_enough = near_flat_state(100, 5e-10)
    report = analyze(flat_enough)
    assert report.is_maximally_entangled()
    assert (corollary_distance_identity(flat_enough)
            == (report.separable_distance, report.corollary_distance))


def test_corollary_distance_identity():
    lhs, rhs = corollary_distance_identity(np.eye(2, dtype=complex) / math.sqrt(2.0))
    assert abs(lhs - math.sqrt(0.5)) <= 1e-12
    assert abs(rhs - math.sqrt(0.5)) <= 1e-12

    # d = 6 (sphere k = 5) and d = 4 (torus k = 4).
    for d in (6, 4):
        lhs, rhs = corollary_distance_identity(np.eye(d, dtype=complex) / math.sqrt(d))
        assert abs(lhs - math.sqrt((d - 1.0) / d)) <= 1e-12
        assert abs(lhs - rhs) <= 1e-12

    with pytest.raises(ValueError, match="not maximally entangled"):
        corollary_distance_identity(np.diag([1.0, 4.0, 1.0]) / math.sqrt(18.0))


def test_analyze_report_consistency():
    rng = np.random.default_rng(8)
    c = random_state(rng, 5)
    report = analyze(c)
    assert report.d == 5
    assert 0.0 <= report.entropy <= report.max_entropy + 1e-12
    assert abs(report.max_entropy - math.log(5.0)) <= 1e-15
    assert abs(report.corollary_distance
               - math.sqrt(1.0 - math.exp(-report.entropy))) <= 1e-15
    assert abs(math.fsum(report.schmidt_spectrum) - 1.0) <= 1e-12


def test_analyze_keeps_its_own_copy():
    # analyze computes the distance before it returns and keeps no
    # reference to the caller's array, so later edits of it cannot reach
    # the report.
    c = np.eye(4, dtype=complex) / 2.0
    report = analyze(c)
    c[:] = 0.0
    c[0, 0] = 1.0
    assert abs(report.separable_distance - math.sqrt(3.0) / 2.0) <= 1e-15


def _analyze_peak(c):
    """tracemalloc peak of analyze(c) and its separable distance, the
    caller's c not counted."""
    import tracemalloc
    tracemalloc.start()
    try:
        report = analyze(c)
        report.separable_distance
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(np.ndim(v) < 2 for v in vars(report).values())
    return peak


def test_analyze_holds_two_state_sized_arrays_at_most():
    # The Schmidt analysis of a dense row needs at most two d x d arrays at
    # once: c c^T and the one work array of its Hermitian check in the
    # eigensolve; then, in the SVD, which reads c in place when its columns
    # pass the first test, the Gram matrix of that test, and later the
    # scaled columns with the squares of their entries for the column norms.
    # A rotation on the first factor alone makes the state dense and keeps
    # its columns orthogonal.  Everything else is O(d): the spectrum, column
    # norms and exponents, and the entropy terms as Python floats, so 64
    # bytes per row bound the rest.
    from lagstate.sphere import SphereModel
    from lagstate.states import antidiagonal_state
    c = antidiagonal_state(SphereModel(300)).normalized()
    q, _ = np.linalg.qr(np.random.default_rng(300).standard_normal(c.shape))
    c = q @ c
    d, block = len(c), 8 * c.size
    assert svd(c).sweeps == 0
    assert _analyze_peak(c) <= 2 * block + 64 * d


@pytest.mark.parametrize("kind", ["sphere", "circle", "torus"])
def test_analyze_of_a_diagonal_state_holds_one_state_sized_array(kind):
    # An exactly diagonal state, as the CLI builds, is read off its diagonal
    # after c c^T: the Hermitian check forms no work array and the SVD only
    # its scaled columns, after c c^T is freed.
    from lagstate.sphere import SphereModel
    from lagstate.states import antidiagonal_state, circle_state_quadrature
    from lagstate.torus import TorusModel
    d = 301
    if kind == "torus":
        c = antidiagonal_state(TorusModel(d, 0.37)).normalized()
    else:
        build = antidiagonal_state if kind == "sphere" else circle_state_quadrature
        c = build(SphereModel(d - 1)).normalized()
    assert c.shape == (d, d)
    assert _analyze_peak(c) <= 1.2 * 8 * d * d + 64 * d


def test_entropy_counts_every_positive_eigenvalue():
    # The circle spectrum at k = 105 reaches 1.1e-62; its weights below 1e-15
    # add 7.6e-14 to the entropy, so none may be dropped.  The reference is
    # the 40-digit entropy of the same computed spectrum, so only the
    # evaluation of the terms is measured.  With u = 2^-53, each term
    # -x * log(x) carries the error of math.log (below 1 ulp, 2u relative)
    # and of the product (u), 3u of itself; math.fsum rounds the sum once (u).
    # All terms are positive, so the total is at most 4u times the entropy,
    # 1.2e-15 here.
    mpmath = pytest.importorskip("mpmath")
    from lagstate.sphere import SphereModel
    from lagstate.states import circle_state_quadrature
    report = analyze(circle_state_quadrature(SphereModel(105)).normalized())
    lam = report.schmidt_spectrum
    assert lam.min() < 1e-60
    with mpmath.workdps(40):
        exact = -mpmath.fsum(mpmath.mpf(float(x)) * mpmath.log(float(x))
                             for x in lam if x > 0)
        bound = 4.0 * 2.0**-53 * float(exact)
        assert abs(report.entropy - exact) <= bound
