import math

import numpy as np
import pytest

from conftest import random_state, random_unitary, random_unit_vector
from lagstate.entanglement import (analyze, closest_separable,
                                   corollary_distance_identity, entropy,
                                   is_maximally_entangled, partial_trace_2,
                                   schmidt, schmidt_spectrum,
                                   separable_distance_minimized)
from lagstate.linalg import frobenius_distance, max_abs

# Entropy of the circle state at k = 2, from the exact Schmidt spectrum
# (1/6, 2/3, 1/6): (1/3) ln 6 + (2/3) ln(3/2).
CIRCLE_K2_ENTROPY = 0.8675632284814612


def test_schmidt_flat_spectrum():
    for d in (2, 3, 4, 7):
        v = np.eye(d, dtype=complex) / math.sqrt(d)
        dec = schmidt(v)
        assert np.allclose(dec.alphas, np.full(d, 1.0 / math.sqrt(d)),
                           atol=1e-14)


def test_schmidt_product_state():
    rng = np.random.default_rng(0)
    a = random_unit_vector(rng, 5)
    b = random_unit_vector(rng, 5)
    dec = schmidt(np.outer(a, b))
    assert abs(dec.alphas[0] - 1.0) <= 1e-13
    assert max_abs(dec.alphas[1:]) <= 1e-13


def test_schmidt_diagonal_example():
    c = np.diag([1.0, 4.0, 1.0]) / math.sqrt(18.0)
    dec = schmidt(c)
    assert np.allclose(dec.alphas,
                       np.array([4.0, 1.0, 1.0]) / math.sqrt(18.0),
                       rtol=1e-14)


def test_schmidt_reconstruction():
    rng = np.random.default_rng(21)
    for d in (2, 3, 5, 9, 16):
        c = random_state(rng, d)
        dec = schmidt(c)
        assert max_abs(dec.reconstruct() - c) <= 1e-10
        assert max_abs(dec.basis_left.conj().T @ dec.basis_left - np.eye(d)) <= 1e-12


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
    with pytest.raises(ValueError, match="not normalized"):
        entropy(2.0 * np.eye(3, dtype=complex))
    # Explicitly unnormalized input is accepted when flagged.
    value = entropy(np.eye(3, dtype=complex) * 2.0 / math.sqrt(3.0) / 2.0,
                    require_normalized=False)
    assert value >= 0.0


def test_entropy_range_and_spectrum_sum():
    rng = np.random.default_rng(17)
    for d in (2, 4, 9, 16):
        for _ in range(5):
            c = random_state(rng, d)
            nu = entropy(c)
            assert -1e-15 <= nu <= math.log(d) + 1e-12
            lam = schmidt_spectrum(c)
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
    dec = schmidt(u_s)
    assert abs(dec.alphas[0] - 0.5) <= 1e-12
    assert max_abs(dec.alphas[1:]) <= 1e-12


def test_closest_separable_of_product_state_is_itself():
    rng = np.random.default_rng(4)
    sep = np.outer(random_unit_vector(rng, 4), random_unit_vector(rng, 4))
    u_s, dist = closest_separable(sep)
    assert dist <= 1e-12
    assert max_abs(u_s - sep) <= 1e-10


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
    dec = schmidt(v)
    u_s, dist = closest_separable(v)
    alt = dec.alphas[0] * np.outer(dec.basis_left[:, 1], dec.basis_right[:, 1])
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
            alphas = schmidt(c).alphas
            assert (alphas[1] <= 1e-6) == (entropy(c) <= 1e-9)


def test_is_maximally_entangled():
    assert is_maximally_entangled(np.eye(5, dtype=complex) / math.sqrt(5.0))
    assert is_maximally_entangled(np.diag([1.0, 1.0]) / math.sqrt(2.0))
    rng = np.random.default_rng(6)
    sep = np.outer(random_unit_vector(rng, 3), random_unit_vector(rng, 3))
    assert not is_maximally_entangled(sep)
    circle = np.diag([1.0, 2.0, 1.0]) / math.sqrt(6.0)
    assert not is_maximally_entangled(circle)


def test_maximal_entanglement_disagreement_is_numerical():
    # d = 4, spectrum 1/4 +- eps with sqrt(2 tol)/d < eps < sqrt(2 tol/d):
    # the spectrum check passes, the entropy check (ln d - nu ~ 8 eps^2)
    # fails.
    tol, d = 1e-9, 4
    eps = math.sqrt(math.sqrt(2.0 * tol) / d * math.sqrt(2.0 * tol / d))
    c = np.diag(np.sqrt([0.25 + eps, 0.25 + eps, 0.25 - eps, 0.25 - eps]))
    with pytest.raises(RuntimeError, match="checks disagree"):
        analyze(c).is_maximally_entangled(tol)


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
    # The distance is computed lazily, so it must not see later edits of
    # the caller's array; svd itself no longer copies its input.
    c = np.eye(4, dtype=complex) / 2.0
    report = analyze(c)
    c[:] = 0.0
    c[0, 0] = 1.0
    assert abs(report.separable_distance - math.sqrt(3.0) / 2.0) <= 1e-15
