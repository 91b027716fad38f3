import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conftest import beta_monomial_norm, pairing_matrix
from lagstate.linalg import RULE_FLOOR, gauss_legendre_01, max_abs, rule_size
from lagstate.sphere import (SphereModel, binomials, exact_radial_count,
                             gram_matrix, gram_residual, monomial_gram,
                             phase_average, sphere_quadrature,
                             weighted_basis_values)
from lagstate.states import coherent_vector


def gram_diagonal_oracle(k, n):
    """Basis Gram diagonal sum_t w (k+1) C(k,j) t^j (1-t)^(k-j) under the
    n-node Gauss-Legendre rule, with amplitudes straight from math.comb."""
    t, w, _, _ = gauss_legendre_01(n)
    j = np.arange(k + 1)
    amp = np.array([(k + 1) * math.comb(k, i) for i in j], dtype=float)
    t = t[:, None]
    return w @ (amp * t**j * (1.0 - t) ** (k - j))


def test_binomials_are_exact():
    for n in (0, 1, 2, 39, 1000):
        assert binomials(n) == [math.comb(n, j) for j in range(n + 1)]


def test_model_validation():
    with pytest.raises(ValueError):
        SphereModel(0)
    model = SphereModel(3)
    assert model.dim == 4


def test_basis_values_at_origin():
    # The weight (1 + |z|^2)^(-k/2) is 1 at the origin.
    for k in (1, 2, 5):
        model = SphereModel(k)
        vals = weighted_basis_values(model, 0.0 + 0.0j)
        assert abs(vals[0] - math.sqrt(k + 1)) <= 1e-14
        assert max_abs(vals[1:]) == 0.0


def test_basis_values_examples():
    model = SphereModel(2)
    vals = weighted_basis_values(model, 1.0 + 0.0j)
    # sqrt(3 * C(2, j)) * z^j at z = 1, times the weight (1 + 1)^-1:
    # (sqrt(3), sqrt(6), sqrt(3)) / 2.
    assert np.allclose(vals, [math.sqrt(3.0) / 2.0, math.sqrt(6.0) / 2.0,
                              math.sqrt(3.0) / 2.0], rtol=1e-14)
    # At z = 2i the weight is (1 + 4)^-1.
    want = math.sqrt(6.0) * 2.0j / 5.0
    assert abs(weighted_basis_values(model, 2.0j)[1] - want) <= 1e-14


def test_basis_values_conjugation_symmetry():
    # Coefficients and weight are real, so w_j(conj(z)) = conj(w_j(z)).
    model = SphereModel(7)
    rng = np.random.default_rng(11)
    for _ in range(5):
        z = complex(rng.normal(), rng.normal())
        assert max_abs(weighted_basis_values(model, z.conjugate())
                       - weighted_basis_values(model, z).conj()) <= 1e-10


def test_weighted_basis_values_bounded():
    rng = np.random.default_rng(13)
    for k in (1, 4, 20, 60):
        model = SphereModel(k)
        for _ in range(5):
            z = complex(rng.normal(scale=5.0), rng.normal(scale=5.0))
            w = weighted_basis_values(model, z)
            assert np.all(np.isfinite(w))
            assert np.linalg.norm(w) <= math.sqrt(k + 1) + 1e-10


def test_weighted_basis_values_far_from_origin():
    # |z|^2 overflows above 1.3e154, so the weight must not square |z|.
    for k in (1, 3, 20):
        model = SphereModel(k)
        for z in (1e200, -1e200j, 1e300 * complex(0.6, 0.8), 1e100):
            w = weighted_basis_values(model, z)
            assert np.all(np.isfinite(w)), (k, z)
            assert np.linalg.norm(w) <= math.sqrt(k + 1) * (1.0 + 1e-14)
            # Only phi_k survives: |phi_k(z)| / (1+|z|^2)^(k/2) -> sqrt(k+1).
            assert abs(abs(w[k]) - math.sqrt(k + 1)) <= 1e-14 * math.sqrt(k + 1)
            assert abs(w[k] / abs(w[k]) - (z / abs(z)) ** k) <= 1e-13
    # Where |z|^2 is finite, the values are phi_j(z) / (1 + |z|^2)^(k/2) with
    # phi_j = sqrt((k+1) C(k,j)) z^j from exact binomials.
    model = SphereModel(7)
    for z in (0.5 - 0.9j, 1.0, 2.0 + 1.0j, -1e3j):
        phi = np.array([math.sqrt(8 * math.comb(7, j)) * z**j for j in range(8)])
        want = phi / (1.0 + abs(z) ** 2) ** 3.5
        got = weighted_basis_values(model, z)
        assert max_abs(got - want) <= 1e-14 * max_abs(want), z


@pytest.mark.parametrize("k, z", [(880, 2.0), (2000, 2.0), (200, 1e3),
                                  (40, 1e10), (20000, 1.7j)])
def test_weighted_basis_values_stay_finite_at_large_k(k, z):
    """The unweighted phi_j(z) overflows here (at z = 2 from k = 880 on);
    the weighted values and the coherent vector stay finite, and
    sum_j |w_j|^2 = k + 1.

    Error bound: log|w_j| = a_j + b + c_j, with a_j = ln((k+1) C(k,j)) / 2
    in [0, (k ln 2 + ln(k+1)) / 2], b = -(k/2) ln(1 + min(r, 1/r)^2) in
    [-(k/2) ln 2, 0] and c_j = (j - shift) ln r <= 0.  An entry with
    log|w_j| >= -40 has |c_j| <= a_j + 40, so its terms sum in modulus to
    at most S = 1.5 k ln 2 + ln(k+1) + 40.  Each term is rounded about
    3 times and the two additions once each, so log|w_j| is off by at most
    5 (eps/2) S, and |w_j|^2 relatively by 5 eps S plus a few roundings of
    the exponential, the phase and the square: 8 eps in all.  The smaller
    entries hold less than (k+1) e^-80 of the sum.
    """
    model = SphereModel(k)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = weighted_basis_values(model, z)
        u = coherent_vector(model, z)
    assert np.all(np.isfinite(w)) and np.all(np.isfinite(u))
    assert np.array_equal(u, w.conj())
    eps = np.finfo(float).eps
    bound = (5.0 * (1.5 * k * math.log(2.0) + math.log(k + 1) + 40.0) + 8.0) * eps
    total = math.fsum((np.abs(w) ** 2).tolist())
    assert abs(total - (k + 1)) <= bound * (k + 1)


def test_pairing_matrix_properties():
    model = SphereModel(4)
    rng = np.random.default_rng(15)
    z = complex(rng.normal(), rng.normal())
    p = pairing_matrix(model, z)
    assert max_abs(p - p.conj().T) <= 1e-13
    assert abs(np.trace(p).real - (model.k + 1)) <= 1e-12
    # Rank one: p = w w^dagger.
    w = weighted_basis_values(model, z)
    assert max_abs(p - np.outer(w, w.conj())) <= 1e-13


def test_pairing_matrix_examples():
    model = SphereModel(1)
    p0 = pairing_matrix(model, 0.0 + 0.0j)
    assert max_abs(p0 - np.diag([2.0, 0.0])) <= 1e-15
    p1 = pairing_matrix(model, 1.0 + 0.0j)
    assert max_abs(p1 - np.ones((2, 2))) <= 1e-14


def test_quadrature_minimum_counts():
    assert exact_radial_count(5) == 4  # ceil((5 + 2) / 2)
    # The rule built rounds that up to the shared power-of-two size.
    for k, n in ((1, 64), (5, 64), (126, 64), (127, 128), (254, 128),
                 (255, 256), (1000, 512)):
        assert len(sphere_quadrature(k)[0]) == n, k
        assert rule_size(exact_radial_count(k)) == n, k
    assert rule_size(1) == rule_size(RULE_FLOOR) == RULE_FLOOR
    assert rule_size(RULE_FLOOR + 1) == 2 * RULE_FLOOR


def test_gauss_legendre_rejects_an_empty_rule():
    with pytest.raises(ValueError, match="^rule needs n >= 1 nodes, got 0$"):
        gauss_legendre_01(0)


def test_gram_matches_minimal_exact_rule():
    # The shared rule agrees with the minimal exact one.
    want = gram_diagonal_oracle(5, exact_radial_count(5))
    assert max_abs(gram_matrix(SphereModel(5)) - np.diag(want)) <= 1e-14


def test_quadrature_volume_is_one():
    for k in (1, 6, 25):
        # The angular rule averages, so the radial weights carry the volume.
        ws = sphere_quadrature(k).weights
        assert np.all(ws > 0.0)
        assert abs(math.fsum(ws) - 1.0) <= 1e-13


def test_monomial_gram_matches_beta_oracle():
    for k in (1, 3, 8, 15):
        gram = monomial_gram(SphereModel(k))
        for j in range(k + 1):
            exact = float(beta_monomial_norm(k, j))
            assert abs(gram[j, j].real - exact) <= 1e-12 * exact
        off = gram - np.diag(np.diag(gram))
        assert max_abs(off) <= 1e-14


def test_gram_is_identity():
    # The CLI's default sphere tolerance holds at every k up to 510, and on a
    # sample up to 1000, where the rule has 512 nodes (all of 511..1000 takes
    # about 6 s).  The residual is 3.2e-14 at k = 511 and 7.1e-14 at 1000.
    for k in [*range(1, 511), 512, *range(511, 1000, 7), 1000]:
        model = SphereModel(k)
        residual = gram_residual(model)
        assert residual <= 1e-12, f"k={k}: residual {residual}"


def test_gram_stable_under_quadrature_doubling():
    base = gram_matrix(SphereModel(12))
    n = exact_radial_count(12)
    for rule in (n, 2 * n):
        assert max_abs(base - np.diag(gram_diagonal_oracle(12, rule))) <= 1e-14


def test_dimension_growth():
    # dim H_k = k + 1, so dim/k -> 1.
    ratios = [SphereModel(k).dim / k for k in (10, 100, 1000)]
    assert ratios == sorted(ratios, reverse=True)
    assert abs(ratios[-1] - 1.0) <= 1e-3


def test_phase_average_is_the_root_of_unity_comb():
    # Aliased frequencies (M divides delta, delta != 0) average to 1 too.
    for m in (1, 4, 7, 12):
        deltas = np.arange(-3 * m, 3 * m + 1)
        got = phase_average(m, deltas)
        steps = np.arange(m)
        want = np.array([np.exp(2j * np.pi * d * steps / m).sum() / m
                         for d in deltas])
        assert max_abs(got - want) <= 1e-14
        assert set(got.tolist()) <= {0.0, 1.0}
        assert np.array_equal(got == 1.0, deltas % m == 0)

