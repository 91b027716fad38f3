import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import beta_monomial_norm
from lagstate.linalg import gauss_legendre_01, max_abs
from lagstate.sphere import (SphereModel, SphereQuadrature, basis_values,
                             gram_matrix, gram_residual, log_binomial,
                             monomial_gram, pairing_matrix, phase_average,
                             sphere_quadrature, weighted_basis_values)


def test_log_binomial_matches_exact():
    for n in range(0, 40):
        for j in range(0, n + 1):
            assert math.isclose(math.exp(log_binomial(n, j)),
                                math.comb(n, j), rel_tol=1e-12)


def test_model_validation():
    with pytest.raises(ValueError):
        SphereModel(0)
    model = SphereModel(3)
    assert model.dim == 4


def test_basis_values_at_origin():
    for k in (1, 2, 5):
        model = SphereModel(k)
        vals = basis_values(model, 0.0 + 0.0j)
        assert abs(vals[0] - math.sqrt(k + 1)) <= 1e-14
        assert max_abs(vals[1:]) == 0.0


def test_basis_values_examples():
    model = SphereModel(2)
    vals = basis_values(model, 1.0 + 0.0j)
    # sqrt(3 * C(2, j)) * z^j at z = 1: (sqrt(3), sqrt(6), sqrt(3)).
    assert np.allclose(vals, [math.sqrt(3.0), math.sqrt(6.0), math.sqrt(3.0)],
                       rtol=1e-14)
    assert abs(basis_values(model, 2.0j)[1] - math.sqrt(6.0) * 2.0j) <= 1e-14


def test_basis_values_conjugation_symmetry():
    # Coefficients are real, so phi_j(conj(z)) = conj(phi_j(z)).
    model = SphereModel(7)
    rng = np.random.default_rng(11)
    for _ in range(5):
        z = complex(rng.normal(), rng.normal())
        assert max_abs(basis_values(model, z.conjugate())
                       - basis_values(model, z).conj()) <= 1e-10


def test_weighted_basis_values_bounded():
    rng = np.random.default_rng(13)
    for k in (1, 4, 20, 60):
        model = SphereModel(k)
        for _ in range(5):
            z = complex(rng.normal(scale=5.0), rng.normal(scale=5.0))
            w = weighted_basis_values(model, z)
            assert np.all(np.isfinite(w))
            assert np.linalg.norm(w) <= math.sqrt(k + 1) + 1e-10


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
    quad = sphere_quadrature(5)
    assert quad.radial_count == 4  # ceil((5 + 2) / 2)


def test_gram_rejects_rule_for_smaller_k():
    with pytest.raises(ValueError, match="exact"):
        gram_matrix(SphereModel(5), sphere_quadrature(3))


def test_quadrature_volume_is_one():
    for k in (1, 6, 25):
        # The angular rule averages, so the radial weights carry the volume.
        ws = sphere_quadrature(k).t_weights
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
    for k in list(range(1, 21)) + [40, 60]:
        model = SphereModel(k)
        residual = gram_residual(model)
        assert residual <= 1e-12, f"k={k}: residual {residual}"


def test_gram_stable_under_quadrature_doubling():
    model = SphereModel(12)
    base = gram_matrix(model)
    quad = SphereQuadrature(*gauss_legendre_01(2 * ((12 + 3) // 2)))
    refined = gram_matrix(model, quad)
    assert max_abs(base - refined) <= 1e-14


def test_gram_rejects_mismatched_quadrature():
    model = SphereModel(9)
    quad = sphere_quadrature(4)
    with pytest.raises(ValueError):
        gram_matrix(model, quad)


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

