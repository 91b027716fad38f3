import math

import numpy as np
import pytest

from conftest import (theta_reference, torus_gram_diag_reference,
                      torus_gram_reference, torus_norm_reference)
from lagstate.linalg import gauss_legendre_01, max_abs
from lagstate.sphere import sphere_quadrature
from lagstate.torus import (THETA_TOL, Y_RULE_FLOOR, TorusModel, _y_bound,
                            closed_form_norm, gaussian_weight,
                            gram_quadrature, orthonormal_basis,
                            quasi_periodicity_factor, theta_eval,
                            theta_truncation)

SAMPLE_POINTS = [0.13 + 0.07j, 0.41 + 0.33j, 0.77 + 0.52j, 0.25 + 0.90j]


def test_model_validation():
    with pytest.raises(ValueError):
        TorusModel(2)
    with pytest.raises(ValueError):
        TorusModel(4, mu=math.inf)
    model = TorusModel(4, mu=0.37)
    assert model.dim == 4
    for j in range(1, 5):
        assert abs(model.reduced_q(j)) <= 0.5
    with pytest.raises(ValueError, match="out of range"):
        model.reduced_q(0)


def test_truncation_certificate():
    for k in (3, 5, 9):
        trunc = theta_truncation(TorusModel(k), 1e-12)
        assert trunc.tail_bound <= 1e-12
        assert trunc.n_max >= 1
        # A tighter tolerance never shrinks the cutoff.
        tighter = theta_truncation(TorusModel(k), 1e-15)
        assert tighter.n_max >= trunc.n_max


def test_truncation_errors():
    with pytest.raises(ValueError, match="positive"):
        theta_truncation(TorusModel(3), 0.0)
    with pytest.raises(ValueError, match="not reachable"):
        theta_truncation(TorusModel(3), 1e-12, y_max=80.0)


def test_theta_matches_direct_series():
    # Oracle: direct sum over a wide index window with the unreduced
    # characteristic q = (mu + j)/k.
    for k, mu in ((3, 0.0), (5, 0.37), (4, -1.2)):
        model = TorusModel(k, mu=mu)
        for j in (1, k):
            for z in SAMPLE_POINTS:
                got = theta_eval(model, j, z, tol=1e-13)
                want = theta_reference(k, mu, j, z, n_max=12)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_theta_eval_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        theta_eval(TorusModel(3), 1, complex(math.nan, 0.0))


def test_quasi_periodicity():
    for k, mu in ((3, 0.0), (5, 0.37)):
        model = TorusModel(k, mu=mu)
        for j in (1, 2):
            for z in SAMPLE_POINTS:
                base = theta_eval(model, j, z)
                assert abs(base) > 1e-6
                for m, n in ((1, 0), (0, 1), (-1, 1), (2, -1)):
                    shifted = theta_eval(model, j, z + m + 1j * n)
                    factor = quasi_periodicity_factor(model, z, m, n)
                    scale = max(abs(shifted), abs(factor * base))
                    assert abs(shifted - factor * base) <= 1e-11 * scale


def test_gaussian_weight_identity():
    rng = np.random.default_rng(23)
    for k in (3, 7):
        for _ in range(5):
            z = complex(rng.normal(), rng.normal())
            direct = np.exp((k * math.pi / 2.0) * (z - z.conjugate()) ** 2)
            assert abs(direct.imag) <= 1e-18
            w = gaussian_weight(k, z.imag)
            assert abs(direct.real - w) <= 1e-15 * w


def test_gram_structure():
    for k, mu in ((3, 0.0), (6, 0.37)):
        model = TorusModel(k, mu=mu)
        res = gram_quadrature(model)
        gram = res.gram
        assert gram.shape == (k, k)
        assert max_abs(gram - gram.conj().T) <= 1e-12
        off = gram - np.diag(np.diag(gram))
        assert max_abs(off) <= 1e-8
        diag = np.diag(gram).real
        want = 1.0 / math.sqrt(2.0 * k)
        assert max_abs(diag - want) <= 1e-8
        eigs = np.linalg.eigvalsh(gram)
        assert eigs.min() >= -1e-10


def test_gram_diag_is_mu_independent():
    d0 = np.diag(gram_quadrature(TorusModel(5, mu=0.0)).gram).real
    d1 = np.diag(gram_quadrature(TorusModel(5, mu=0.37)).gram).real
    assert max_abs(np.sort(d0) - np.sort(d1)) <= 1e-9


@pytest.mark.parametrize("mu", [0.0, 0.37, -1.2])
@pytest.mark.parametrize("k", range(3, 9))
def test_gram_matches_product_rule_oracle(k, mu):
    # The x-rule is applied in closed form; the full 2-D product rule at the
    # same resolution must agree, and off-diagonal entries are exact zeros.
    res = gram_quadrature(TorusModel(k, mu=mu))
    m_x = 2 * k * (2 * res.truncation.n_max + 1)
    want = torus_gram_reference(k, mu, res.n_y, m_x)
    assert max_abs(res.gram - want) <= 1e-13 * max_abs(want)
    assert not (res.gram - np.diag(np.diag(res.gram))).any()


def test_gram_y_levels():
    # One y-level per Gram, sized in advance by the Bernstein-ellipse bound.
    for k, n_y in ((3, 64), (12, 64), (24, 64), (60, 64), (74, 64), (75, 128),
                   (200, 128), (1000, 256)):
        res = gram_quadrature(TorusModel(k, mu=0.37))
        assert res.n_y == n_y, k
        assert res.y_bound <= THETA_TOL / math.sqrt(2.0 * k)


@pytest.mark.parametrize("mu", [0.0, 0.37, -1.2])
def test_gram_diag_matches_erf_closed_form(mu):
    # The certified y-rule reaches the exact integral of the truncated
    # n-sum, and above the floor its node count is the smallest power of two
    # the bound certifies: at half of it the bound misses the target.
    for k in range(3, 201):
        model = TorusModel(k, mu=mu)
        res = gram_quadrature(model)
        target = THETA_TOL / math.sqrt(2.0 * k)
        assert res.y_bound <= target
        diag = np.diag(res.gram).real
        for j in range(1, k + 1):
            want = torus_gram_diag_reference(k, model.reduced_q(j),
                                             res.truncation.n_max)
            assert abs(diag[j - 1] - want) <= target, (k, j)
        assert res.n_y & (res.n_y - 1) == 0 and res.n_y >= Y_RULE_FLOOR
        if res.n_y > Y_RULE_FLOOR:
            assert _y_bound(k, res.truncation, res.n_y // 2) > target


def test_gram_y_node_override():
    # Any count the bound certifies would do: 28 y-nodes certify k = 12,
    # mu = 0.37 and 27 do not, and a 28-node product rule agrees with the
    # default Gram within the bound of each.
    model = TorusModel(12, mu=0.37)
    target = THETA_TOL / math.sqrt(24.0)
    default = gram_quadrature(model)
    trunc = default.truncation
    assert _y_bound(12, trunc, 28) <= target < _y_bound(12, trunc, 27)
    assert _y_bound(12, trunc, 40) > default.y_bound
    want = torus_gram_reference(12, 0.37, 28, default.m_x)
    assert max_abs(default.gram - want) <= 2.0 * target


def test_gram_large_k_is_finite():
    k = 200
    diag = np.diag(gram_quadrature(TorusModel(k, mu=0.37)).gram).real
    want = 1.0 / math.sqrt(2.0 * k)
    assert np.isfinite(diag).all()
    assert max_abs(diag - want) <= 1e-8 * want


def test_norm_oracle_matches_closed_form():
    # Dense independent quadrature of the unfolded Gaussian integral.
    for k in (3, 6):
        model = TorusModel(k, mu=0.37)
        want = closed_form_norm(model) ** 2
        for j in (1, k):
            got = torus_norm_reference(k, model.reduced_q(j))
            assert abs(got - want) <= 1e-12 * want


def test_orthonormal_basis():
    model = TorusModel(5, mu=0.37)
    basis = orthonormal_basis(model)
    assert basis.gram_residual() <= 1e-7
    # The basis keeps the quadrature behind its norms, y-rule bound included.
    assert basis.quadrature.y_bound <= THETA_TOL / math.sqrt(10.0)
    assert np.array_equal(basis.norms,
                          np.sqrt(np.diag(basis.quadrature.gram).real))
    want = closed_form_norm(model)
    assert max_abs(basis.norms - want) <= 1e-8 * want
    # Normalized values stay consistent with the raw series.
    z = 0.31 + 0.24j
    vals = basis.values(z)
    for j in range(1, 6):
        direct = theta_eval(model, j, z) / basis.norms[j - 1]
        assert abs(vals[j - 1] - direct) <= 1e-12 * max(1.0, abs(direct))


def test_theta_conjugation_symmetry():
    # Real characteristics give conj(theta_j(-conj(z))) = theta_j(z).
    model = TorusModel(4, mu=0.37)
    for j in (1, 3):
        for z in SAMPLE_POINTS:
            lhs = theta_eval(model, j, (-z.conjugate()))
            rhs = theta_eval(model, j, z)
            assert abs(lhs.conjugate() - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_y_rule_is_cached_read_only_gauss_legendre():
    ys, weights = gauss_legendre_01(64)
    assert gauss_legendre_01(64)[0] is ys
    # The sphere radial rule at k = 125 reads the same cached arrays, and
    # the torus default at k = 3 uses this size.
    assert sphere_quadrature(125).t_nodes is ys
    assert gram_quadrature(TorusModel(3)).n_y == 64
    nodes, gl_weights = np.polynomial.legendre.leggauss(64)
    assert np.array_equal(ys, (nodes + 1.0) / 2.0)
    assert np.array_equal(weights, gl_weights / 2.0)
    assert not ys.flags.writeable and not weights.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        ys[0] = 0.0
