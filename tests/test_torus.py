import functools
import math

import numpy as np
import pytest

from conftest import (gauss_legendre_01_defects, gaussian_weight,
                      theta_reference, torus_gram_diag_reference,
                      torus_gram_reference, torus_norm_reference)
from lagstate import torus
from lagstate.cli import DEFAULT_TOL_GRAM
from lagstate.linalg import (RULE_FLOOR, gauss_legendre_01, identity_defect,
                             max_abs)
from lagstate.sphere import sphere_quadrature
from lagstate.torus import (THETA_TOL, TorusModel, _y_bound, closed_form_norm,
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
        n_max, tail_bound = theta_truncation(TorusModel(k))
        assert tail_bound <= THETA_TOL == 1e-12
        assert n_max >= 1


def test_truncation_errors():
    with pytest.raises(ValueError, match="not reachable"):
        theta_truncation(TorusModel(3), y_max=80.0)


@pytest.mark.parametrize("y_max", [-5.0, math.inf, math.nan])
def test_truncation_rejects_bad_y_max(y_max):
    # A negative strip certifies nothing, and a non-finite one has no cutoff.
    with pytest.raises(ValueError, match="y_max must be finite and non-negative"):
        theta_truncation(TorusModel(3), y_max=y_max)


def test_theta_functions_take_no_tolerance():
    # The series is certified at THETA_TOL, so no function takes another.
    model = TorusModel(3)
    with pytest.raises(TypeError):
        theta_truncation(model, 1e-15)
    with pytest.raises(TypeError, match="tol"):
        theta_eval(model, 1, 0.1j, tol=1e-13)


def test_theta_matches_direct_series():
    # Oracle: direct sum over a wide index window with the unreduced
    # characteristic q = (mu + j)/k.
    for k, mu in ((3, 0.0), (5, 0.37), (4, -1.2)):
        model = TorusModel(k, mu=mu)
        for j in (1, k):
            for z in SAMPLE_POINTS:
                got = theta_eval(model, j, z)
                want = theta_reference(k, mu, j, z, n_max=12)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_theta_eval_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        theta_eval(TorusModel(3), 1, complex(math.nan, 0.0))


@pytest.mark.parametrize("k,z", [(12, 0.3 + 4.4j), (60, 0.3 + 3j)])
def test_theta_overflow_is_an_error(k, z):
    # Past k (Im z)^2 of about 226 the series leaves the float range; the
    # pytest setting turns any RuntimeWarning on the way into a failure.
    model = TorusModel(k)
    with pytest.raises(ValueError, match=f"k = {k}, Im z = {z.imag:g}"):
        theta_eval(model, 1, z)
    with pytest.raises(ValueError, match="overflows"):
        orthonormal_basis(model, z)


def test_theta_large_but_finite_value():
    value = theta_eval(TorusModel(12), 1, 0.3 + 3.5j)
    assert math.isfinite(value.real) and math.isfinite(value.imag)
    assert abs(value.real - 4.24e197) <= 1e-2 * 4.24e197


def test_theta_eval_rejects_index_out_of_range():
    model = TorusModel(4, mu=0.37)
    for j in (0, -1, 5):
        with pytest.raises(ValueError, match=r"out of range 1\.\.4"):
            theta_eval(model, j, 0.3 + 0.1j)


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


@pytest.mark.parametrize("m,n", [(1.5, 0), (0, 1.5), (1.0, 0)])
def test_quasi_periodicity_shift_is_a_lattice_point(m, n):
    # Only a lattice shift m + i n has a multiplier; the integers are taken
    # as the models take k, so an integral float is refused too.
    with pytest.raises(TypeError):
        quasi_periodicity_factor(TorusModel(3), 0.3 + 0.1j, m, n)


def test_quasi_periodicity_factor_overflow_is_a_value_error():
    # The multiplier's modulus is exp(pi k n (n + 2 Im z)): exp(10000 pi) at
    # k = 100, n = 10, where exp(100 pi) at n = 1 is still a float.
    with pytest.raises(ValueError, match=r"^quasi-periodicity multiplier overflows "
                                         r"at k = 100, n = 10, Im z = 0$"):
        quasi_periodicity_factor(TorusModel(100), 0.3, 0, 10)
    assert math.isfinite(abs(quasi_periodicity_factor(TorusModel(100), 0.3, 0, 1)))


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
        gram, _ = gram_quadrature(model)
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
    d0 = np.diag(gram_quadrature(TorusModel(5, mu=0.0))[0]).real
    d1 = np.diag(gram_quadrature(TorusModel(5, mu=0.37))[0]).real
    assert max_abs(np.sort(d0) - np.sort(d1)) <= 1e-9


@pytest.mark.parametrize("mu", [0.0, 0.37, -1.2])
@pytest.mark.parametrize("k", range(3, 9))
def test_gram_matches_product_rule_oracle(k, mu):
    # The x-rule is applied in closed form; the full 2-D product rule at the
    # same resolution must agree, and off-diagonal entries are exact zeros.
    gram, res = gram_quadrature(TorusModel(k, mu=mu))
    m_x = 2 * k * (2 * res["n_max"] + 1)
    assert res["m_x"] == m_x
    want = torus_gram_reference(k, mu, res["n_y"], m_x)
    assert max_abs(gram - want) <= 1e-13 * max_abs(want)
    assert not (gram - np.diag(np.diag(gram))).any()


def test_gram_y_levels():
    # One y-level per Gram, sized in advance by the Bernstein-ellipse bound.
    for k, n_y in ((3, 64), (12, 64), (24, 64), (60, 64), (74, 64), (75, 128),
                   (200, 128), (1000, 256)):
        _, res = gram_quadrature(TorusModel(k, mu=0.37))
        assert res["n_y"] == n_y, k
        assert res["y_bound"] <= THETA_TOL / math.sqrt(2.0 * k)


@pytest.mark.parametrize("mu", [0.0, 0.37, -1.2])
def test_gram_diag_matches_erf_closed_form(mu):
    # The certified y-rule reaches the exact integral of the truncated
    # n-sum, and above the floor its node count is the smallest power of two
    # the bound certifies: at half of it the bound misses the target.
    for k in range(3, 201):
        model = TorusModel(k, mu=mu)
        gram, res = gram_quadrature(model)
        n_max, n_y = res["n_max"], res["n_y"]
        target = THETA_TOL / math.sqrt(2.0 * k)
        assert res["y_bound"] <= target
        diag = np.diag(gram).real
        for j in range(1, k + 1):
            want = torus_gram_diag_reference(k, model.reduced_q(j), n_max)
            assert abs(diag[j - 1] - want) <= target, (k, j)
        assert n_y & (n_y - 1) == 0 and n_y >= RULE_FLOOR
        if n_y > RULE_FLOOR:
            assert _y_bound(k, n_max, n_y // 2) > target


def test_gram_y_node_override():
    # Any count the bound certifies would do: 28 y-nodes certify k = 12,
    # mu = 0.37 and 27 do not, and a 28-node product rule agrees with the
    # default Gram within the bound of each.
    model = TorusModel(12, mu=0.37)
    target = THETA_TOL / math.sqrt(24.0)
    gram, default = gram_quadrature(model)
    n_max = default["n_max"]
    assert _y_bound(12, n_max, 28) <= target < _y_bound(12, n_max, 27)
    assert _y_bound(12, n_max, 40) > default["y_bound"]
    want = torus_gram_reference(12, 0.37, 28, default["m_x"])
    assert max_abs(gram - want) <= 2.0 * target


def test_gram_large_k_is_finite():
    k = 200
    diag = np.diag(gram_quadrature(TorusModel(k, mu=0.37))[0]).real
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
    quad_gram, quad = gram_quadrature(model)
    gram, normalized, _ = model.antidiagonal_gram()
    assert np.array_equal(gram, quad_gram)
    assert identity_defect(normalized) <= 1e-7
    # The model's Gram quadrature checks the basis norms, y-rule bound
    # included, and the quadrature norms agree with the closed form.
    assert quad["y_bound"] <= THETA_TOL / math.sqrt(10.0)
    want = closed_form_norm(model)
    assert want == 10.0 ** -0.25
    assert max_abs(np.sqrt(np.diag(quad_gram).real) - want) <= 1e-8 * want
    # Normalized values are the raw series over the closed-form norm.
    z = 0.31 + 0.24j
    vals = orthonormal_basis(model, z)
    for j in range(1, 6):
        direct = theta_eval(model, j, z) / want
        assert abs(vals[j - 1] - direct) <= 1e-12 * max(1.0, abs(direct))


def test_point_evaluation_runs_no_gram_quadrature(monkeypatch):
    # The basis only evaluates: its values are the theta series over the
    # closed-form norm, and the Gram is computed by the model alone.
    def no_gram(model):
        raise AssertionError("point evaluation ran the Gram quadrature")

    monkeypatch.setattr(torus, "gram_quadrature", no_gram)
    model = TorusModel(5, mu=0.37)
    z = 0.31 + 0.24j
    thetas = np.array([theta_eval(model, j, z) for j in range(1, 6)])
    assert np.array_equal(orthonormal_basis(model, z),
                          thetas / closed_form_norm(model))
    with pytest.raises(AssertionError, match="Gram quadrature"):
        model.antidiagonal_gram()


def _closed_form_certificate(k, res, node_error, weight_error):
    """Bound on max_j |G_jj sqrt(2k) - 1|, derived in CHANGES.md.

    G_jj integrates F(y) = sum_{|n| <= N} g(y + n + q), g(x) =
    exp(-2 pi k x^2), whose untruncated integral is 1/sqrt(2k).  Relative
    to it: the y-rule error (y_bound), the dropped series terms (each below
    the square of a theta term in the strip |Im z| <= 1, so below
    tail_bound^2 in sum), the computed rule's weight and node errors
    (times sup F and sup |F'|), rounding of the shifts y + n + q, and
    rounding in the exponentials, both sums and the final scaling.
    """
    u = 2.0 ** -53
    n_max, r = res["n_max"], math.sqrt(2.0 * k)
    # Besides the nearest one, the points y + n + q lie at distances of at
    # least 1/2, 3/2, ... on each side of 0, where g and |g'| decrease.
    far = np.arange(12) + 0.5
    g_far = np.exp(-2.0 * math.pi * k * far ** 2)
    sup_f = 1.0 + 2.0 * g_far.sum()
    sup_df = (2.0 * math.sqrt(math.pi * k / math.e)
              + 2.0 * (4.0 * math.pi * k * far * g_far).sum())
    shift_error = node_error + (2 * n_max + 6) * u
    roundoff = (r * (sup_f * weight_error + sup_df * shift_error)
                + (2 * n_max + res["n_y"] + 6) * u)
    return r * res["y_bound"] + r * res["tail_bound"] ** 2 + roundoff


@functools.cache
def _rule_defects(n):
    return gauss_legendre_01_defects(*gauss_legendre_01(n)[:2])


@pytest.mark.parametrize("mu", [0.0, 0.37])
def test_gram_residual_is_closed_form_defect_within_certificate(mu):
    pytest.importorskip("mpmath")
    for k in range(3, 201):
        model = TorusModel(k, mu=mu)
        gram, res = gram_quadrature(model)
        residual = identity_defect(model.antidiagonal_gram()[1])
        diag = np.diag(gram).real
        assert residual == max_abs(diag * math.sqrt(2.0 * k) - 1.0)
        # The residual measures the quadrature, so it is nonzero at every
        # row but k = 4, mu = 0, where every diagonal entry rounds to the
        # closed form.
        assert residual > 0.0 or (k, mu) == (4, 0.0), (k, mu)
        assert math.sqrt(2.0 * k) * res["y_bound"] <= THETA_TOL
        bound = _closed_form_certificate(k, res, *_rule_defects(res["n_y"]))
        assert residual <= bound < DEFAULT_TOL_GRAM["torus"], (k, residual, bound)


def test_theta_conjugation_symmetry():
    # Real characteristics give conj(theta_j(-conj(z))) = theta_j(z).
    model = TorusModel(4, mu=0.37)
    for j in (1, 3):
        for z in SAMPLE_POINTS:
            lhs = theta_eval(model, j, (-z.conjugate()))
            rhs = theta_eval(model, j, z)
            assert abs(lhs.conjugate() - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_y_rule_is_cached_read_only_gauss_legendre():
    ys, weights, _, _ = gauss_legendre_01(64)
    assert gauss_legendre_01(64)[0] is ys
    # The sphere radial rule at k = 125 reads the same cached arrays, and
    # the torus default at k = 3 uses this size.
    assert sphere_quadrature(125)[0] is ys
    assert gram_quadrature(TorusModel(3))[1]["n_y"] == 64
    assert not ys.flags.writeable and not weights.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        ys[0] = 0.0
    # Errors against 30-digit Legendre roots, within the bounds derived in
    # CHANGES.md: the largest node error is at most 5.6u (first order, worst
    # case), and the weight errors sum to at most 14u + 4.4 sqrt(n) u (the
    # rounding of the weight formula, plus twice the rms of the recurrence
    # roundoff under independent roundings), 49u and 64u at n = 64 and 128.
    # At n = 512 the check reads both end blocks of 16 nodes and every 8th
    # node, and the same derivation summed over those 92 nodes gives 24u.
    # numpy's companion-matrix rule sums to 79u, 184u and 340u on these.
    pytest.importorskip("mpmath")
    u = 2.0**-53
    for n, weight_bound in ((64, 49.0), (128, 64.0), (512, 24.0)):
        rule = gauss_legendre_01(n)
        idx = np.arange(n)
        if n == 512:
            idx = idx[(idx < 16) | (idx >= n - 16) | (idx % 8 == 0)]
        node_error, weight_error = gauss_legendre_01_defects(
            rule.nodes[idx], rule.weights[idx], n)
        assert node_error <= 5.6 * u, (n, node_error / u)
        assert weight_error <= weight_bound * u, (n, weight_error / u)
