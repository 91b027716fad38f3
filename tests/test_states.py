import math

import numpy as np
import pytest

from conftest import (circle_diag_coefficient, circle_entropy_reference,
                      circle_raw_norm, pair_coherent, random_unit_vector)
from lagstate.entanglement import closest_separable, entropy
from lagstate.linalg import identity_defect, max_abs, svd
from lagstate.sphere import (SphereModel, basis_values,
                             weighted_basis_values)
from lagstate.states import (antidiagonal_state, circle_entropy_closed_form,
                             circle_state_closed_form,
                             circle_state_quadrature, coherent_vector,
                             section_frame_value)
from lagstate.torus import (TorusModel, gram_quadrature, orthonormal_basis,
                            theta_eval)

# Every point evaluator of both models, as a function of the point alone.
POINT_EVALUATORS = {
    "theta_eval": lambda z: theta_eval(TorusModel(3), 1, z),
    "TorusBasis.values": lambda z: orthonormal_basis(TorusModel(3)).values(z),
    "basis_values": lambda z: basis_values(SphereModel(3), z),
    "weighted_basis_values": lambda z: weighted_basis_values(SphereModel(3), z),
    "section_frame_value":
        lambda z: section_frame_value(SphereModel(3), np.ones(4), z),
    "coherent_vector": lambda z: coherent_vector(SphereModel(3), z),
}


@pytest.mark.parametrize("z", [math.nan, complex(0.0, math.inf)],
                         ids=["nan", "inf_i"])
@pytest.mark.parametrize("evaluator", POINT_EVALUATORS)
def test_point_evaluators_reject_non_finite_points(evaluator, z):
    with pytest.raises(ValueError, match="evaluation point must be finite"):
        POINT_EVALUATORS[evaluator](z)


def test_coherent_vector_at_origin():
    for k in (1, 3, 8):
        model = SphereModel(k)
        u = coherent_vector(model, 0.0 + 0.0j)
        assert abs(u[0] - math.sqrt(k + 1)) <= 1e-14
        assert max_abs(u[1:]) == 0.0


def test_coherent_vector_frame_scaling():
    # Rescaling the frame by alpha multiplies coefficients by conj(alpha)^k.
    model = SphereModel(2)
    z = 0.4 - 0.7j
    base = coherent_vector(model, z)
    scaled = coherent_vector(model, z, frame_scale=1.0j)
    assert max_abs(scaled - ((-1.0j) ** 2) * base) <= 1e-14

    rng = np.random.default_rng(31)
    for k in (1, 4, 9):
        model = SphereModel(k)
        alpha = complex(rng.normal(), rng.normal())
        got = coherent_vector(model, z, frame_scale=alpha)
        want = np.conj(alpha) ** k * coherent_vector(model, z)
        assert max_abs(got - want) <= 1e-14 * max(1.0, abs(alpha) ** k)


def test_reproducing_property():
    rng = np.random.default_rng(33)
    for k in range(1, 7):
        model = SphereModel(k)
        for _ in range(4):
            z = complex(rng.normal(), rng.normal())
            alpha = complex(rng.normal(), rng.normal())
            section = random_unit_vector(rng, k + 1)
            u = coherent_vector(model, z, frame_scale=alpha)
            inner = complex((section * u.conj()).sum())
            direct = section_frame_value(model, section, z, frame_scale=alpha)
            assert abs(inner - direct) <= 1e-10 * max(1.0, abs(direct))


def test_pair_coherent_is_separable():
    model = SphereModel(4)
    u = coherent_vector(model, 0.3 + 0.1j)
    w = coherent_vector(model, -0.8 + 0.5j)
    state = pair_coherent(u, w)
    assert max_abs(state - np.outer(u, w)) == 0.0
    normalized = state / np.linalg.norm(state.ravel())
    assert entropy(normalized) <= 1e-12
    _, dist = closest_separable(normalized)
    assert dist <= 1e-7

    other = coherent_vector(SphereModel(3), 0.0j)
    with pytest.raises(ValueError, match="different spaces"):
        pair_coherent(u, other)


def test_sphere_antidiagonal_state():
    model = SphereModel(3)
    state = antidiagonal_state(model)
    assert max_abs(state.coeffs - np.eye(4)) <= 1e-12
    assert abs(state.raw_norm - 2.0) <= 1e-12
    nu = entropy(state.normalized())
    assert abs(nu - math.log(4.0)) <= 1e-12
    assert state.provenance["submanifold"] == "antidiagonal"
    assert state.provenance["closed_form_defect"] == max_abs(state.coeffs
                                                             - np.eye(4))


def test_torus_antidiagonal_state():
    state = antidiagonal_state(TorusModel(3))
    assert abs(entropy(state.normalized()) - math.log(3.0)) <= 1e-6
    assert abs(state.raw_norm - math.sqrt(3.0)) <= 1e-6

    shifted = antidiagonal_state(TorusModel(5, mu=0.37))
    plain = antidiagonal_state(TorusModel(5))
    nu_shift = entropy(shifted.normalized())
    assert abs(nu_shift - math.log(5.0)) <= 1e-6
    assert abs(nu_shift - entropy(plain.normalized())) <= 1e-6
    assert shifted.provenance["mu"] == 0.37
    # The resolution is certified, so provenance reports its bounds, and the
    # residual is the quadrature's defect from the closed-form norm.
    basis = orthonormal_basis(TorusModel(5, mu=0.37))
    prov = shifted.provenance
    assert "theta_tol" not in prov
    assert prov["y_bound"] == basis.quadrature.y_bound
    assert prov["tail_bound"] == basis.quadrature.tail_bound
    assert prov["closed_form_defect"] == identity_defect(basis.normalized_gram)


def test_builders_record_the_closed_form_entropy():
    # The entropy each row's entropy_residual is measured against: ln d for
    # the maximally entangled antidiagonal state, the binomial entropy for
    # the circle state.
    for k in range(1, 201):
        state = antidiagonal_state(SphereModel(k))
        assert state.provenance["closed_form_entropy"] == math.log(k + 1)
    for mu in (0.0, 0.37):
        for k in range(3, 61):
            state = antidiagonal_state(TorusModel(k, mu))
            assert state.provenance["closed_form_entropy"] == math.log(k)
    for k in range(1, 401):
        state = circle_state_quadrature(SphereModel(k))
        assert (state.provenance["closed_form_entropy"]
                == circle_entropy_closed_form(k))


@pytest.mark.parametrize("builder", [antidiagonal_state, orthonormal_basis,
                                     gram_quadrature])
def test_torus_builders_take_no_theta_tolerance(builder):
    # The resolution is certified at THETA_TOL, so it is not a parameter.
    with pytest.raises(TypeError, match="theta_tol"):
        builder(TorusModel(3), theta_tol=1e-3)


@pytest.mark.parametrize("model_class", [SphereModel, TorusModel])
def test_models_take_k_as_an_integer(model_class):
    # A numpy integer is an int; a non-integer fails when the model is built.
    model = model_class(np.int64(3))
    assert type(model.k) is int
    assert antidiagonal_state(model).coeffs.shape == (model.dim, model.dim)
    with pytest.raises(TypeError):
        model_class(3.5)


def test_antidiagonal_dispatch_errors():
    # Each model builds its own Gram; anything else has no antidiagonal_gram.
    with pytest.raises(AttributeError, match="antidiagonal_gram"):
        antidiagonal_state(object())


def test_circle_state_raw_coefficients():
    # Independent oracle: exact rational angle integrals of the monomial
    # pairings over |z| = 1.
    for k in (1, 2, 5):
        state = circle_state_quadrature(SphereModel(k))
        off = state.coeffs - np.diag(np.diag(state.coeffs))
        assert max_abs(off) <= 1e-12
        for j in range(k + 1):
            want = circle_diag_coefficient(k, j)
            assert abs(state.coeffs[j, j].real - want) <= 1e-12 * want
        assert abs(state.raw_norm - circle_raw_norm(k)) <= 1e-12 * state.raw_norm


def test_circle_state_k2_values():
    # k = 2 diagonal: pi 2^(1-k) (k+1)!/(j!(k-j)!) = (3 pi/2, 3 pi, 3 pi/2).
    state = circle_state_quadrature(SphereModel(2))
    want = np.diag([1.5 * math.pi, 3.0 * math.pi, 1.5 * math.pi])
    assert max_abs(state.coeffs - want) <= 1e-12
    assert abs(state.raw_norm - math.pi * math.sqrt(13.5)) <= 1e-12


def test_sphere_and_circle_states_are_exactly_diagonal():
    # The angular rule is applied in closed form, so no roundoff is left off
    # the diagonal and the Jacobi SVD stops at its first Gram test.
    for k in range(1, 121):
        model = SphereModel(k)
        for state in (antidiagonal_state(model), circle_state_quadrature(model)):
            c = state.normalized()
            assert np.count_nonzero(c - np.diag(np.diag(c))) == 0
            assert svd(c).sweeps == 0


def test_builders_return_real_coefficients():
    # Every coefficient matrix the CLI builds is real, so the Schmidt
    # analysis runs in real arithmetic all the way to the report.
    from lagstate.entanglement import analyze
    from lagstate.sphere import gram_matrix
    states = [antidiagonal_state(SphereModel(4)),
              antidiagonal_state(TorusModel(4, mu=0.37)),
              circle_state_quadrature(SphereModel(4))]
    for state in states:
        assert state.coeffs.dtype == np.float64
        assert analyze(state.normalized()).schmidt_spectrum.dtype == np.float64
        assert svd(state.normalized()).left.dtype == np.float64
    assert circle_state_closed_form(4).dtype == np.float64
    assert gram_matrix(SphereModel(4)).dtype == np.float64
    assert gram_quadrature(TorusModel(4)).gram.dtype == np.float64


def test_circle_closed_form_matches_quadrature():
    for k in (1, 2, 7, 12):
        state = circle_state_quadrature(SphereModel(k))
        closed = circle_state_closed_form(k)
        defect = max_abs(state.normalized() - closed)
        assert defect <= 1e-12
        assert state.provenance["closed_form_defect"] == defect
        assert abs(np.linalg.norm(closed.ravel()) - 1.0) <= 1e-12


def test_circle_closed_form_examples():
    assert max_abs(circle_state_closed_form(1)
                   - np.diag([1.0, 1.0]) / math.sqrt(2.0)) <= 1e-15
    assert max_abs(circle_state_closed_form(2)
                   - np.diag([1.0, 2.0, 1.0]) / math.sqrt(6.0)) <= 1e-15


def test_circle_entropy():
    assert abs(circle_entropy_closed_form(1) - math.log(2.0)) <= 1e-15
    assert abs(circle_entropy_closed_form(2) - 0.8675632284814612) <= 1e-14
    for k in (1, 2, 5, 9):
        nu = entropy(circle_state_closed_form(k))
        assert abs(nu - circle_entropy_closed_form(k)) <= 1e-10
        assert abs(circle_entropy_closed_form(k)
                   - circle_entropy_reference(k)) <= 1e-13
    # Strictly below the maximal value for k >= 2.
    for k in range(2, 51):
        assert circle_entropy_closed_form(k) < math.log(k + 1.0)


@pytest.mark.parametrize("k", [105, 500, 1500])
def test_circle_entropy_closed_form_against_mpmath(k):
    # With u = 2^-53, each weight p_j = C(k,j)^2 / C(2k,k) is one correctly
    # rounded integer quotient, p(1 + d) with |d| <= u.  That moves the term
    # -p ln p by at most u p (|ln p| + 1), u (H + 1) over all j.  Evaluating
    # the term adds the error of math.log (below 1 ulp, 2u relative) and of
    # the product (u), 3u of itself, and math.fsum rounds the sum once (u):
    # 4u H, as all terms are positive.  The bound is therefore
    # u (H + 1) + 4u H <= 5u (H + 1), about 2.8e-15 at k = 1500.  Weights
    # below 2^-1022 round with an absolute error of at most 2^-1075, and
    # their terms are below 1e-304 in all, far under that bound.
    mpmath = pytest.importorskip("mpmath")
    central = math.comb(2 * k, k)
    with mpmath.workdps(50):
        weights = [mpmath.mpf(math.comb(k, j) ** 2) / central
                   for j in range(k + 1)]
        exact = float(-mpmath.fsum(p * mpmath.log(p) for p in weights))
    bound = 5.0 * 2.0**-53 * (exact + 1.0)
    assert abs(circle_entropy_closed_form(k) - exact) <= bound


def test_circle_entropy_validation():
    # The circle closed forms take the sphere model's k domain and message.
    for closed_form in (circle_entropy_closed_form, circle_state_closed_form):
        with pytest.raises(ValueError, match=r"^sphere model needs k >= 1, got 0$"):
            closed_form(0)
