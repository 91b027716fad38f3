"""Per-layer microbenchmark of the Jacobi SVD on the two kinds of state the
CLI sweeps, the antidiagonal sphere state and the circle state, both exactly
diagonal, and on a column-graded matrix that makes it rotate.  ``svd``
computes the singular values only, as the separable distance reads them;
the sphere state is timed once more with the singular vectors read as well.
The whole Schmidt analysis of a row, ``analyze`` with its separable
distance, is timed on both states, which it reads off their diagonals, and
on the sphere state rotated into a dense matrix, which takes the general
path (LAPACK's eigensolver and the Gram tests) that no CLI row reaches.
Two of its parts are timed alone on the sphere state: the eigensolve of
c c^T, Hermitian check included, and the state's ``identity_defect``, the
defect its builder records.  The circle builder is timed on its own.  On
the torus, the model's Gram (one quadrature) is timed apart from a point
evaluation of its orthonormal basis, which computes no Gram.

Timings are recorded by pytest-benchmark (skipped when it is not
installed) and printed in its table; nothing asserts on them.  Compare
two commits with ``--benchmark-autosave`` and ``pytest-benchmark compare``.
"""

import numpy as np
import pytest

pytest.importorskip("pytest_benchmark")

from conftest import column_graded_matrix  # noqa: E402
from lagstate.entanglement import analyze  # noqa: E402
from lagstate.linalg import hermitian_eigen, identity_defect, svd  # noqa: E402
from lagstate.sphere import SphereModel  # noqa: E402
from lagstate.states import antidiagonal_state, circle_state_quadrature  # noqa: E402
from lagstate.torus import TorusModel, orthonormal_basis  # noqa: E402


@pytest.mark.parametrize("kind, k", [("sphere", 120), ("circle", 80),
                                     ("graded", 80)])
def test_svd_microbench(benchmark, kind, k):
    if kind == "graded":
        coeffs = column_graded_matrix(np.random.default_rng(k), k)
    else:
        build = antidiagonal_state if kind == "sphere" else circle_state_quadrature
        coeffs = build(SphereModel(k)).normalized()
    res = benchmark.pedantic(svd, args=(coeffs,), rounds=3, iterations=1)
    if kind == "graded":
        assert res.sweeps >= 1
    else:
        # Every state the CLI builds passes the first Gram test: no rotation.
        assert res.sweeps == 0


def test_svd_vectors_microbench(benchmark):
    coeffs = antidiagonal_state(SphereModel(120)).normalized()

    def svd_with_vectors():
        res = svd(coeffs)
        res.left, res.right
        return res

    res = benchmark.pedantic(svd_with_vectors, rounds=3, iterations=1)
    assert res.sweeps == 0


def _haar_orthogonal(rng, d):
    """Haar-random orthogonal matrix: the QR factor of a Gaussian matrix,
    its column signs fixed by the diagonal of R."""
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(r.diagonal())


@pytest.mark.parametrize("kind, k", [("sphere", 120), ("circle", 80),
                                     ("dense", 120)])
def test_analyze_microbench(benchmark, kind, k):
    build = circle_state_quadrature if kind == "circle" else antidiagonal_state
    coeffs = build(SphereModel(k)).normalized()
    if kind == "dense":
        # The sphere state rotated on both factors: no longer diagonal, so
        # the eigensolve goes to LAPACK and the SVD forms its Gram tests.
        rng = np.random.default_rng(k)
        coeffs = (_haar_orthogonal(rng, k + 1) @ coeffs
                  @ _haar_orthogonal(rng, k + 1).T)

    def analyze_row():
        report = analyze(coeffs)
        report.separable_distance
        return report

    report = benchmark.pedantic(analyze_row, rounds=3, iterations=1)
    assert report.d == k + 1


def test_hermitian_eigen_microbench(benchmark):
    coeffs = antidiagonal_state(SphereModel(120)).normalized()
    h = coeffs @ coeffs.T
    values = benchmark.pedantic(hermitian_eigen, args=(h,), rounds=3,
                                iterations=1)
    assert values.shape == (121,)


def test_identity_defect_microbench(benchmark):
    coeffs = antidiagonal_state(SphereModel(120)).coeffs
    defect = benchmark.pedantic(identity_defect, args=(coeffs,), rounds=3,
                                iterations=1)
    assert 0.0 < defect < 1e-12


def test_circle_state_quadrature_microbench(benchmark):
    model = SphereModel(80)
    state = benchmark.pedantic(circle_state_quadrature, args=(model,),
                               rounds=3, iterations=1)
    assert state.coeffs.shape == (81, 81)


def test_torus_gram_microbench(benchmark):
    model = TorusModel(24, mu=0.37)
    _, normalized, _ = benchmark.pedantic(model.antidiagonal_gram,
                                             rounds=3, iterations=1)
    assert normalized.shape == (24, 24)


def test_torus_basis_values_microbench(benchmark):
    model = TorusModel(24, mu=0.37)

    def point_values():
        return orthonormal_basis(model, 0.3 + 0.2j)

    values = benchmark.pedantic(point_values, rounds=3, iterations=1)
    assert values.shape == (24,)
