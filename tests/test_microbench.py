"""Per-layer microbenchmark of the Jacobi SVD on the two kinds of state the
CLI sweeps, a near-identity sphere state and the diagonal circle state,
and on a column-graded matrix that makes it rotate.

Timings are recorded by pytest-benchmark (skipped when it is not
installed) and printed in its table; nothing asserts on them.  Compare
two commits with ``--benchmark-autosave`` and ``pytest-benchmark compare``.
"""

import numpy as np
import pytest

pytest.importorskip("pytest_benchmark")

from conftest import column_graded_matrix  # noqa: E402
from lagstate.linalg import svd  # noqa: E402
from lagstate.sphere import SphereModel  # noqa: E402
from lagstate.states import antidiagonal_state, circle_state_quadrature  # noqa: E402


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
