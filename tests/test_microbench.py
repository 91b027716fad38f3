"""Per-layer microbenchmark of the Jacobi SVD on the two kinds of state the
CLI sweeps: a near-identity sphere state and the graded circle spectrum.

Timings are recorded by pytest-benchmark (skipped when it is not
installed) and printed in its table; nothing asserts on them.  Compare
two commits with ``--benchmark-autosave`` and ``pytest-benchmark compare``.
"""

import pytest

pytest.importorskip("pytest_benchmark")

from lagstate.linalg import svd  # noqa: E402
from lagstate.sphere import SphereModel  # noqa: E402
from lagstate.states import antidiagonal_state, circle_state_quadrature  # noqa: E402


@pytest.mark.parametrize("kind, k", [("sphere", 120), ("circle", 80)])
def test_svd_microbench(benchmark, kind, k):
    build = antidiagonal_state if kind == "sphere" else circle_state_quadrature
    coeffs = build(SphereModel(k)).normalized()
    res = benchmark.pedantic(svd, args=(coeffs,), rounds=3, iterations=1)
    if kind == "sphere":
        # The first Gram test passes: no rotating sweep at all.
        assert res.sweeps == 0
    else:
        assert res.sweeps >= 1
