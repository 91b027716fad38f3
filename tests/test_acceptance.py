"""Acceptance gate: one test per shipped criterion, at the stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion (add ``-s`` to also see the summary prints).
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import (beta_monomial_norm, circle_diag_coefficient,
                      circle_spectrum_exact, parse_csv, random_state, random_unitary,
                      random_unit_vector, separable_distance_minimized)
from lagstate.cli import RunConfig, main, render_csv, run
from lagstate.entanglement import analyze, closest_separable, entropy, schmidt
from lagstate.linalg import frobenius_distance, max_abs
from lagstate.sphere import (SphereModel, gram_residual, monomial_gram,
                             sphere_quadrature)
from lagstate.states import (antidiagonal_state, circle_entropy_closed_form,
                             circle_state_quadrature, coherent_vector,
                             section_frame_value)
from lagstate.torus import (TorusModel, closed_form_norm, gram_quadrature,
                            quasi_periodicity_factor, theta_eval)

TOL_SPHERE_ENTROPY = 1e-9
TOL_TORUS_ENTROPY = 1e-6
TOL_DISTANCE = 1e-9
TOL_CIRCLE_COEFF = 1e-12
TOL_CIRCLE_ENTROPY = 1e-10
TOL_ORACLE = 1e-6
TOL_TRIPLE = 1e-12
TOL_REPRODUCING = 1e-10
TOL_FRAME = 1e-14
TOL_SPHERE_GRAM = 1e-12
TOL_TORUS_GRAM = 1e-8
TOL_MONOMIAL = 1e-12
TOL_RECONSTRUCT = 1e-10
TOL_SPECTRUM_SUM = 1e-12
TOL_UNITARY = 1e-10

LIMIT_SPHERE_SWEEP_S = 10.0
LIMIT_TORUS_SWEEP_S = 60.0
LIMIT_ORACLE_S = 30.0


def _finish(name: str, detail: str, failures: list[str]) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"[acceptance] {name}: {status} - {detail}")
    assert not failures, f"{name}: " + "; ".join(failures[:8])


@pytest.fixture(scope="module")
def sphere_sweep():
    t0 = time.perf_counter()
    rows = run(RunConfig(model="sphere", k_min=1, k_max=40))
    return rows, time.perf_counter() - t0


@pytest.fixture(scope="module")
def torus_sweeps():
    t0 = time.perf_counter()
    sweeps = {mu: run(RunConfig(model="torus", k_min=3, k_max=12, mu=mu))
              for mu in (0.0, 0.37)}
    return sweeps, time.perf_counter() - t0


def test_c1_sphere_antidiagonal_entropy(sphere_sweep):
    rows, elapsed = sphere_sweep
    failures = []
    for row in rows:
        if row.entropy_residual > TOL_SPHERE_ENTROPY:
            failures.append(f"k={row.k}: |entropy - ln(k+1)| = "
                            f"{row.entropy_residual:.3e}")
    if elapsed >= LIMIT_SPHERE_SWEEP_S:
        failures.append(f"sweep took {elapsed:.1f}s >= {LIMIT_SPHERE_SWEEP_S}s")
    worst = max(row.entropy_residual for row in rows)
    _finish("C1 sphere entropy k=1..40",
            f"worst residual {worst:.3e}, {elapsed:.2f}s", failures)


def test_c2_torus_antidiagonal_entropy(torus_sweeps):
    sweeps, elapsed = torus_sweeps
    failures = []
    worst = 0.0
    for mu, rows in sweeps.items():
        for row in rows:
            worst = max(worst, row.entropy_residual)
            if row.entropy_residual > TOL_TORUS_ENTROPY:
                failures.append(f"mu={mu}, k={row.k}: |entropy - ln k| = "
                                f"{row.entropy_residual:.3e}")
    if elapsed >= LIMIT_TORUS_SWEEP_S:
        failures.append(f"sweep took {elapsed:.1f}s >= {LIMIT_TORUS_SWEEP_S}s")
    _finish("C2 torus entropy k=3..12, mu in {0, 0.37}",
            f"worst residual {worst:.3e}, {elapsed:.2f}s", failures)


def test_c3_separable_distance_identities(sphere_sweep, torus_sweeps):
    rows = list(sphere_sweep[0])
    for sweep in torus_sweeps[0].values():
        rows.extend(sweep)
    failures = []
    worst = 0.0
    for row in rows:
        d = row.d_k
        closed = math.sqrt((d - 1.0) / d)
        gap_closed = abs(row.separable_distance - closed)
        gap_entropy = abs(row.separable_distance - row.corollary_rhs)
        worst = max(worst, gap_closed, gap_entropy)
        if gap_closed > TOL_DISTANCE:
            failures.append(f"d={d}: |D - sqrt((d-1)/d)| = {gap_closed:.3e}")
        if gap_entropy > TOL_DISTANCE:
            failures.append(f"d={d}: |D - sqrt(1-e^-nu)| = {gap_entropy:.3e}")
    _finish("C3 distance identities on maximal states",
            f"{len(rows)} states, worst gap {worst:.3e}", failures)


def test_c4_circle_state_closed_forms():
    failures = []
    worst_coeff = 0.0
    worst_entropy = 0.0
    worst_distance = 0.0
    for k in range(1, 31):
        state = circle_state_quadrature(SphereModel(k))
        off = state.coeffs - np.diag(np.diag(state.coeffs))
        if max_abs(off) > TOL_CIRCLE_COEFF:
            failures.append(f"k={k}: off-diagonal {max_abs(off):.3e}")
        for j in range(k + 1):
            want = circle_diag_coefficient(k, j)
            rel = abs(state.coeffs[j, j].real - want) / want
            worst_coeff = max(worst_coeff, rel)
            if rel > TOL_CIRCLE_COEFF:
                failures.append(f"k={k}, j={j}: diagonal rel error {rel:.3e}")
        nu = entropy(state.normalized())
        gap = abs(nu - circle_entropy_closed_form(k))
        worst_entropy = max(worst_entropy, gap)
        if gap > TOL_CIRCLE_ENTROPY:
            failures.append(f"k={k}: entropy gap {gap:.3e}")
        if k == 1 and abs(nu - math.log(2.0)) > TOL_CIRCLE_ENTROPY:
            failures.append(f"k=1: entropy {nu} != ln 2")
        if k >= 2 and not nu < math.log(k + 1.0):
            failures.append(f"k={k}: entropy {nu} not below ln(k+1)")
        # The distance identity on a non-flat spectrum: D = sqrt(1 - max p_j).
        _, dist = closest_separable(state.normalized())
        gap = abs(dist - math.sqrt(float(1 - max(circle_spectrum_exact(k)))))
        worst_distance = max(worst_distance, gap)
        if gap > TOL_DISTANCE:
            failures.append(f"k={k}: |D - sqrt(1 - max p)| = {gap:.3e}")
    _finish("C4 circle state k=1..30",
            f"worst diag rel {worst_coeff:.3e}, "
            f"worst entropy gap {worst_entropy:.3e}, "
            f"worst distance gap {worst_distance:.3e}", failures)


def test_c5_separable_distance_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    failures = []
    worst = 0.0
    count = 0
    for trial in range(50):
        d = 2 + trial % 5
        c = random_state(rng, d)
        _, dist = closest_separable(c)
        oracle = separable_distance_minimized(c, seed=7000 + trial)
        gap = abs(dist - oracle)
        worst = max(worst, gap)
        count += 1
        if gap > TOL_ORACLE:
            failures.append(f"trial {trial} (d={d}): |svd - oracle| = {gap:.3e}")

    # 10^4 random product vectors never beat the computed minimizer.
    triples = 0
    worst_gap = math.inf
    for _ in range(100):
        d = int(rng.integers(2, 7))
        v = random_state(rng, d)
        _, dist = closest_separable(v)
        for _ in range(100):
            u1 = random_unit_vector(rng, d) * (0.5 + rng.random())
            u2 = random_unit_vector(rng, d)
            gap = frobenius_distance(v, np.outer(u1, u2)) ** 2 - dist ** 2
            worst_gap = min(worst_gap, gap)
            triples += 1
            if gap < -TOL_TRIPLE:
                failures.append(f"d={d}: product vector beats minimum by "
                                f"{-gap:.3e}")
    elapsed = time.perf_counter() - t0
    if elapsed >= LIMIT_ORACLE_S:
        failures.append(f"took {elapsed:.1f}s >= {LIMIT_ORACLE_S}s")
    _finish("C5 distance oracle + minimality",
            f"{count} states worst {worst:.3e}; {triples} triples "
            f"min gap {worst_gap:.3e}; {elapsed:.1f}s", failures)


def test_c6_reproducing_property():
    rng = np.random.default_rng(55)
    failures = []
    worst = 0.0
    for k in range(1, 21):
        model = SphereModel(k)
        for _ in range(10):
            z = complex(rng.normal(), rng.normal())
            alpha = complex(rng.normal(), rng.normal())
            section = random_unit_vector(rng, k + 1)
            u = coherent_vector(model, z, frame_scale=alpha)
            inner = complex((section * u.conj()).sum())
            direct = section_frame_value(model, section, z, frame_scale=alpha)
            gap = abs(inner - direct) / max(1.0, abs(direct))
            worst = max(worst, gap)
            if gap > TOL_REPRODUCING:
                failures.append(f"k={k}, z={z:.3f}: reproducing gap {gap:.3e}")
        phase = complex(math.cos(0.7), math.sin(0.7)) * 1.1
        got = coherent_vector(model, 0.3 - 0.2j, frame_scale=phase)
        want = np.conj(phase) ** k * coherent_vector(model, 0.3 - 0.2j)
        scale = max(1.0, abs(phase) ** k)
        if max_abs(got - want) > TOL_FRAME * scale:
            failures.append(f"k={k}: frame scaling defect "
                            f"{max_abs(got - want) / scale:.3e}")
    _finish("C6 reproducing property k=1..20",
            f"worst relative gap {worst:.3e}", failures)


def test_c7_gram_matrices():
    failures = []
    worst_sphere = 0.0
    for k in range(1, 61):
        res = gram_residual(SphereModel(k))
        worst_sphere = max(worst_sphere, res)
        if res > TOL_SPHERE_GRAM:
            failures.append(f"sphere k={k}: gram residual {res:.3e}")

    worst_monomial = 0.0
    for k in (1, 5, 12, 20, 30):
        gram = monomial_gram(SphereModel(k))
        for j in range(k + 1):
            want = float(beta_monomial_norm(k, j))
            rel = abs(gram[j, j].real - want) / want
            worst_monomial = max(worst_monomial, rel)
            if rel > TOL_MONOMIAL:
                failures.append(f"monomial k={k}, j={j}: rel error {rel:.3e}")

    worst_torus = 0.0
    for k, mu in ((3, 0.0), (7, 0.37), (12, 0.0)):
        gram = gram_quadrature(TorusModel(k, mu=mu)).gram
        off = max_abs(gram - np.diag(np.diag(gram)))
        diag_err = max_abs(np.diag(gram).real
                           - closed_form_norm(TorusModel(k)) ** 2)
        worst_torus = max(worst_torus, off, diag_err)
        if off > TOL_TORUS_GRAM:
            failures.append(f"torus k={k}: off-diagonal {off:.3e}")
        if diag_err > TOL_TORUS_GRAM:
            failures.append(f"torus k={k}: diagonal vs 1/sqrt(2k) {diag_err:.3e}")

    theta_tol = 1e-12
    worst_qp = 0.0
    for k, mu in ((3, 0.0), (8, 0.37)):
        model = TorusModel(k, mu=mu)
        for z in (0.13 + 0.07j, 0.41 + 0.33j, 0.77 + 0.52j):
            base = theta_eval(model, 1, z, tol=theta_tol)
            for m, n in ((1, 0), (0, 1), (-1, 1)):
                shifted = theta_eval(model, 1, z + m + 1j * n, tol=theta_tol)
                factor = quasi_periodicity_factor(model, z, m, n)
                scale = max(abs(shifted), abs(factor * base))
                rel = abs(shifted - factor * base) / scale
                worst_qp = max(worst_qp, rel)
                if rel > 10.0 * theta_tol:
                    failures.append(
                        f"quasi-periodicity k={k}, shift ({m},{n}): {rel:.3e}")
    _finish("C7 Gram and theta structure",
            f"sphere {worst_sphere:.3e}, monomial {worst_monomial:.3e}, "
            f"torus {worst_torus:.3e}, quasi-periodicity {worst_qp:.3e}",
            failures)


def test_c8_decomposition_and_serialization(tmp_path):
    rng = np.random.default_rng(99)
    failures = []
    worst_rec = 0.0
    worst_sum = 0.0
    worst_uni = 0.0
    for d in (2, 3, 5, 8, 13):
        for _ in range(4):
            c = random_state(rng, d)
            dec = schmidt(c)
            rec = max_abs(dec.reconstruct() - c)
            worst_rec = max(worst_rec, rec)
            if rec > TOL_RECONSTRUCT:
                failures.append(f"d={d}: reconstruction {rec:.3e}")
            gap = abs(math.fsum(analyze(c).schmidt_spectrum) - 1.0)
            worst_sum = max(worst_sum, gap)
            if gap > TOL_SPECTRUM_SUM:
                failures.append(f"d={d}: spectrum sum defect {gap:.3e}")
            u = random_unitary(rng, d)
            w = random_unitary(rng, d)
            uni = abs(entropy(u @ c @ w.T) - entropy(c))
            worst_uni = max(worst_uni, uni)
            if uni > TOL_UNITARY:
                failures.append(f"d={d}: unitary invariance {uni:.3e}")

    for k in range(1, 31):
        lhs = sum(math.comb(k, j) ** 2 for j in range(k + 1))
        if lhs != math.comb(2 * k, k):
            failures.append(f"k={k}: sum C(k,j)^2 != C(2k,k)")
        spectrum = [Fraction(math.comb(k, j) ** 2, math.comb(2 * k, k))
                    for j in range(k + 1)]
        if sum(spectrum) != 1:
            failures.append(f"k={k}: exact circle spectrum does not sum to 1")

    config = RunConfig(model="sphere", k_min=1, k_max=8, reproducible=True)
    text = render_csv(run(config))
    if render_csv(parse_csv(text)) != text:
        failures.append("CSV round-trip is not bit-exact")
    if render_csv(run(config)) != text:
        failures.append("reproducible run() is not deterministic")

    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        code = main(["report", "--model", "torus", "--k-min", "3",
                     "--k-max", "6", "--reproducible", "--out", str(path)])
        if code != 0:
            failures.append(f"CLI run exited {code}")
    if paths[0].read_bytes() != paths[1].read_bytes():
        failures.append("CLI reproducible outputs differ")

    _finish("C8 decomposition + serialization",
            f"reconstruct {worst_rec:.3e}, spectrum sum {worst_sum:.3e}, "
            f"unitary {worst_uni:.3e}", failures)


def test_c9_circle_report_at_large_k(capsys):
    # The graded circle spectrum spans about 1e95 at k = 320 and 1e600 at
    # k = 2000, where its smallest weights underflow; the report must still
    # exit 0 (its SVD used to stop after 30 sweeps without converging at
    # k = 320) and its two residuals must stay within this bound, with
    # u = 2^-53 and p_max = C(k,k//2)^2 / C(2k,k) the largest weight:
    #
    # Coefficients.  Each computed diagonal entry 2 pi ((k+1) C(k,j) / 2^k)
    # carries 3u (the integer quotient, fl(2 pi) and the product).  So the
    # exact norm of the computed entries is within 3u of the true raw norm,
    # and the computed raw norm differs from it by rho, measured below in
    # exact rationals (the pairwise summation and the square root, plus u
    # for the measurement).  Normalizing divides once (u): each normalized
    # entry is within 7u + rho relative of sqrt(p_j).
    # gram_residual.  The closed form sqrt(fl(p_j)) is within 1.5u of
    # sqrt(p_j), so the defect is at most sqrt(p_max) (8.5u + rho).
    # entropy_residual.  c c^* of the diagonal state is diagonal, each entry
    # one rounded square, and the eigensolver returns a diagonal matrix's
    # entries unchanged, so each eigenvalue is p_j (1 + e_j) with
    # |e_j| <= 15u + 2 rho.  Perturbing every weight by a relative e moves
    # the entropy by at most e (H + 1), and evaluating the terms adds 4u H
    # (see tests/test_states.py); the closed form adds u (H + 1) + 4u H.
    # In all, |entropy - closed form| <= (24u + 2 rho)(H + 1).
    # Entries below 2^-511 (weights below 2^-1022) may round to zero or lose
    # relative accuracy; they add at most 2^-511 to the defect and below
    # 1e-298 to either entropy.
    u = 2.0**-53
    failures, details = [], []
    for k in (320, 2000):
        code = main(["report", "--submanifold", "circle", "--k-min", str(k),
                     "--k-max", str(k), "--reproducible"])
        out, err = capsys.readouterr()
        if code != 0:
            failures.append(f"k={k}: exit {code}: {err.strip()}")
            continue
        row, = parse_csv(out)
        state = circle_state_quadrature(SphereModel(k))
        exact_sq = sum(Fraction(float(x)) ** 2 for x in np.diag(state.coeffs))
        ratio = float(Fraction(state.raw_norm) ** 2 / exact_sq)
        rho = abs(ratio - 1.0) / 2.0 + u
        sqrt_p_max = math.comb(k, k // 2) / math.isqrt(math.comb(2 * k, k))
        gram_bound = sqrt_p_max * (8.5 * u + rho) + 2.0**-511
        entropy_bound = (24.0 * u + 2.0 * rho) * (row.entropy + 1.0) + 1e-298
        details.append(f"k={k}: entropy_residual {row.entropy_residual:.3e} "
                       f"(<= {entropy_bound:.3e}), gram_residual "
                       f"{row.gram_residual:.3e} (<= {gram_bound:.3e})")
        if row.entropy_residual > entropy_bound:
            failures.append(details[-1])
        if row.gram_residual > gram_bound:
            failures.append(details[-1])
    _finish("C9 circle report k=320, 2000", "; ".join(details), failures)


def test_c10_sphere_report_at_large_k(capsys):
    # The sphere Gram holds the CLI's default 1e-12 at k = 2000, on the
    # 1024-node rule: report exits 0 and its gram_residual is within it.
    k = 2000
    code = main(["report", "--k-min", str(k), "--k-max", str(k),
                 "--reproducible"])
    out, err = capsys.readouterr()
    failures = [f"exit {code}: {err.strip()}"] if code != 0 else []
    row, = parse_csv(out)
    detail = f"k={k}: gram_residual {row.gram_residual:.3e}"
    if not row.gram_residual <= TOL_SPHERE_GRAM:
        failures.append(detail)
    _finish("C10 sphere report k=2000", detail, failures)
