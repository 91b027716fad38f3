"""Checks of ``lagstate`` CLI output against closed forms computed here.

Nothing in this module imports ``lagstate``: the expected values come from
the paper's identities evaluated independently (``ln d``,
``sqrt((d-1)/d)``, and the circle-state spectrum ``C(k,j)^2 / C(2k,k)`` in
exact integers), and the tolerances are the CLI defaults documented in the
README.  Each check returns the list of problems with one row; an empty list
means the row is correct.
"""

import math

CSV_COLUMNS = ("k", "d_k", "entropy", "ln_d_k", "entropy_residual",
               "separable_distance", "corollary_rhs", "gram_residual",
               "raw_norm", "wall_time_ms")

# CLI defaults: (entropy tolerance, Gram residual tolerance) per model.
DEFAULT_TOLERANCES = {"sphere": (1e-9, 1e-12), "torus": (1e-6, 1e-7)}
DISTANCE_TOL = 1e-9
VERIFY_CHECKS = ("distance_vs_entropy", "binomial_square_sum")


def run_problems(row):
    """Problems visible without parsing: exit code, exception, error text."""
    problems = []
    if row["error"] is not None:
        problems.append("exception: " + row["error"].strip().splitlines()[-1])
    if row["rc"] != 0:
        problems.append(f"exit code {row['rc']}")
    if "Traceback" in row["stdout"] or "Traceback" in row["stderr"]:
        problems.append("traceback in output")
    if row["stderr"].strip():
        problems.append("stderr: " + row["stderr"].strip().splitlines()[0])
    return problems


def parse_report_row(k, stdout):
    lines = stdout.splitlines()
    if len(lines) != 2 or lines[0] != ",".join(CSV_COLUMNS):
        raise ValueError(f"expected the CSV header and one row, got {len(lines)} lines")
    fields = lines[1].split(",")
    if len(fields) != len(CSV_COLUMNS):
        raise ValueError(f"expected {len(CSV_COLUMNS)} fields, got {len(fields)}")
    row = dict(zip(CSV_COLUMNS, map(float, fields)))
    if row["k"] != k:
        raise ValueError(f"row is for k={row['k']:g}, expected k={k}")
    return row


def circle_spectrum(k):
    """Schmidt spectrum of the normalized circle state, from exact integers."""
    total = math.comb(2 * k, k)
    return [math.comb(k, j) ** 2 / total for j in range(k + 1)]


def circle_entropy(k):
    return -math.fsum(p * math.log(p) for p in circle_spectrum(k))


def circle_distance(k):
    """Norm of all Schmidt coefficients but the largest."""
    return math.sqrt(math.fsum(sorted(circle_spectrum(k))[:-1]))


def _compare(problems, what, got, want, tol):
    if not abs(got - want) <= tol:
        problems.append(f"{what} {got!r} differs from {want!r} by more than {tol:g}")


def check_report(model, submanifold, k, stdout):
    try:
        row = parse_report_row(k, stdout)
    except ValueError as exc:
        return [f"unparsable report: {exc}"]
    tol_entropy, tol_gram = DEFAULT_TOLERANCES[model]
    d = k + 1 if model == "sphere" else k
    problems = []
    if row["d_k"] != d:
        problems.append(f"d_k {row['d_k']:g}, expected {d}")
    if submanifold == "circle":
        _compare(problems, "entropy", row["entropy"], circle_entropy(k), tol_entropy)
        _compare(problems, "separable_distance", row["separable_distance"],
                 circle_distance(k), DISTANCE_TOL)
    else:
        _compare(problems, "entropy", row["entropy"], math.log(d), tol_entropy)
        _compare(problems, "separable_distance", row["separable_distance"],
                 math.sqrt((d - 1) / d), DISTANCE_TOL)
    if not row["gram_residual"] <= tol_gram:
        problems.append(f"gram_residual {row['gram_residual']!r} exceeds {tol_gram:g}")
    return problems


def check_verify(k, stdout):
    lines = stdout.splitlines()
    if len(lines) != len(VERIFY_CHECKS):
        return [f"expected {len(VERIFY_CHECKS)} verify lines, got {len(lines)}"]
    return [f"line {line!r} is not a PASS of {name} at k={k}"
            for name, line in zip(VERIFY_CHECKS, lines)
            if not line.startswith(f"PASS {name} k={k}:")]
