"""Self-test of the benchmark: oracle, fail counting, smoke and traced runs.

Usage: python3 perfbench/selftest.py      (about ten seconds)

Prints one line per check and exits 1 if any check fails.  The smoke runs
use the first three k values of each workload, so they measure nothing; they
show that every metric is printed with its unit, that the traced run sees
each layer on the workload that stresses it and no torus call on the sphere
workloads, and that the benchmark refuses to run without the sources.
"""

import contextlib
import dataclasses
import io
import json
import math
import os
import shutil
import subprocess
import sys

import oracle
import run

failed_checks = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failed_checks.append(what)


def csv_row(k, d, entropy, distance, gram_residual):
    fields = [k, d, entropy, math.log(d), 0.0, distance, 0.0, gram_residual,
              math.sqrt(d), 0.0]
    return ",".join(oracle.CSV_COLUMNS) + "\n" + ",".join(map(repr, fields)) + "\n"


def perturb_entropy(stdout, delta):
    header, values = stdout.splitlines()
    fields = values.split(",")
    fields[2] = repr(float(fields[2]) + delta)
    return header + "\n" + ",".join(fields) + "\n"


def oracle_checks():
    good = csv_row(3, 4, math.log(4), math.sqrt(3 / 4), 1e-16)
    check(oracle.check_report("sphere", "antidiagonal", 3, good) == [],
          "oracle accepts an exact antidiagonal row")
    check(oracle.check_report("sphere", "antidiagonal", 3,
                              perturb_entropy(good, 1e-6)) != [],
          "oracle rejects an antidiagonal row with entropy off by 1e-6")
    check(oracle.check_report("sphere", "antidiagonal", 4, good) != [],
          "oracle rejects a row for the wrong k")
    circle = csv_row(5, 6, oracle.circle_entropy(5), oracle.circle_distance(5), 0.0)
    check(oracle.check_report("sphere", "circle", 5, circle) == [],
          "oracle accepts the exact circle row")
    check(oracle.check_report("sphere", "circle", 5,
                              perturb_entropy(circle, 1e-8)) != [],
          "oracle rejects a circle row with entropy off by 1e-8")
    check(abs(sum(oracle.circle_spectrum(40)) - 1.0) < 1e-15,
          "circle spectrum sums to one")
    passing = ("PASS distance_vs_entropy k=2: x\n"
               "PASS binomial_square_sum k=2: y\n")
    check(oracle.check_verify(2, passing) == [], "oracle accepts a PASS pair")
    check(oracle.check_verify(2, passing.replace("PASS binomial", "FAIL binomial")) != [],
          "oracle rejects a FAIL line")
    check(oracle.check_verify(2, passing + "PASS extra k=2: z\n") != [],
          "oracle rejects a wrong line count")


def perturbed_row_is_counted():
    workload = run.WORKLOADS["sphere-report"]
    reps, setups = run.measure(workload, seed=3, seconds=0, trace=0, max_rows=3)
    row = reps[0]["rows"][1]
    row["stdout"] = perturb_entropy(row["stdout"], 1e-6)
    with contextlib.redirect_stdout(io.StringIO()) as record:
        _, attempted, failed = run.report(workload, 3, 0, reps, setups)
    check(attempted == 3 and failed == 1,
          f"a perturbed entropy counts in fail_frac ({failed}/{attempted})")
    check(any(" fail_frac " in line and line.endswith(" 1/3 rows")
              for line in record.getvalue().splitlines()),
          "the record prints fail_frac with its base")


ARGS = ["--seed", "7", "--seconds", "0.5"]


def smoke(name, trace):
    """``run.main`` in this process, on the first three k values of one
    workload; returns the exit code and the printed record."""
    workload = run.WORKLOADS[name]
    run.WORKLOADS[name] = dataclasses.replace(workload, ks=workload.ks[:3])
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            rc = run.main(["--workload", name, *ARGS, "--trace", str(trace)])
    finally:
        run.WORKLOADS[name] = workload
    return rc, out.getvalue()


def smoke_runs(spec):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        for name in run.WORKLOADS:
            rc, record = smoke(name, trace)
            result = json.loads(record.splitlines()[-1])
            metrics = result["metrics"]
            check(rc == 0 and result["correct"]
                  and result["failed"] == 0 and result["attempted"] >= 3,
                  f"{name} trace={trace} smoke run is correct")
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"]
                  and {k: v["unit"] for k, v in metrics.items()} == declared,
                  f"{name} trace={trace} reports every {section} metric with its unit")
            check(all(f" {metric} " in record for metric in declared),
                  f"{name} trace={trace} record names every metric")
            if trace:
                layer_checks(name, {k: v["value"] for k, v in metrics.items()})


def layer_checks(name, m):
    svd, eigh = m["linalg.svd.calls"], m["linalg.hermitian_eigen.calls"]
    if name == "torus-report":
        check(m["torus.gram_quadrature.calls"] == 3 and m["torus.theta_terms"] > 0
              and m["torus.y_levels"] >= 6,
              f"{name}: traced torus quadrature on every row")
    else:
        check(m["torus.gram_quadrature.calls"] == 0 and m["torus.self_s"] == 0
              and m["torus.theta_terms"] == 0,
              f"{name}: no torus call on a sphere workload")
        check(m["sphere.gram_calls_per_row"] == 1 and m["sphere.quad_nodes"] > 0
              and m["sphere.self_s"] > 0,
              f"{name}: one sphere Gram per row")
    check(svd == 3 and m["linalg.svd.self_s"] > 0, f"{name}: one SVD per row")
    per_row = 4 if name == "sphere-verify" else 2
    check(m["entanglement.factorizations_per_row"] == per_row
          and eigh == (per_row - 1) * svd,
          f"{name}: {per_row - 1} eigh per row")
    check(m["cli.self_s"] > 0 and m["states.self_s"] > 0
          and m["entanglement.self_s"] > 0, f"{name}: layer self times recorded")


def bare_directory(spec):
    """The benchmark must fail, without a result, when the sources are absent."""
    bare = os.path.join(run.TRACE_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(run.ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, os.path.join(bare, spec["command"][1]),
         "--workload", "sphere-report", *ARGS, "--trace", "0"],
        capture_output=True, text=True, cwd=bare, timeout=170)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          f"refuses to run without sources (exit {proc.returncode})")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check({w["name"]: w["why"] for w in spec["workloads"]}
          == {w.name: w.why for w in run.WORKLOADS.values()},
          "BENCHMARK.json lists the workloads of run.py")
    oracle_checks()
    perturbed_row_is_counted()
    smoke_runs(spec)
    bare_directory(spec)
    print(f"{len(failed_checks)} checks failed")
    return 1 if failed_checks else 0


if __name__ == "__main__":
    sys.exit(main())
