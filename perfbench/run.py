"""Benchmark of the ``lagstate`` CLI: k sweeps, each repetition a fresh process.

Usage (from any directory; the repository root is found from this file):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

A repetition starts a fresh interpreter (``child.py``), as a user starting
``lagstate`` does, so no in-process cache carries over between repetitions.
The child calls ``lagstate.cli.main([..., "--k-min", k, "--k-max", k])``
once per k of the workload, in an order shuffled by the seed, and times each
call.  Repetitions run one at a time, with BLAS threads pinned to 1, until
``--seconds`` have passed; before each, a few children that import the
package and run no row give the ``setup_s`` samples.  Every row is checked against the closed forms in
``oracle.py``; a row fails on a nonzero exit, an exception, error output or
a mismatch, and the failures are reported as ``failed`` out of
``attempted``.

With ``--trace 0`` the last line holds the end-to-end metrics.  With
``--trace 1`` traced and untraced repetitions alternate, and the last line
holds the per-layer metrics of the traced ones (see README.md).  All earlier
lines are a human-readable record: environment, sample counts, failures.
"""

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import oracle
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
TRACE_DIR = os.path.join(HERE, "out")

BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 120
# Time of each child.calibrate() kernel at the reference speed.  Row times are
# reported in seconds at that speed: each row's time is divided by its speed
# factor, the mean kernel time right before and after the row divided by this.
CAL_REF_S = {"jacobi": 0.003, "theta": 0.0115}
# Set-up is an interpreter start plus imports, which the kernels do not track:
# in slow phases of a shared VM the jacobi kernel ran 1.6-1.8 times slower and
# set-up only 1.1-1.2 times.  So each set-up time is divided by the start time
# of a reference interpreter that imports numpy and nothing of lagstate,
# spawned right before it, and multiplied by SETUP_REF_S, the reference's
# time at the reference speed.
SETUP_REF_CODE = "import time, numpy; print(time.monotonic())"
SETUP_REF_S = 0.12
# Children that import the package and run no row, each after a reference
# start, before every repetition; their set-up times are the setup_s samples.
SETUP_PROBES_PER_REP = 3
# The CLI's starting y-node count on the torus (``--quad-radial`` unset).
TORUS_N_Y_START = 16
KNOWN_DEFECT = ("known defect, outside every range here: the sphere Gram "
                "residual breaches its 1e-12 gate from k=259 on, and the "
                "sphere workloads stop at k=120")


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple
    model: str
    submanifold: str
    ks: range
    kernel: str
    why: str

    def argv(self, k):
        return [*self.command, "--k-min", str(k), "--k-max", str(k)]

    def check(self, k, stdout):
        if self.command[0] == "verify":
            return oracle.check_verify(k, stdout)
        return oracle.check_report(self.model, self.submanifold, k, stdout)


WORKLOADS = {w.name: w for w in (
    Workload("sphere-report", ("report", "--model", "sphere"), "sphere",
             "antidiagonal", range(1, 121), "jacobi",
             "Jacobi SVD on near-identity states, one sweep that only checks "
             "pairs; torus idle"),
    Workload("torus-report", ("report", "--model", "torus", "--mu", "0.37"),
             "torus", "antidiagonal", range(3, 25), "theta",
             "torus Gram quadrature takes nearly all the time and sets peak "
             "memory; Jacobi SVD nearly idle"),
    Workload("circle-report", ("report", "--submanifold", "circle"), "sphere",
             "circle", range(1, 81), "jacobi",
             "Jacobi SVD on the graded binomial spectrum, where it rotates "
             "over several sweeps"),
    Workload("sphere-verify", ("verify", "--model", "sphere"), "sphere",
             "antidiagonal", range(1, 121), "jacobi",
             "verify path: 1 SVD and 3 eigh per row, the repeated "
             "factorizations of one state"),
)}

END_TO_END_UNITS = {"sweep_s": "s", "row_ms_p50": "ms", "row_ms_p90": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "linalg.svd.self_s": "s", "linalg.svd.calls": "count",
    "linalg.hermitian_eigen.self_s": "s",
    "linalg.hermitian_eigen.calls": "count",
    "entanglement.factorizations_per_row": "count",
    "entanglement.self_s": "s", "sphere.self_s": "s", "states.self_s": "s",
    "torus.self_s": "s", "cli.self_s": "s",
    "sphere.gram_calls_per_row": "count", "sphere.quad_nodes": "count",
    "torus.gram_quadrature.self_s": "s",
    "torus.gram_quadrature.calls": "count", "torus.y_levels": "count",
    "torus.theta_terms": "count", "torus.peak_array_mb": "MB",
    "traced_sweep_s": "s", "trace_overhead_s": "s",
    "sweep_unscaled_s": "s", "calib_kernel_ms": "ms",
}
# Derived from the provenance of returned states, not measured.
COMPUTED = ("sphere.quad_nodes", "torus.y_levels", "torus.theta_terms",
            "torus.peak_array_mb")


class BenchError(Exception):
    """The benchmark cannot produce a result (missing source, crashed child)."""


def spawn(args, stdin=None):
    """Run a fresh interpreter with ``args``; return the ``time.monotonic``
    at which it was spawned and the last line of its standard output."""
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    env.update(BLAS_ENV)
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, *args], input=stdin,
                              capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no output)"]
        raise BenchError(f"child exited {proc.returncode}: {tail[0]}")
    return spawned, proc.stdout.splitlines()[-1]


def run_child(argvs, trace, kernel):
    spec = json.dumps({"argvs": argvs, "trace": trace, "kernel": kernel})
    spawned, line = spawn([CHILD, SRC], spec)
    result = json.loads(line)
    for row in result["rows"]:
        row["speed"] = row["calib_s"] / CAL_REF_S[kernel]
    result["setup_s"] = result["ready"] - spawned
    return result


def setup_sample(kernel):
    """Set-up time of a child that runs no row, scaled by the reference
    start spawned right before it."""
    spawned, ready = spawn(["-c", SETUP_REF_CODE])
    reference = float(ready) - spawned
    return run_child([], False, kernel)["setup_s"] / reference * SETUP_REF_S


def measure(workload, seed, seconds, trace, max_rows=None):
    """Repetitions until ``seconds`` have passed; in trace mode untraced and
    traced repetitions alternate, starting untraced.  Returns the
    repetitions and the set-up samples."""
    ks = list(workload.ks)[:max_rows]
    rng = random.Random(seed)
    reps, setups = [], []
    start = time.monotonic()
    while len(reps) < 1 + trace or time.monotonic() - start < seconds:
        setups += [setup_sample(workload.kernel)
                   for _ in range(SETUP_PROBES_PER_REP)]
        order = ks[:]
        rng.shuffle(order)
        traced = bool(trace) and len(reps) % 2 == 1
        result = run_child([workload.argv(k) for k in order], traced,
                           workload.kernel)
        result["order"], result["traced"] = order, traced
        reps.append(result)
    return reps, setups


def failures(workload, reps):
    """(k, problems) for every failed row of every repetition."""
    out = []
    for rep in reps:
        for k, row in zip(rep["order"], rep["rows"]):
            problems = (oracle.run_problems(row)
                        or workload.check(k, row["stdout"]))
            if problems:
                out.append((k, problems))
    return out


def row_seconds(rep):
    """Row times of a repetition, scaled to the reference speed."""
    return [row["seconds"] / row["speed"] for row in rep["rows"]]


def sweep_seconds(rep):
    return math.fsum(row_seconds(rep))


def unscaled_sweep_seconds(rep):
    return math.fsum(row["seconds"] for row in rep["rows"])


def end_to_end(reps, setups):
    """Metric name -> (value, sample count) over untraced repetitions."""
    reps = [rep for rep in reps if not rep["traced"]]
    row_ms = [s * 1e3 for rep in reps for s in row_seconds(rep)]
    p90 = (statistics.quantiles(row_ms, n=10, method="inclusive")[8]
           if len(row_ms) > 1 else row_ms[0])
    return {
        "sweep_s": (statistics.median(map(sweep_seconds, reps)), len(reps)),
        "row_ms_p50": (statistics.median(row_ms), len(row_ms)),
        "row_ms_p90": (p90, len(row_ms)),
        "setup_s": (statistics.median(setups), len(setups)),
        "peak_rss_mb": (statistics.median(rep["maxrss_kb"] for rep in reps)
                        * 1024 / 1e6, len(reps)),
    }


def _provenance_counts(provenance):
    counts = {"sphere.quad_nodes": 0, "torus.y_levels": 0,
              "torus.theta_terms": 0, "torus.peak_array_mb": 0.0}
    for p in provenance:
        if p["model"] == "sphere":
            counts["sphere.quad_nodes"] += (p.get("radial_nodes", 1)
                                            * p["angular_nodes"])
            continue
        terms = p["k"] * (2 * p["n_max"] + 1)
        counts["torus.y_levels"] += round(math.log2(p["n_y"] / TORUS_N_Y_START)) + 1
        # Each doubling level evaluates k (2 n_max + 1) theta terms at every
        # node, and the levels 16, 32, ..., n_y sum to 2 n_y - 16 y-nodes.
        counts["torus.theta_terms"] += (p["m_x"] * (2 * p["n_y"] - TORUS_N_Y_START)
                                        * terms)
        # Largest complex128 array of the last level: the theta columns or
        # one exponent table, whichever is wider.
        largest = 16 * p["m_x"] * p["n_y"] * max(p["k"], 2 * p["n_max"] + 1)
        counts["torus.peak_array_mb"] = max(counts["torus.peak_array_mb"],
                                            largest / 1e6)
    return counts


def _layer_metrics(rep):
    rows = len(rep["rows"])
    by_name = tracing.self_times(rep["spans"],
                                 [row["speed"] for row in rep["rows"]])

    def self_s(prefix):
        return math.fsum(s for name, (s, _) in by_name.items()
                         if name.startswith(prefix))

    def calls(name):
        return by_name.get(name, (0.0, 0))[1]

    factorizations = calls("linalg.svd") + calls("linalg.hermitian_eigen")
    return {
        "linalg.svd.self_s": self_s("linalg.svd"),
        "linalg.svd.calls": calls("linalg.svd"),
        "linalg.hermitian_eigen.self_s": self_s("linalg.hermitian_eigen"),
        "linalg.hermitian_eigen.calls": calls("linalg.hermitian_eigen"),
        "entanglement.factorizations_per_row": factorizations / rows,
        "entanglement.self_s": self_s("entanglement."),
        "sphere.self_s": self_s("sphere."),
        "states.self_s": self_s("states."),
        "torus.self_s": self_s("torus."),
        "cli.self_s": self_s("cli."),
        "sphere.gram_calls_per_row": calls("sphere.gram_matrix") / rows,
        "torus.gram_quadrature.self_s": self_s("torus.gram_quadrature"),
        "torus.gram_quadrature.calls": calls("torus.gram_quadrature"),
        "traced_sweep_s": sweep_seconds(rep),
        **_provenance_counts(rep["provenance"]),
    }


def per_layer(reps):
    """Metric name -> (median over traced repetitions, sample count)."""
    traced = [_layer_metrics(rep) for rep in reps if rep["traced"]]
    out = {name: (statistics.median(m[name] for m in traced), len(traced))
           for name in traced[0]}
    untraced = [rep for rep in reps if not rep["traced"]]
    sweep = statistics.median(map(sweep_seconds, untraced))
    out["trace_overhead_s"] = (out["traced_sweep_s"][0] - sweep, len(traced))
    out["sweep_unscaled_s"] = (statistics.median(map(unscaled_sweep_seconds,
                                                     untraced)), len(untraced))
    kernel_ms = [row["calib_s"] * 1e3 for rep in reps for row in rep["rows"]]
    out["calib_kernel_ms"] = (statistics.median(kernel_ms), len(kernel_ms))
    return out


def _cache_sizes():
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        def read(field):
            with open(os.path.join(base, index, field), encoding="ascii") as fh:
                return fh.read().strip()
        try:
            if read("type") != "Instruction":
                sizes["L" + read("level")] = read("size")
        except OSError:
            continue
    return sizes


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unavailable (not a git checkout)"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or "unavailable"


def environment(seed, rep):
    return {
        "python": rep["python"], "numpy": rep["numpy"],
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
        "caches": _cache_sizes(), "blas_threads": BLAS_ENV,
        "load": "one repetition process at a time",
        "git_sha": _git_sha(), "seed": seed,
    }


def write_trace(workload, seed, env, reps):
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"trace-{workload.name}-seed{seed}.json")
    traced = [{"order": rep["order"], "spans": rep["spans"],
               "provenance": rep["provenance"]} for rep in reps if rep["traced"]]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "env": env,
                   "span_fields": ["name", "parent", "start_s", "end_s"],
                   "reps": traced}, fh)
    return path


def report(workload, seed, trace, reps, setups):
    """Print the record of measured repetitions; return (metrics, attempted,
    failed) with metrics as name -> (value, unit)."""
    env = environment(seed, reps[0])
    failed = failures(workload, reps)
    attempted = sum(len(rep["rows"]) for rep in reps)
    print(f"# workload {workload.name}: {workload.why}")
    print(f"# {len(reps[0]['order'])} k values from {workload.ks.start}, shuffled "
          f"by seed; {len(reps)} repetitions, {attempted} rows; "
          f"{len(setups)} set-up samples")
    print("# env " + json.dumps(env, sort_keys=True))
    print("# " + KNOWN_DEFECT)
    speeds = [row["speed"] for rep in reps for row in rep["rows"]]
    wall = statistics.median(map(unscaled_sweep_seconds, reps))
    between = statistics.median(row["calib_s"] for rep in reps
                                for row in rep["rows"])
    probed = statistics.median(rep["probe_s"] for rep in reps)
    print(f"# times in seconds at the reference speed of the "
          f"{workload.kernel} kernel ({CAL_REF_S[workload.kernel] * 1e3:g} ms); "
          f"speed factors {min(speeds):.3f}..{max(speeds):.3f}, unscaled "
          f"median sweep {wall:.4g} s; median kernel {between * 1e3:.4g} ms "
          f"between rows, {probed * 1e3:.4g} ms before the first row")
    if trace:
        print(f"# spans written to {write_trace(workload, seed, env, reps)}")
        values, units = per_layer(reps), PER_LAYER_UNITS
    else:
        values, units = end_to_end(reps, setups), END_TO_END_UNITS
    for name, (value, samples) in values.items():
        label = " (computed from provenance)" if name in COMPUTED else ""
        if name.endswith(".self_s"):
            label = f" ({value / values['traced_sweep_s'][0]:.1%} of traced sweep)"
        print(f"{workload.name:14} {name:38} {value:14.6g} {units[name]:5} "
              f"n={samples}{label}")
    print(f"{workload.name:14} {'fail_frac':38} {len(failed) / attempted:14.6g} "
          f"{'ratio':5} {len(failed)}/{attempted} rows")
    for k, problems in failed[:10]:
        print(f"# FAILED {workload.name} k={k}: {'; '.join(problems)}")
    metrics = {name: (value, units[name]) for name, (value, _) in values.items()}
    return metrics, attempted, len(failed)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lagstate", "cli.py")):
        print(f"error: no lagstate sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            workload = WORKLOADS[name]
            reps, setups = measure(workload, args.seed, args.seconds, args.trace)
            values, n, bad = report(workload, args.seed, args.trace, reps, setups)
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + key: {"value": value, "unit": unit}
                            for key, (value, unit) in values.items()})
            attempted += n
            failed += bad
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
