"""One repetition of a workload in a fresh interpreter.

Usage: python3 child.py SRC_DIR < spec.json

SRC_DIR is the directory holding the ``lagstate`` package.  The spec on
stdin is ``{"argvs": [[...], ...], "trace": bool, "kernel": name}``: one
``lagstate`` argv per row, run in the given order through
``lagstate.cli.main`` in this process.  The calibration kernel is warmed
up and probed before the first row, and warmed up and timed after every
row.  An empty
``argvs`` measures set-up only.  Prints one JSON object on stdout with the
time at which the package was imported and ready (``time.monotonic``, which
is shared by all processes of the machine), the probe's kernel time, the
per-row call times, kernel times and captured output, the peak resident set
size, and, when tracing, the spans of every row.
"""

import contextlib
import functools
import io
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

SRC = os.path.abspath(sys.argv[1])
sys.path.insert(0, SRC)

import lagstate.cli  # noqa: E402  (import time is what setup_s measures)
import numpy  # noqa: E402

READY = time.monotonic()

import tracing  # noqa: E402

CAL_MATRIX = numpy.eye(32, dtype=complex)
CAL_VECTOR = 1j * numpy.linspace(0.0, 1.0, 4096)
CAL_TERMS = numpy.arange(-2, 3)[:, None] + 0.3
CAL_NODES = numpy.linspace(0.0, 1.0, 24000)[None, :]
# The kernels write into preallocated arrays and allocate none, so the
# allocator state that a row leaves behind does not change their time.
CAL_VECTOR_OUT = numpy.empty_like(CAL_VECTOR)
CAL_SAMPLES = 5


@functools.cache
def theta_arrays():
    """Exponent and output of the ``theta`` kernel, built on its first
    (warm-up) call, so that other workloads do not carry their 4 MB."""
    exponent = (-math.pi * 12 * CAL_TERMS * CAL_TERMS
                - 2 * math.pi * 12 * CAL_TERMS * CAL_NODES
                + 2j * math.pi * 12 * CAL_TERMS * CAL_NODES[:, ::-1])
    return exponent, numpy.empty_like(exponent)


def calibrate(kernel):
    """Time a fixed piece of work that does not use ``lagstate``.

    On a shared machine the speed of the CPU drifts by tens of percent over
    seconds, and CPU time drifts with it.  The parent divides each row's
    time by the kernel's time around the row to scale it to a reference
    speed.  Different work drifts by different amounts, so each workload
    names the kernel that resembles its dominant work: ``jacobi``, a Python
    loop over small numpy calls as in the Jacobi pair loop, or ``theta``, an
    elementwise complex exp over an array of about 2 MB as in the theta
    columns.
    """
    t0 = time.perf_counter()
    if kernel == "jacobi":
        for p in range(31):
            for q in range(p + 1, 32):
                complex(numpy.vdot(CAL_MATRIX[:, p], CAL_MATRIX[:, q]))
        for _ in range(16):
            float(numpy.exp(CAL_VECTOR, out=CAL_VECTOR_OUT).real.sum())
    else:
        exponent, out = theta_arrays()
        for _ in range(2):
            float(numpy.exp(exponent, out=out).real.sum())
    return time.perf_counter() - t0


def probe(kernel):
    """Median kernel time over ``CAL_SAMPLES`` calls."""
    return statistics.median(calibrate(kernel) for _ in range(CAL_SAMPLES))


def run_row(argv):
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = lagstate.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        rc = None
        error = traceback.format_exc()
    seconds = time.perf_counter() - t0
    return {"seconds": seconds, "rc": rc, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "error": error}


def main():
    if not os.path.dirname(os.path.abspath(lagstate.cli.__file__)).startswith(SRC):
        sys.exit(f"lagstate imported from {lagstate.cli.__file__}, not {SRC}")
    spec = json.load(sys.stdin)
    tracer = tracing.Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()
    calibrate(spec["kernel"])  # warm-up: the first call finds cold caches
    before = probe_s = probe(spec["kernel"])
    rows = []
    for argv in spec["argvs"]:
        with tracer.root("cli.main") if tracer else contextlib.nullcontext():
            row = run_row(argv)
        calibrate(spec["kernel"])  # refills what the row evicted
        after = calibrate(spec["kernel"])
        row["calib_s"] = (before + after) / 2
        rows.append(row)
        before = after
    result = {
        "ready": READY,
        "probe_s": probe_s,
        "rows": rows,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["provenance"] = tracer.provenance
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
