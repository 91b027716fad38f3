"""Spans around the calls into each ``lagstate`` layer, recorded from outside.

A function is wrapped at the name where its caller looks it up: ``from
.linalg import svd`` gives ``lagstate.entanglement`` its own binding of
``svd``, so patching ``lagstate.linalg.svd`` alone would record nothing.
Every binding listed in ``TARGETS`` is replaced by a wrapper that appends a
span ``[name, parent_index, start, end]`` to an in-memory list; the span name
is the defining module and function (``linalg.svd``), and its first
component is the layer.  The builders of states also keep the
``provenance`` of the state they return, from which the computed counts are
derived.
"""

import contextlib
import importlib
import time

# (module that holds the binding, attribute name).  These are the calls that
# cross from one module into another on the report and verify paths.
TARGETS = (
    ("lagstate.entanglement", "svd"),
    ("lagstate.entanglement", "hermitian_eigen"),
    ("lagstate.entanglement", "entropy"),
    ("lagstate.entanglement", "closest_separable"),
    ("lagstate.entanglement", "is_maximally_entangled"),
    ("lagstate.entanglement", "corollary_distance_identity"),
    ("lagstate.states", "antidiagonal_state"),
    ("lagstate.states", "circle_state_quadrature"),
    ("lagstate.states", "circle_state_closed_form"),
    ("lagstate.states", "circle_entropy_closed_form"),
    ("lagstate.states", "gram_matrix"),
    ("lagstate.states", "sphere_quadrature"),
    ("lagstate.states", "phase_average"),
    ("lagstate.sphere", "sphere_quadrature"),
    ("lagstate.sphere", "gram_residual"),
    ("lagstate.sphere", "gram_matrix"),
    ("lagstate.torus", "orthonormal_basis"),
    ("lagstate.torus", "gram_quadrature"),
)

STATE_BUILDERS = ("states.antidiagonal_state", "states.circle_state_quadrature")


def span_name(fn):
    return f"{fn.__module__.removeprefix('lagstate.')}.{fn.__qualname__}"


class Tracer:
    def __init__(self):
        self.spans = []
        self.provenance = []
        self._stack = []

    def _open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), None])
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, fn):
        name = span_name(fn)
        keep_provenance = name in STATE_BUILDERS

        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if keep_provenance:
                self.provenance.append(dict(result.provenance))
            return result

        return wrapper

    def install(self):
        for module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            setattr(module, attr, self._wrap(getattr(module, attr)))


def self_times(spans, root_speeds):
    """Per span name: (self seconds, calls).  Self time is the span's
    duration minus the durations of its direct children, divided by the
    speed factor of the root span (the row) it belongs to."""
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    root = -1
    for i, (name, parent, start, end) in enumerate(spans):
        root += parent < 0
        seconds, calls = out.get(name, (0.0, 0))
        own = (end - start - child_time[i]) / root_speeds[root]
        out[name] = (seconds + own, calls + 1)
    return out
