"""The benchmark tracer wraps package functions by (module, name); a rename
in the package must not leave one of its bindings dangling."""

import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve_to_callables():
    targets = _load_tracing().TARGETS
    assert targets
    for module_name, attr in targets:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), (module_name, attr)
