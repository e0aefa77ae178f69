"""Names that code outside the package looks up in it still resolve."""

import importlib
import importlib.util
import os

import mpembasim

TRACER = os.path.join(os.path.dirname(os.path.dirname(__file__)), "benchmarks", "tracer.py")


def test_traced_functions_and_public_names_resolve():
    # the benchmark's tracer wraps each (module, function) of TARGETS by name,
    # so a deleted or renamed one would only fail a traced benchmark run
    spec = importlib.util.spec_from_file_location("tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{module}.{function}"
        for module, function in tracer.TARGETS
        if not callable(
            getattr(importlib.import_module(f"mpembasim.{module}"), function, None)
        )
    ]
    missing += [name for name in mpembasim.__all__ if not hasattr(mpembasim, name)]
    assert missing == []
