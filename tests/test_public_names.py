"""Names that code outside the package looks up in it still resolve."""

import ast
import dataclasses
import importlib
import importlib.util
import os

from mpembasim import otto

BENCHMARKS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "benchmarks")


def test_traced_functions_and_public_names_resolve():
    # the benchmark's tracer wraps each (module, function) of TARGETS by name,
    # so a deleted or renamed one would only fail a traced benchmark run
    spec = importlib.util.spec_from_file_location(
        "tracer", os.path.join(BENCHMARKS, "tracer.py")
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{module}.{function}"
        for module, function in tracer.TARGETS
        if not callable(
            getattr(importlib.import_module(f"mpembasim.{module}"), function, None)
        )
    ]
    assert missing == []


def test_cycle_config_keeps_every_field_the_benchmark_sets():
    # the cycle-scan workload builds CycleConfig by keyword and then replaces
    # use_mpemba; a removed field would only fail a benchmark run
    with open(os.path.join(BENCHMARKS, "workloads.py"), encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "CycleConfig" in (getattr(node.func, "attr", None),
                              getattr(node.func, "id", None))
    ]
    assert calls
    passed = {"use_mpemba"}
    passed.update(keyword.arg for call in calls for keyword in call.keywords)
    fields = {field.name for field in dataclasses.fields(otto.CycleConfig)}
    assert sorted(passed - fields) == []
