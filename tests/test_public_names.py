"""Names looked up across the package's edges still resolve: the ones the
benchmark looks up in the package, and the ones the package looks up in the
oldest numpy it declares.  And ``verify`` prints what the benchmark
accepts."""

import ast
import dataclasses
import glob
import importlib
import importlib.util
import os
import subprocess
import sys

import pytest

import mpembasim
from mpembasim import cli, otto

BENCHMARKS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "benchmarks")
PACKAGE = os.path.dirname(mpembasim.__file__)


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "tracer", os.path.join(BENCHMARKS, "tracer.py")
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def load_workloads(monkeypatch):
    monkeypatch.syspath_prepend(BENCHMARKS)  # workloads imports reference by name
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(BENCHMARKS, "workloads.py")
    )
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    return workloads


@pytest.mark.parametrize("seed", [None, 1, 2], ids=["defaults", "seed-1", "seed-2"])
def test_verify_prints_what_the_cli_defaults_workload_accepts(
    capsys, tmp_path, monkeypatch, seed
):
    # cli-defaults refuses a run whose verify prints fewer than 9 lines or any
    # line but PASS; a reshaped battery would only fail a benchmark run
    workloads = load_workloads(monkeypatch)
    workload = workloads.CliDefaults(seed, str(tmp_path))
    argv = ["verify"]
    if seed is not None:
        workload.setup()  # writes the seeded config the workload runs
        argv += ["--config", workload.config]
    code = cli.main(argv)
    call = workloads.Call("verify", 0.0, code, capsys.readouterr().out)
    assert workload.check(None, workloads.Outcome([call])) == []


def test_traced_functions_and_public_names_resolve():
    # the benchmark's tracer wraps each (module, function) of TARGETS by name,
    # so a deleted or renamed one would only fail a traced benchmark run
    missing = [
        f"{module}.{function}"
        for module, function in load_tracer().TARGETS
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


def modules_loaded_by(module: str) -> set:
    """Names in ``sys.modules`` after a fresh interpreter imports ``module``."""
    src = os.path.dirname(PACKAGE)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", f"import sys, {module}; print(*sorted(sys.modules))"],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    return set(done.stdout.split())


def test_importing_the_cli_loads_every_traced_module_and_nothing_it_does_not_run():
    # the tracer imports only mpembasim.cli and then reads sys.modules for each
    # target module, so a target left to a lazy import fails every traced run;
    # importing each module here, as the test above does, cannot see that
    loaded = modules_loaded_by("mpembasim.cli")
    targets = {f"mpembasim.{module}" for module, _ in load_tracer().TARGETS}
    assert sorted(targets - loaded) == []
    unused = {"logging", "json", "numpy.random", "mpembasim.verify"}
    assert sorted(unused & loaded) == []


def test_the_tracer_counts_the_rows_of_the_one_table_writer(tmp_path):
    # every table command writes through cli's one write_table call, whose
    # binding the tracer rebinds to count config_io.write_table.rows;
    # otto-ratio imports no module the tracer has not scanned, so uninstall
    # puts back every binding the run went through
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        code = cli.main(["otto-ratio", "--out", str(tmp_path / "ratio.csv")])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.counters()["rows_written"] == 40
    assert tracer.summary()["config_io.write_table"]["calls"] == 1


def test_the_tracer_counts_every_row_of_a_surface_grid(tmp_path, capsys):
    # surface hands write_table its angle x delay grid with the axes apart;
    # the tracer counts len() of that argument, which is one per table row
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        path = str(tmp_path / "surface.csv")
        code = cli.main(["surface", "--out", path])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.counters()["rows_written"] == 73 * 64
    assert tracer.summary()["config_io.write_table"]["calls"] == 1
    assert capsys.readouterr().out.splitlines()[0] == f"surface: 4672 rows -> {path}"


def test_the_production_kernel_does_not_load_the_liouville_route():
    # channels is the closed-form Bloch kernel; only verify and the tests run
    # the Liouville reference, and cli loads it for the tracer alone
    loaded = modules_loaded_by("mpembasim.channels")
    assert "mpembasim.channels" in loaded
    assert "mpembasim.liouville" not in loaded

#: numpy names, relative to the numpy namespace, that numpy 1.24 lacks
NUMPY2_ONLY = frozenset(
    {
        "matrix_transpose", "unique_values", "unique_counts", "unique_inverse",
        "unique_all", "vecdot", "permute_dims", "concat", "astype", "pow", "acos",
        "acosh", "asin", "asinh", "atan", "atan2", "atanh", "bitwise_left_shift",
        "bitwise_right_shift", "bitwise_invert", "isdtype", "trapezoid", "bool",
        "long", "ulong", "cumulative_sum", "cumulative_prod", "unstack", "matvec",
        "vecmat", "exceptions", "dtypes", "linalg.matrix_transpose", "linalg.vecdot",
        "linalg.matrix_norm", "linalg.vector_norm", "linalg.svdvals", "linalg.cross",
        "linalg.outer", "linalg.diagonal", "linalg.trace", "linalg.matmul",
        "linalg.tensordot",
    }
)

#: array attributes that numpy 1.24 arrays lack
NUMPY2_ARRAY_ATTRIBUTES = frozenset({"mT", "device", "to_device"})


def _numpy_path(node):
    """``linalg.vecdot`` for ``np.linalg.vecdot`` (or ``numpy.``), else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in ("np", "numpy"):
        return ".".join(reversed(parts))
    return None


def numpy2_only_uses(source: str) -> list:
    """``(line, name)`` of each numpy-2-only name that ``source`` uses."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            if node.attr in NUMPY2_ARRAY_ATTRIBUTES:
                found.append((node.lineno, f".{node.attr}"))
            elif _numpy_path(node) in NUMPY2_ONLY:
                found.append((node.lineno, f"np.{_numpy_path(node)}"))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            prefix = node.module.partition(".")[2]
            for alias in node.names:
                name = f"{prefix}.{alias.name}" if prefix else alias.name
                if name in NUMPY2_ONLY:
                    found.append((node.lineno, f"np.{name}"))
    return found


def test_the_package_uses_no_numpy2_only_name():
    # pyproject declares numpy>=1.24, and only numpy 2 is installed here, so a
    # numpy-2-only name would break every command on 1.24-1.26 unseen
    found = {}
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        with open(path, encoding="utf-8") as handle:
            uses = numpy2_only_uses(handle.read())
        if uses:
            found[os.path.basename(path)] = uses
    assert found == {}


@pytest.mark.parametrize(
    "source, name",
    [
        ("out = rho.mT @ rho", ".mT"),
        ("pair = np.concat([a, b])", "np.concat"),
        ("dots = numpy.linalg.vecdot(a, b)", "np.linalg.vecdot"),
        ("from numpy import unique_values", "np.unique_values"),
        ("from numpy.linalg import matrix_norm", "np.linalg.matrix_norm"),
    ],
)
def test_the_numpy_scan_finds_a_planted_name(source, name):
    assert numpy2_only_uses(source) == [(1, name)]


def test_the_numpy_scan_passes_names_numpy_1_24_has():
    source = "a = rho.swapaxes(-1, -2)\nb = np.cross(a, a)\nc = np.trace(np.linalg.inv(a))\n"
    assert numpy2_only_uses(source) == []
