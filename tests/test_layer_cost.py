"""tools/layer_cost.py on this checkout and on edited copies of its package."""

import importlib.util
import os
import re
import shutil
import subprocess
import sys

import pytest

import mpembasim
from mpembasim import cli

ROOT = os.path.dirname(os.path.dirname(__file__))
spec = importlib.util.spec_from_file_location(
    "layer_cost", os.path.join(ROOT, "tools", "layer_cost.py")
)
layer_cost = importlib.util.module_from_spec(spec)
spec.loader.exec_module(layer_cost)

SRC = os.path.dirname(os.path.dirname(mpembasim.__file__))


def edited_copy(tmp_path, edit, *modules):
    """A copy of the package under ``tmp_path`` with ``edit`` applied to the
    text of each of ``modules``; returns the directory that holds it."""
    shutil.copytree(os.path.join(SRC, "mpembasim"), tmp_path / "mpembasim")
    for module in modules:
        path = tmp_path / "mpembasim" / f"{module}.py"
        path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
    return str(tmp_path)


def test_two_rounds_over_two_directories_report_every_layer(capsys):
    assert layer_cost.main([SRC, SRC, "--rounds", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines.count(SRC) == 2
    for layer in layer_cost.LAYERS:
        timed = [line for line in lines if line.split()[:2] == [layer, "median"]]
        assert len(timed) == 2
        assert all("us per call  (n=2)" in line for line in timed)
        assert "ratio to the first" not in timed[0]
        assert re.search(
            r"ratio to the first: \d+\.\d{3} "
            r"\(IQR \d+\.\d{3}-\d+\.\d{3}, 95% CI \d+\.\d{3}-\d+\.\d{3}\)$",
            timed[1],
        )
    assert len(lines) == 2 * (1 + len(layer_cost.LAYERS))


def test_a_function_the_package_lacks_is_reported_absent(tmp_path, capsys):
    older = edited_copy(
        tmp_path, lambda text: text.replace("log_eigensystem", "_log_eigensystem"),
        "numerics", "liouville",
    )
    assert layer_cost.main([older, SRC, "--rounds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == older
    assert [line.split() for line in lines if "absent" in line] == [["log_eigensystem", "absent"]]
    assert lines.index("  log_eigensystem      absent") < lines.index(SRC)
    timed = [line for line in lines if line.split()[:2] == ["log_eigensystem", "median"]]
    assert len(timed) == 1 and "ratio to the first" not in timed[0]
    assert sum("ratio to the first" in line for line in lines) == len(layer_cost.LAYERS) - 1


@pytest.mark.parametrize(
    "module, tail",
    [
        ("__init__", "raise ImportError('on purpose')\n"),
        ("otto", "def run_cycle(cfg, tau2):\n    raise ValueError('on purpose')\n"),
        (
            "config_io",
            "def _refuse(self):\n    raise ValueError('on purpose')\n\n\n"
            "ExperimentConfig.__post_init__ = _refuse\n",
        ),
    ],
    ids=["load", "layer", "table"],
)
def test_a_package_that_fails_to_load_or_a_layer_that_raises_exits_1(
    tmp_path, capsys, module, tail
):
    broken = edited_copy(tmp_path, lambda text: text + "\n\n" + tail, module)
    assert layer_cost.main([SRC, broken, "--rounds", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{broken} failed:\nTraceback")
    assert captured.err.endswith("Error: on purpose\n")


def test_a_directory_without_the_package_is_refused(tmp_path, capsys):
    assert layer_cost.main([str(tmp_path), "--rounds", "2"]) == 2
    assert "no mpembasim package" in capsys.readouterr().err


def test_the_write_rows_are_the_tables_of_the_sweep_large_workload(tmp_path):
    sweep = layer_cost.workloads.SweepLarge
    layers = layer_cost.load(SRC, "mpembasim_write_rows", str(tmp_path))
    config_io = sys.modules["mpembasim_write_rows.config_io"]
    otto = sys.modules["mpembasim_write_rows.otto"]
    # otto-ratio's rows are one report per pulse delay, over the 4096 delays
    config = config_io.ExperimentConfig(tau_steps=sweep.TAU_STEPS)
    n_rows = {
        "surface": sweep.THETA_STEPS * sweep.SURFACE_TAU_STEPS,
        "cooling": sweep.TAU_STEPS,
        "otto-distance": sweep.TAU_STEPS,
        "otto-ratio": len(otto.power_ratio(config.cycle, tau2_grid=config.delays)),
    }
    writes = [layer for layer in layer_cost.LAYERS if layer.startswith("write_")]
    assert writes == [f"write_{command}" for command in sweep.FORMATS]
    for command, fmt in sweep.FORMATS.items():
        function, [(rows, schema, path, table_fmt, precision)] = layers[f"write_{command}"]
        assert function is config_io.write_table
        assert (len(rows), table_fmt, precision) == (n_rows[command], fmt, 12)
        assert os.path.dirname(path) == str(tmp_path) and path.endswith(f".{fmt}")
        # only the write is timed: the rows exist before the first call
        assert not os.path.exists(path)
        function(rows, schema, path, table_fmt, precision)
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        lines = text.count("\n") - 1 if fmt == "csv" else text.count("\n  {")
        assert lines == n_rows[command]


def test_the_cycle_rows_run_the_cycle_scan_workload_on_the_loaded_package(tmp_path):
    workloads = layer_cost.workloads
    layers = layer_cost.load(SRC, "mpembasim_cycle_rows", str(tmp_path))
    package = [sys.modules[f"mpembasim_cycle_rows.{m}"] for m in ("channels", "liouville", "otto")]
    run, calls = layers["cycle_scan_op"]
    assert run.__func__ is workloads.CycleScan.run
    assert [run.__self__.channels, run.__self__.liouville, run.__self__.otto] == package
    inputs = [op for (op,) in calls]
    assert all(type(op) is workloads.ScanInput for op in inputs)
    cycles = {type(cycle) for op in inputs for cycle in (op.cycle_off, op.cycle_on)}
    assert cycles == {package[2].CycleConfig}
    # the workload's own draws at seed 28, as the installed package makes them
    scan = workloads.CycleScan(28, str(tmp_path))
    scan.setup()
    assert [repr(op) for op in inputs] == [repr(scan.prepare(k)) for k in range(16)]
    assert layers["config_and_cycles"][1] == calls
    assert layers["run_cycle"][1] == [
        ((op.cycle_off, op.cycle_on)[k % 2], op.tau2) for k, op in enumerate(inputs)
    ]


def test_importing_the_tool_loads_no_package_module():
    code = f"import runpy, sys; runpy.run_path({layer_cost.__file__!r}); print(*sys.modules)"
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert "workloads" in done.stdout.split()
    assert [key for key in done.stdout.split() if key.startswith("mpembasim")] == []


def test_the_table_rows_are_the_table_commands_of_the_cli():
    computed = [name for name, _, _, compute, _ in cli._SUBCOMMANDS if compute is not None]
    assert list(layer_cost.TABLE_COMMANDS) == computed
    assert all(layer_cost.LAYERS[name] == "cli" for name in computed)
    assert list(layer_cost.LAYERS)[-1] == "verify"


def test_the_verify_row_runs_the_battery_in_process_with_its_stdout_discarded(
    tmp_path, capsys
):
    function, calls = layer_cost.load(SRC, "mpembasim_verify_row", str(tmp_path))["verify"]
    # cli imports the battery only when verify runs
    assert "mpembasim_verify_row.verify" not in sys.modules
    function(*calls[0])
    assert "mpembasim_verify_row.verify" in sys.modules
    assert capsys.readouterr() == ("", "")
