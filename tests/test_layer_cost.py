"""tools/layer_cost.py on this checkout and on edited copies of its package."""

import ast
import importlib.util
import os
import re
import shutil
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


def test_the_ranges_are_those_of_the_cycle_scan_workload():
    with open(os.path.join(ROOT, "benchmarks", "workloads.py"), encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    scan = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "CycleScan"
    )
    ranges = next(
        node.value for node in scan.body
        if isinstance(node, ast.Assign) and node.targets[0].id == "RANGES"
    )
    assert ast.literal_eval(ranges) == layer_cost.RANGES


def test_the_table_rows_are_the_table_commands_of_the_cli():
    computed = [name for name, _, _, compute, _ in cli._SUBCOMMANDS if compute is not None]
    assert list(layer_cost.TABLE_COMMANDS) == computed
    assert all(layer_cost.LAYERS[name] == "cli" for name in computed)
    assert list(layer_cost.LAYERS)[-1] == "verify"


def test_the_verify_row_runs_the_battery_in_process_with_its_stdout_discarded(capsys):
    function, calls = layer_cost.load(SRC, "mpembasim_verify_row")["verify"]
    # cli imports the battery only when verify runs
    assert "mpembasim_verify_row.verify" not in sys.modules
    function(*calls[0])
    assert "mpembasim_verify_row.verify" in sys.modules
    assert capsys.readouterr() == ("", "")
