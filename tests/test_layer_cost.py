"""tools/layer_cost.py on this checkout, with two rounds."""

import ast
import importlib.util
import os

import mpembasim

ROOT = os.path.dirname(os.path.dirname(__file__))
spec = importlib.util.spec_from_file_location(
    "layer_cost", os.path.join(ROOT, "tools", "layer_cost.py")
)
layer_cost = importlib.util.module_from_spec(spec)
spec.loader.exec_module(layer_cost)

SRC = os.path.dirname(os.path.dirname(mpembasim.__file__))


def test_two_rounds_over_two_directories_report_every_layer(capsys):
    assert layer_cost.main([SRC, SRC, "--rounds", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines.count(SRC) == 2
    for layer in layer_cost.LAYERS:
        timed = [line for line in lines if line.split()[:2] == [layer, "median"]]
        assert len(timed) == 2
        assert all("us per call  (n=2)" in line for line in timed)
        assert "minus the first SRC_DIR's" not in timed[0]
        assert "minus the first SRC_DIR's" in timed[1]
    assert len(lines) == 2 * (1 + len(layer_cost.LAYERS))


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
