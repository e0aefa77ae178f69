"""tools/import_cost.py on this checkout, with two rounds."""

import importlib.util
import os

import mpembasim

TOOL = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools", "import_cost.py")
spec = importlib.util.spec_from_file_location("import_cost", TOOL)
import_cost = importlib.util.module_from_spec(spec)
spec.loader.exec_module(import_cost)

SRC = os.path.dirname(os.path.dirname(mpembasim.__file__))


def test_two_rounds_over_two_directories_report_every_line(capsys):
    assert import_cost.main([SRC, SRC, "--rounds", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("import mpembasim.cli     median") == 2
    assert out.count("(n=2)") == 2
    assert out.count("first cli._build_parser  median") == 2
    assert out.count("import median minus the first SRC_DIR's") == 1
    modules = [line for line in out.splitlines() if "modules beyond numpy's" in line]
    assert len(modules) == 2
    assert "mpembasim.cli" in modules[0].split() and "logging" not in modules[0].split()
    assert out.count("sys.flags.dont_write_bytecode") == 2


def test_a_directory_without_the_package_is_refused(tmp_path, capsys):
    assert import_cost.main([str(tmp_path), "--rounds", "2"]) == 2
    assert "no mpembasim package" in capsys.readouterr().err


def test_p10_is_the_nearest_rank():
    assert import_cost.p10([5.0, 1.0]) == 1.0
    assert import_cost.p10([float(k) for k in range(20, 0, -1)]) == 2.0
