"""tools/src_lines.py on a synthetic module and a synthetic tree."""

import importlib.util
import os

TOOL = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools", "src_lines.py")
spec = importlib.util.spec_from_file_location("src_lines", TOOL)
src_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_lines)

# line by line: docstring x3, blank, code, blank, comment, code, docstring,
# blank, code, docstring x2, comment, code, blank x2, code, blank (inside a
# string that is no docstring), code
SOURCE = '''"""Module docstring,

over three lines."""

import os  # a trailing comment leaves the line code

# a comment line
class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        # an indented comment
        return "# not a comment"


X = """not a docstring

still a string"""
'''


def test_each_line_counts_once_by_its_kind():
    assert src_lines.count_lines(SOURCE) == {
        "code": 6, "docstring": 6, "comment": 2, "blank": 6
    }
    assert sum(src_lines.count_lines(SOURCE).values()) == len(SOURCE.splitlines())


def test_a_tree_gets_one_row_per_module_and_a_total(tmp_path, capsys):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text('"""Package."""\n', encoding="utf-8")
    (package / "mod.py").write_text(SOURCE, encoding="utf-8")
    (package / "notes.txt").write_text("not python\n", encoding="utf-8")
    assert src_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        ["module", "code", "docstring", "comment", "blank", "total"],
        [os.path.join("pkg", "__init__.py"), "0", "1", "0", "0", "1"],
        [os.path.join("pkg", "mod.py"), "6", "6", "2", "6", "20"],
        ["total", "6", "7", "2", "6", "21"],
    ]


def test_a_directory_without_python_files_is_refused(tmp_path, capsys):
    assert src_lines.main([str(tmp_path)]) == 2
    assert "no .py file" in capsys.readouterr().err
