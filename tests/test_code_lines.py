"""scripts/code_lines.py: code lines leave out docstrings, comments and
blank lines, and count every line a statement spans."""

import importlib.util
import pathlib
import subprocess
import sys

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SNIPPET = '''"""A module docstring
over two lines."""

import os  # a trailing comment

# a comment line


def f(x):
    """A function docstring."""
    y = """a string that is
    assigned, so code"""
    return (x,
            y)


class C:
    """A class docstring."""  # and its comment

    def g(self):
        "one line"
        return os.sep
'''


def test_snippet_counts_code_lines_only():
    # import, def f, the two lines of y, the two of the return, class C,
    # def g and its return
    assert code_lines.code_lines(SNIPPET) == 9


def test_a_string_in_an_expression_is_code():
    assert code_lines.code_lines('x = 1\n"a" + x\n') == 2


def test_prints_each_module_and_the_total():
    done = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True,
                          text=True, check=True)
    rows = [line.split() for line in done.stdout.splitlines()]
    names = sorted(p.name for p in code_lines.PACKAGE.glob("*.py"))
    assert [name for name, _ in rows] == names + ["total"]
    assert sum(int(n) for _, n in rows[:-1]) == int(rows[-1][1]) > 0
