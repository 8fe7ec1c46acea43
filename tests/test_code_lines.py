"""scripts/code_lines.py: code lines leave out docstrings, comments and
blank lines, and count every line a statement spans; in the package's C
source they leave out comments and blank lines, and count literals as
code."""

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


C_SNIPPET = r"""/* a block comment
   over two lines */
#include <stdint.h>

// a line comment
static int f(int x)  /* a trailing comment */
{
    const char *s = "/* not a comment */";  // but this is
    char c = '"';
    /* a comment */ x += 1; /* and another
    */
    return x /
           2 + (s[0] == c);
}
"""


def test_c_snippet_counts_code_lines_only():
    # the include, static int f, its two braces, s, c, x += 1, and the two
    # lines of the return
    assert code_lines.c_code_lines(C_SNIPPET) == 9


def test_prints_each_module_and_the_total():
    # the Python modules, then the C source, whose lines the total counts
    done = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True,
                          text=True, check=True)
    rows = [line.split() for line in done.stdout.splitlines()]
    names = sorted(p.name for p in code_lines.PACKAGE.glob("*.py"))
    assert [name for name, _ in rows] == names + ["_draws.c", "total"]
    assert all(int(n) > 0 for _, n in rows)
    assert sum(int(n) for _, n in rows[:-1]) == int(rows[-1][1])
