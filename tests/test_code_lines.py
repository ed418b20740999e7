"""tools/code_lines.py counts the lines that hold code: no blank lines,
comments or docstrings."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SNIPPET = '''"""Module docstring,
on two lines."""

import os  # a trailing comment: the line counts


# a comment line
class Shape:
    """Class docstring."""

    sides = 4

    def area(self, a,
             b):
        """Function
        docstring."""
        text = """a multi-line string
that is not a docstring"""
        return (a +
                b)


async def fetch():
    """Async function docstring."""
    "a second string statement is not a docstring"
'''

# import os; class Shape; sides = 4; the two lines of def area; the two
# lines of text = ...; the two lines of return; async def fetch; the
# second string statement.
EXPECTED = 11


def test_code_lines_counts_only_code():
    assert code_lines.code_lines(SNIPPET) == EXPECTED


def test_docstring_lines_cover_module_class_function_and_async_docstrings():
    assert code_lines.docstring_lines(code_lines.ast.parse(SNIPPET)) == {1, 2, 9, 15, 16, 24}
