"""``tools/code_lines.py``, the code-line count of the package's modules."""

from __future__ import annotations

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

FIXTURE = '''"""Module docstring,
two lines."""

import os  # a comment on a code line counts


class A:
    """Class docstring."""

    # a comment line
    def f(self, x):
        """Function docstring,

        three lines."""
        y = (x +
             1)
        """A later string statement is code."""
        return f"""{y}
text"""
'''


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    # import, class, def, the two lines of y, the later string, the two of return
    assert code_lines.code_lines(FIXTURE) == 8
    assert code_lines.code_lines("") == 0
