"""The code-line counter of ``tools/code_lines.py``, which CHANGES.md
figures cite, counts exactly the lines that hold code."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


def _counter():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.code_lines


def test_blank_comment_and_docstring_lines_are_left_out(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text('''"""Module
docstring."""

# a comment
import os  # code with a comment


class A:
    """One line."""

    def f(self):
        """Two
        lines."""
        text = """a string
        that is not a docstring"""
        return text
''')
    # import, class, def, the two lines of the string, return
    assert _counter()(path) == 6
