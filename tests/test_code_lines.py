import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_not_comments_blanks_or_docstrings(tool):
    source = '''"""Module docstring,
over two lines."""

# a comment
import os  # a trailing comment


class Spec:
    """Class docstring."""

    def method(self):
        """Method docstring,

        over three lines."""
        text = """a string that is not a docstring,
        over two lines"""
        return (
            text
        )
'''
    # import, class, def, the two lines of ``text``, return and its two lines
    assert tool.code_lines(source) == 8


def test_package_total_is_the_sum_of_its_modules(tool, capsys):
    package = TOOL.parents[1] / "src" / "bsradar"
    assert tool.main([str(package)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[-1][1] == "total"
    assert int(rows[-1][0]) == sum(int(count) for count, _ in rows[:-1]) > 0
    assert len(rows) - 1 == len(list(package.rglob("*.py")))
