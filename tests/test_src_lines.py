"""tools/src_lines.py: each line of src/ lands in exactly one column."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)


@pytest.mark.parametrize("path", sorted((ROOT / "src").rglob("*.py")), ids=lambda p: p.name)
def test_the_columns_sum_to_the_line_count(path):
    text = path.read_text()
    counts = src_lines.count(text)
    assert counts["lines"] == len(text.splitlines())
    assert sum(counts[c] for c in src_lines.COLUMNS) == counts["lines"]


def test_each_kind_of_line():
    text = '''"""Module docstring,

over three lines."""
import os  # a trailing comment makes a code line

# a comment line


def f():
    """One line."""
    s = """a string

that is no docstring"""
    return s
'''
    assert src_lines.count(text) == {
        "code": 6, "docstring": 4, "comment": 1, "blank": 3, "lines": 14,
    }


def test_main_prints_a_total_row(capsys):
    assert src_lines.main([str(ROOT / "src")]) == 0
    rows = capsys.readouterr().out.splitlines()
    total = dict(zip(rows[0].split()[1:], rows[-1].split()[1:]))
    assert rows[-1].split()[0] == "total"
    parts = sum(int(total[c].replace(",", "")) for c in src_lines.COLUMNS)
    assert parts == int(total["lines"].replace(",", ""))
