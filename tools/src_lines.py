"""Count the code, docstring, comment and blank lines of elsakit's source.

    python3 tools/src_lines.py [ROOT]

ROOT defaults to the src/ directory next to this file's parent. Each .py
file under it gets one row, and a last row sums them. A line belongs to
exactly one column, so the four add up to the file's line count:

* docstring: a line spanned by a module, class or function docstring,
  which ast finds (a blank line inside one counts here too);
* code: a line that holds a token other than a comment, for example a
  statement with a trailing comment, or a line of a string that is not a
  docstring;
* comment: a line whose only token is a comment;
* blank: anything else.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

COLUMNS = ("code", "docstring", "comment", "blank")
_LAYOUT = (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER)


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> dict[str, int]:
    """The number of lines of text in each column, and their sum as "lines"."""
    docstrings = _docstring_lines(ast.parse(text))
    code, comments = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(COLUMNS, 0)
    lines = text.splitlines()
    for number in range(1, len(lines) + 1):
        if number in docstrings:
            counts["docstring"] += 1
        elif number in code:
            counts["code"] += 1
        elif number in comments:
            counts["comment"] += 1
        else:
            counts["blank"] += 1
    counts["lines"] = len(lines)
    return counts


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]) if args else Path(__file__).resolve().parent.parent / "src"
    header = ("file", "lines") + COLUMNS
    rows, total = [], dict.fromkeys(header[1:], 0)
    for path in sorted(root.rglob("*.py")):
        counts = count(path.read_text())
        rows.append((str(path.relative_to(root)), *(counts[c] for c in header[1:])))
        for c in header[1:]:
            total[c] += counts[c]
    rows.append(("total", *total.values()))
    width = max(len(row[0]) for row in rows)
    print(f"{header[0]:<{width}}" + "".join(f"{c:>11}" for c in header[1:]))
    for name, *values in rows:
        print(f"{name:<{width}}" + "".join(f"{v:>11,}" for v in values))
    return 0


if __name__ == "__main__":
    sys.exit(main())
