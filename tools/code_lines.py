"""Count the code lines of Python modules.

A code line holds at least one token of code: blank lines, comment lines
and docstrings do not count, and a statement spread over several lines
counts each of them.  Only the standard library is used (``tokenize`` for
the tokens, ``ast`` for the docstrings).

    python tools/code_lines.py src/ddcontrol

prints the count of every module under the given files or directories and
their total.
"""

import ast
import sys
import tokenize
from pathlib import Path

NON_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree):
    """Line numbers of the module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """Number of code lines in a module's source text."""
    lines = set()
    readline = iter(source.splitlines(keepends=True)).__next__
    for token in tokenize.generate_tokens(readline):
        if token.type not in NON_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv):
    paths = []
    for arg in argv or ["."]:
        root = Path(arg)
        paths += sorted(root.rglob("*.py")) if root.is_dir() else [root]
    total = 0
    for path in paths:
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
