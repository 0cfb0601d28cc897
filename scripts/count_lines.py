#!/usr/bin/env python3
"""Count the lines of the package: every line (as ``wc -l`` counts them) and
the code lines, those that hold a token other than a comment, with the
lines of docstrings and blank lines left out.

    python scripts/count_lines.py            # src/depthlab
    python scripts/count_lines.py some/dir   # every *.py file under it

A docstring is a string constant that stands alone as the first statement
of a module, class or function body (found with ``ast``); the other lines
are read with ``tokenize``.  Prints the two totals, stdlib only.
"""

import ast
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers spanned by the docstrings in ``tree``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def count(path: Path) -> tuple[int, int]:
    """(lines, code lines) of one Python file."""
    raw = path.read_bytes()
    docs = docstring_lines(ast.parse(raw))
    code = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _SKIP:
                code.update(range(tok.start[0], tok.end[0] + 1))
    return raw.count(b"\n"), len(code - docs)


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src" / "depthlab"
    files = sorted(root.rglob("*.py"))
    lines, code = (sum(c) for c in zip(*map(count, files))) if files else (0, 0)
    print(f"{root}: {len(files)} files, {lines} lines, {code} code lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
