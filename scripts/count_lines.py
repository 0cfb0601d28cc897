#!/usr/bin/env python3
"""Count the lines of the package: every line (as ``wc -l`` counts them) and
the code lines, those that hold a token other than a comment, with the
lines of docstrings and blank lines left out; and its public parameters
with a default.

    python scripts/count_lines.py            # src/depthlab
    python scripts/count_lines.py some/dir   # every *.py file under it

A docstring is a string constant that stands alone as the first statement
of a module, class or function body (found with ``ast``); the other lines
are read with ``tokenize``.  A public parameter with a default is one of a
public top-level function or of a public method of a public class (a
public name does not start with ``_``).  Prints the parameter count, then
the line totals, stdlib only.
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


def public_defaults(tree: ast.Module) -> int:
    """The parameters with a default of the public top-level functions and
    of the public methods of the public classes of a module."""
    funcs = [node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    funcs += [f for c in tree.body if isinstance(c, ast.ClassDef) and not c.name.startswith("_")
              for f in c.body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return sum(len(f.args.defaults) + sum(d is not None for d in f.args.kw_defaults)
               for f in funcs if not f.name.startswith("_"))


def count(path: Path) -> tuple[int, int, int]:
    """(lines, code lines, public parameters with a default) of one Python
    file."""
    raw = path.read_bytes()
    tree = ast.parse(raw)
    docs = docstring_lines(tree)
    code = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _SKIP:
                code.update(range(tok.start[0], tok.end[0] + 1))
    return raw.count(b"\n"), len(code - docs), public_defaults(tree)


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src" / "depthlab"
    files = sorted(root.rglob("*.py"))
    lines, code, params = (sum(c) for c in zip(*map(count, files))) if files else (0, 0, 0)
    print(f"{root}: {params} public parameters with a default")
    print(f"{root}: {len(files)} files, {lines} lines, {code} code lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
