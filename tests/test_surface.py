"""Every public top-level function and class of depthlab has a caller.

A name counts as used when the code under ``src/``, ``scripts/`` or
``benchmark/`` mentions it outside its own definition and outside the
package ``__init__`` re-export: as an identifier, an attribute, or a string
naming it (the benchmark hooks layer functions by name).  Tests do not
count, so a function that only its own test calls fails here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "depthlab"
# public names kept for a planned caller (ROADMAP item 4: lines in R^4 and
# the k-flat corollary)
ALLOWED = {"flat_depth"}


def _mentions(node: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Identifiers, attribute names and strings under ``node``, leaving out
    the subtree ``skip``."""
    found = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if n is skip:
            continue
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            found.add(n.value)
        stack.extend(ast.iter_child_nodes(n))
    return found


def _public_definitions():
    """(module file, definition node) of every public top-level function or class."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield path, tree, node


def test_every_public_name_has_a_caller():
    files = [p for d in ("src", "scripts", "benchmark") for p in sorted((ROOT / d).rglob("*.py"))
             if p.name != "__init__.py"]
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in files}
    elsewhere = {}  # module file -> mentions in every other file
    for path in trees:
        elsewhere[path] = set().union(*(_mentions(t) for q, t in trees.items() if q != path))
    unused = []
    for path, tree, node in _public_definitions():
        used = node.name in elsewhere[path] or node.name in _mentions(tree, skip=node)
        if not used and node.name not in ALLOWED:
            unused.append(f"{path.stem}.{node.name}")
    assert not unused, f"public names with no caller outside tests: {unused}"
