"""Every public top-level function and class of depthlab has a caller, and
every name the benchmark reaches into exists.

A name counts as used when the code under ``src/``, ``scripts/`` or
``benchmark/`` mentions it outside its own definition and outside the
package ``__init__`` re-export: as an identifier, an attribute, or a string
naming it (the benchmark hooks layer functions by name).  Tests do not
count, so a function that only its own test calls fails here.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import depthlab  # noqa: F401  (loads every module the tracer patches)

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


def _benchmark_module(name: str):
    spec = importlib.util.spec_from_file_location(f"_benchmark_{name}", ROOT / "benchmark" / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_benchmark_hooks_resolve():
    # the tracer looks up every layer function it wraps by name, and the
    # run's tick hook wraps one more; run.py is read, not imported, since
    # importing it pins the BLAS thread count
    with _benchmark_module("tracing").Tracer().installed():
        pass
    tree = ast.parse((ROOT / "benchmark" / "run.py").read_text(encoding="utf-8"))
    hooks = next(ast.literal_eval(n.value) for n in tree.body
                 if isinstance(n, ast.Assign) and any(getattr(t, "id", None) == "TICK_HOOK" for t in n.targets))
    for mod, name in hooks.values():
        assert callable(getattr(importlib.import_module(mod), name, None)), f"{mod}.{name}"


def test_benchmark_calls_bind():
    # every call that benchmark/workloads.py makes into a depthlab module
    # binds to the function's signature, keyword names included
    tree = ast.parse((ROOT / "benchmark" / "workloads.py").read_text(encoding="utf-8"))
    aliases = {a.asname or a.name: a.name for n in tree.body if isinstance(n, ast.Import)
               for a in n.names if a.name.startswith("depthlab.")}
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
             and isinstance(n.func.value, ast.Name) and n.func.value.id in aliases]
    assert calls
    for call in calls:
        fn = getattr(importlib.import_module(aliases[call.func.value.id]), call.func.attr)
        inspect.signature(fn).bind(*call.args, **{k.arg: k.value for k in call.keywords})
