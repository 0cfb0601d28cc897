"""Every public top-level function and class of depthlab has a caller, every
parameter of a function is read, and every name the benchmark reaches into
exists.

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
# parameters kept unread: the benchmark passes ray_samples (ROADMAP item 18)
UNREAD_ALLOWED = {"central.containment_check.ray_samples"}
# the functions outside measures.py that read a measure's raw weights, none
# of them for a mass: the exact memo's key, the oracle (a referee on the
# raw weights), a weighted draw, weighted means and a projection's measure
WEIGHT_READERS = {"depth.point_depth", "depth.depth_oracle", "depth._subsampled", "median._final",
                  "median._start_points", "median._planar_median"}
# the functions outside measures.py that read a measure's mass units: each
# sums them in an order or in groups that a hit mask does not give (ring
# brackets, a bincount per value, cumulative sums, a capture over a cone's
# own points); every plain mask is counted by ``DiscreteMeasure.unit_sums``
UNIT_READERS = {"depth.exact_depth_values", "depth.certified_depth_floor", "median._line_median",
                "median._level", "central._central_cones"}


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


def test_every_parameter_is_read():
    # a parameter that is accepted and then ignored; a def only, since a
    # lambda fills a callback's signature, which its caller fixes
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = fn.args
            read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            for arg in a.posonlyargs + a.args + a.kwonlyargs + [x for x in (a.vararg, a.kwarg) if x]:
                name = f"{path.stem}.{fn.name}.{arg.arg}"
                if arg.arg not in read and name not in UNREAD_ALLOWED:
                    unread.append(name)
    assert not unread, f"parameters never read: {unread}"


def _readers(attr: str) -> set[str]:
    """The top-level functions and classes outside measures.py that read
    the attribute ``attr``."""
    readers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "measures.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if any(isinstance(n, ast.Attribute) and n.attr == attr for n in ast.walk(node)):
                readers.add(f"{path.stem}.{getattr(node, 'name', '<module>')}")
    return readers


def test_masses_come_from_units():
    # every mass is a sum of the measure's units over its scale
    # (``DiscreteMeasure``): a reader of ``.weights`` is a named non-mass
    # use, so a mass summed from raw weights cannot come back unnoticed
    readers = _readers("weights")
    assert readers == WEIGHT_READERS, f"raw weights read by {sorted(readers - WEIGHT_READERS)}; " \
        f"listed but unread: {sorted(WEIGHT_READERS - readers)}"


def test_plain_masks_are_counted_by_unit_sums():
    # a reader of ``.units`` is a named ordered or grouped sum, so a plain
    # hit mask summed beside ``DiscreteMeasure.unit_sums`` cannot come back
    # unnoticed
    readers = _readers("units")
    assert readers == UNIT_READERS, f"units read by {sorted(readers - UNIT_READERS)}; " \
        f"listed but unread: {sorted(UNIT_READERS - readers)}"


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
