"""Per-layer tracing from outside the program.

``Tracer.installed()`` replaces each wrapped public function in every
``depthlab`` module namespace that holds it, so calls made through the
module attribute (``depthlab.median.exact_depth_value_2d``) and calls the
package makes internally through its own imports are both timed.  Spans
nest: a span's self time is its duration minus the time of the wrapped
spans it caused.  Counters are read from arguments and results at the same
boundaries.  Nothing under ``src/`` changes; leaving the context restores
every original function.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict


class _SearchState:
    """Call-order state of one deep_line_search, for phase attribution."""

    def __init__(self, top_k: int):
        self.top_k = top_k
        self.scan_budget = None
        self.mid_budget = None
        self.mid_calls = 0
        self.final = False

    def phase(self, budget) -> str:
        key = tuple(sorted((budget or {}).items()))
        if self.scan_budget is None:
            self.scan_budget = key
        if self.final:
            return "final"
        if key == self.scan_budget:
            return "scan"
        if self.mid_budget is None:
            self.mid_budget = key
        if key != self.mid_budget:
            # the heaviest budget, and everything after it, is the final step
            self.final = True
            return "final"
        self.mid_calls += 1
        return "rerank" if self.mid_calls <= self.top_k else "refine"


def _none(*args):
    return None


def _arg(args, kwargs, index: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


class Tracer:
    """Span timer and counters for a fixed set of depthlab functions."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)  # inclusive of wrapped children
        self.counts = defaultdict(int)
        self.top_s = 0.0  # time inside outermost spans
        self._child = []  # per open span: time of its wrapped children
        self._search = []

    # -- span bookkeeping -------------------------------------------------

    def _span(self, fn, key_of, after):
        def wrapper(*args, **kwargs):
            key = key_of(args, kwargs)
            self._child.append(0.0)
            t0 = time.perf_counter()
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                dt = time.perf_counter() - t0
                child = self._child.pop()
                self.calls[key] += 1
                self.self_s[key] += dt - child
                self.total_s[key] += dt
                if self._child:
                    self._child[-1] += dt
                else:
                    self.top_s += dt
                if ok:
                    after(args, kwargs, out)
                else:
                    self.counts[key + ".errors"] += 1

        wrapper.__wrapped__ = fn
        return wrapper

    def exclude(self, dt: float) -> None:
        """Take a pause of ``dt`` seconds (a calibration of the benchmark's
        clock) out of the self time of the open spans and out of top_s."""
        if self._child:
            self._child[-1] += dt
            self.top_s -= dt

    # -- the wrapped layer functions --------------------------------------

    def _specs(self):
        """(module, function, key_of(args, kwargs), after(args, kwargs, out))."""
        fixed = lambda key: (lambda a, k: key)  # noqa: E731

        def count(name, f):
            def after(a, k, out):
                self.counts[name] += f(a, k, out)
            return after

        def point_depth_key(a, k):
            mode = _arg(a, k, 2, "mode", "exact")
            if mode == "exact":
                return f"depth.point_depth.exact_d{a[0].dim}"
            return f"depth.point_depth.{mode}"

        def profile_key(a, k):  # outside a line search every profile reads as a scan
            state = self._search[-1] if self._search else _SearchState(0)
            return f"depth.direction_profile.{state.phase(_arg(a, k, 2, 'budget'))}"

        return [
            ("depth", "exact_depth_value_2d", fixed("depth.exact_depth_value_2d"),
             count("depth.exact_depth_value_2d.points", lambda a, k, out: a[0].n)),
            ("depth", "direction_profile", profile_key, _none),
            ("depth", "point_depth", point_depth_key,
             count("depth.point_depth.upper_bound", lambda a, k, out: int(out.mode == "exact-upper-bound"))),
            ("depth", "certified_depth_floor", fixed("depth.certified_depth_floor"), _none),
            ("measures", "project_measure", fixed("measures.project_measure"), _none),
            ("median", "tukey_median", fixed("median.tukey_median"),
             count("median.tukey_median.evals", lambda a, k, out: out.candidates_evaluated)),
            ("median", "balanced_median", fixed("median.balanced_median"), _none),
            ("median", "min_normal_set", fixed("median.min_normal_set"),
             count("median.min_normal_set.normals", lambda a, k, out: out.normals.shape[0])),
            ("median", "witness_tuple", fixed("median.witness_tuple"), _none),
            ("cones", "tuple_weight", fixed("cones.tuple_weight"), _none),
            ("cones", "bmes_report", fixed("cones.bmes_report"), _none),
            ("cones", "match_tuples", fixed("cones.match_tuples"), _none),
            ("cones", "family_member_order", fixed("cones.family_member_order"),
             count("cones.family_member_order.accepted", lambda a, k, out: int(out is not None))),
            ("central", "central_cone", fixed("central.central_cone"),
             count("central.central_cone.constraints", lambda a, k, out: out.constraints.shape[0])),
            ("central", "sample_central_rays", fixed("central.sample_central_rays"),
             count("central.sample_central_rays.rays", lambda a, k, out: out[0].shape[0])),
            ("central", "containment_check", fixed("central.containment_check"), _none),
            ("central", "structural_map", fixed("central.structural_map"), _none),
            ("geometry", "cone_contains_many", fixed("geometry.cone_contains_many"), _none),
            ("geometry", "sample_directions", fixed("geometry.sample_directions"), _none),
        ]

    def _search_wrapper(self, fn):
        """deep_line_search opens a call-order state for its profiles."""
        def wrapper(*args, **kwargs):
            self._search.append(_SearchState(int(_arg(args, kwargs, 5, "top_k", 6))))
            try:
                return fn(*args, **kwargs)
            finally:
                self._search.pop()

        return self._span(wrapper, lambda a, k: "depth.deep_line_search", _none)

    @contextlib.contextmanager
    def installed(self):
        """Patch every depthlab namespace that holds a wrapped function."""
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "depthlab" or name.startswith("depthlab.")}
        patched = []
        wrappers = []
        for mod, func, key_of, after in self._specs():
            orig = getattr(mods[f"depthlab.{mod}"], func)
            wrappers.append((orig, self._span(orig, key_of, after)))
        search = mods["depthlab.depth"].deep_line_search
        wrappers.append((search, self._search_wrapper(search)))
        try:
            for orig, wrapped in wrappers:
                for mod in mods.values():
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapped)
                            patched.append((mod, attr, orig))
            yield self
        finally:
            for mod, attr, orig in patched:
                setattr(mod, attr, orig)
