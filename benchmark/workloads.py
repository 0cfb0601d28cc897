"""The benchmark's workloads: seeded inputs, the timed calls, and the checks.

Every workload is a list of instances built from the workload seed before
timing starts.  ``run`` makes the timed calls into depthlab's public
functions, looked up as module attributes at call time so that the tracer
can wrap them; ``check`` turns an output into rows of the suites' CSV schema
(one row per check, evaluated outside the timed section) and into the
output values that the run digest covers.

The round count scales with ``--seconds`` through a fixed per-round cost
(measured at the seed commit on a 2-core machine), so the same seed and
seconds always give the same instances and every commit does equal work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import depthlab.central as central
import depthlab.cones as cones
import depthlab.depth as depth
import depthlab.median as median
from depthlab.measures import DiscreteMeasure, MeasureSpec, generate_measure

LINE_N = 420
# Acceptance scans 2000 directions and refines 3 times.  Grid 800 with one
# refine step keeps its split of time between the scan (n = 160) and the
# full-measure phases (n = 420); see README.md.
LINE_GRID = 800
LINE_REFINE = 1
LINE_SLACK = 0.02
LINE_QUOTA = 10.0 / 12.0  # share of instances that must reach the improved bound
MEDIAN_N = 500
MEDIAN_DIMS = (2, 3, 4)
SLICE_PER_ROUND = 20
STRUCT_N = 240
RAY_SAMPLES = 10_000
MAP_TUPLES = 80

# the 12 theorem1 measures in R^3, ordered so that any prefix mixes families
LINE_FAMILY = [
    ("gaussian", {"sigma": 1.0}),
    ("simplex_mixture", {"sigma": 0.15}),
    ("cross_polytope", {"sigma": 0.1}),
    ("uniform_ball", {"radius": 1.0}),
    ("gaussian", {"scales": [1.0, 0.6, 0.3]}),
    ("simplex_mixture", {"sigma": 0.25}),
    ("cross_polytope", {"sigma": 0.05}),
    ("uniform_ball", {"radius": 2.0}),
    ("gaussian", {"scales": [1.0, 1.0, 0.25]}),
    ("simplex_mixture", {"sigma": 0.2}),
    ("cross_polytope", {"sigma": 0.15}),
    ("gaussian", {"sigma": 1.0}),
]


def _rado_kind(d: int, k: int):
    """The rado suite's four families, cycled by instance index."""
    return [
        ("gaussian", {"sigma": 1.0}),
        ("uniform_ball", {"radius": 1.0}),
        ("simplex_mixture", {"sigma": 0.35 if d >= 4 else 0.15}),
        ("cross_polytope", {"sigma": 0.1}),
    ][k % 4]


@dataclass
class Instance:
    name: str
    kind: str  # line | median | exact | chain | map
    d: int
    n: int
    seed: int
    data: dict = field(default_factory=dict)

    @property
    def timed_alone(self) -> bool:
        """Counted in the per-instance latency (the exact slice is not).
        Such instances come first in their round."""
        return self.kind != "exact"


def _spec_instance(name, kind, family, d, n, seed, **data) -> Instance:
    fam, params = family
    m = generate_measure(MeasureSpec(fam, d, n, params, seed))
    return Instance(name, kind, d, n, seed, {"m": m, **data})


def _small_rotation(d: int, angle: float, seed: int) -> np.ndarray:
    """Rotation by ``angle`` in a seeded random 2-plane."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, 2)))
    u, v = q[:, 0], q[:, 1]
    return (np.eye(d) + (np.cos(angle) - 1.0) * (np.outer(u, u) + np.outer(v, v))
            + np.sin(angle) * (np.outer(v, u) - np.outer(u, v)))


def _degenerate(seed: int, k: int) -> Instance:
    """Small integer-grid instance with a duplicate, a collinear run, or a
    query on a data point (the oracle's size limits: n <= 14, d <= 3)."""
    rng = np.random.default_rng([seed, k])
    d = 2 + k % 2
    n = int(rng.integers(5, 13))
    pts = rng.integers(-8, 9, size=(n, d)).astype(float)
    q = rng.integers(-4, 5, size=d).astype(float)
    variant = ("duplicate", "collinear", "on_point")[(k // 2) % 3]
    if variant == "duplicate":
        pts[1] = pts[0]
    elif variant == "collinear":
        step = rng.integers(-2, 3, size=d).astype(float)
        step[0] = step[0] or 1.0
        pts[2:5] = pts[0] + np.arange(1, 4)[:, None] * step
    else:
        q = pts[0].copy()
    m = DiscreteMeasure(d, pts, np.full(n, 1.0 / n))
    return Instance(f"exact-{variant}-d{d}k{k}", "exact", d, n, seed, {"m": m, "q": q})


def build(workload: str, seed: int, seconds: float) -> list[list[Instance]]:
    """Rounds of one run; a pure function of (workload, seed, seconds).

    A round is a verdict on a fixed mix of instances (every round of a
    workload has the same kinds and sizes, on its own seeds).  Instance k
    of a run is generated from seed * 1000 + k.
    """
    est_s, make = {"deep_line": (7.0, _line_round), "median": (1.4, _median_round),
                   "structure": (3.3, _structure_round)}[workload]
    count = max(3, round(seconds / est_s))
    return [make(seed, r) for r in range(count)]


def _line_round(seed: int, r: int) -> list[Instance]:
    fam = LINE_FAMILY[r % len(LINE_FAMILY)]
    return [_spec_instance(f"line-{fam[0]}-r{r}", "line", fam, 3, LINE_N, seed * 1000 + r)]


def _median_round(seed: int, r: int) -> list[Instance]:
    """One rado median in each of d = 2, 3, 4 (family cycling with the
    round), then a slice of small degenerate exact-depth instances."""
    out = []
    for j, d in enumerate(MEDIAN_DIMS):
        k = len(MEDIAN_DIMS) * r + j
        fam = _rado_kind(d, r)
        out.append(_spec_instance(f"median-{fam[0]}-d{d}k{k}", "median", fam, d, MEDIAN_N,
                                  seed * 1000 + k))
    return out + [_degenerate(seed, SLICE_PER_ROUND * r + j) for j in range(SLICE_PER_ROUND)]


def _structure_round(seed: int, r: int) -> list[Instance]:
    """A witness chain and a structural map in each of d = 2 and 3."""
    out = []
    for j, (kind, d) in enumerate((("chain", 2), ("chain", 3), ("map", 2), ("map", 3))):
        k = 4 * r + j
        s = seed * 1000 + k
        if kind == "chain":
            extra = {"rotation": _small_rotation(d, np.deg2rad(1.0 + k % 4), s)}
            fam = ("simplex_mixture", {"sigma": 0.02})
        else:
            extra, fam = {}, ("simplex_mixture", {"sigma": 0.01})
        out.append(_spec_instance(f"{kind}-d{d}k{k}", kind, fam, d, STRUCT_N, s, **extra))
    return out


def warm_up(workload: str) -> None:
    """One small call along each timed path, so lazy set-up is not timed.
    Outputs are discarded."""
    def gauss(d):  # above 40 points, so planar medians take the multistart path
        return generate_measure(MeasureSpec("gaussian", d, 50, {}, 0))

    if workload == "deep_line":
        depth.deep_line_search(gauss(3), grid_count=4, refine_iters=0, top_k=1)
    elif workload == "median":
        for d in MEDIAN_DIMS:
            median.tukey_median(gauss(d), mode="multistart", starts=2, iters=2)
        run(_degenerate(0, 0))
    else:
        m = generate_measure(MeasureSpec("simplex_mixture", 2, 120, {"sigma": 0.01}, 0))
        try:
            mc, _ = median.recenter(m, balanced=True, starts=2, iters=4)
            median.witness_tuple(mc, np.zeros(2))
            central.structural_map(mc, _map_level(2), tuple_samples=8)
        except (RuntimeError, ValueError):
            pass


def _map_level(d: int) -> float:
    return 1.0 / (d + 1) + 0.5 / (3.0 * (d + 1) ** 3)


# ---------------------------------------------------------------------------
# timed calls


def run(inst: Instance):
    """The timed work of one instance; returns its raw output."""
    m = inst.data["m"]
    if inst.kind == "line":
        return depth.deep_line_search(m, grid_count=LINE_GRID, refine_iters=LINE_REFINE, seed=inst.seed)
    if inst.kind == "median":
        return median.tukey_median(m, mode="multistart", starts=10, iters=25, seed=inst.seed)
    if inst.kind == "exact":
        return depth.point_depth(m, inst.data["q"], mode="exact")
    if inst.kind == "map":
        mc, med = median.recenter(m, balanced=True, starts=8, iters=20, seed=inst.seed)
        try:
            return {"median": med, "map": central.structural_map(
                mc, _map_level(inst.d), tuple_samples=MAP_TUPLES, seed=inst.seed)}
        except RuntimeError as e:  # no qualifying tuple: a failed instance, not a crash
            return {"median": med, "error": f"map: {e}"}
    return _chain(inst)


def _chain(inst: Instance) -> dict:
    """recenter -> witness_tuple -> bmes_report -> match_tuples -> containment_check.

    A step whose precondition fails ends the chain; the error is part of the
    output and fails the instance's remaining checks.
    """
    d, s = inst.d, inst.seed
    mc, med = median.recenter(inst.data["m"], balanced=True, starts=8, iters=20, seed=s)
    out = {"median": med}
    try:
        tup, _ = median.witness_tuple(mc, np.zeros(d), seed=s)
    except median.WitnessSearchError as e:
        return {**out, "error": f"witness: {e}"}
    out["tuple"] = tup
    eps = cones.epsilon_bmes_max(d)
    out["weight"] = cones.tuple_weight(mc, tup)
    if not out["weight"] < 1.0 / (d + 1) + eps:
        return {**out, "error": "bmes: weight precondition"}
    out["bmes"] = cones.bmes_report(mc, tup, eps)
    tup2 = tup.rotated(inst.data["rotation"])
    try:
        out["match"] = cones.match_tuples(mc, tup, tup2, eps=cones.epsilon_match_max(d))
    except (cones.MatchingError, ValueError) as e:
        return {**out, "error": f"match: {type(e).__name__}"}
    ca, cb = cones.cones_of(tup).cones, cones.cones_of(tup2).cones
    contained = []
    for i in range(d + 1):
        try:
            contained.append(central.containment_check(
                mc, ca[i], cb[out["match"].permutation[i]], ray_samples=RAY_SAMPLES, seed=s))
        except ValueError:
            continue  # the pair misses the mass hypotheses; the suite skips it too
        except RuntimeError:
            contained.append(False)  # the central-cone patch was not found
    out["contained"] = contained
    return out


# ---------------------------------------------------------------------------
# checks and outputs


def _row(inst: Instance, check: str, expected, observed, ok: bool, lower: bool = True) -> dict:
    slack = (observed - expected) if lower else (expected - observed)
    return {"suite": inst.kind, "check": check, "instance": inst.name, "d": inst.d, "n": inst.n,
            "seed": inst.seed, "expected": float(expected), "observed": float(observed),
            "slack": float(slack), "pass": bool(ok)}


def check(inst: Instance, out):
    """(rows, output values, reported depth or None) for one instance."""
    d, n = inst.d, inst.n
    if inst.kind == "line":
        floor = depth.line_depth_thresholds(3)["rado"] - LINE_SLACK
        rows = [_row(inst, "line_floor", floor, out.depth, out.depth >= floor)]
        values = [out.depth, *out.direction, *out.anchor, out.iterations]
        return rows, values, out.depth
    if inst.kind == "median":
        floor = 1.0 / (d + 1) - 2.0 / n
        rows = [_row(inst, "median_floor", floor, out.depth, out.depth >= floor)]
        return rows, [out.depth, *out.point, out.candidates_evaluated], out.depth
    if inst.kind == "exact":
        oracle = depth.depth_oracle(inst.data["m"], inst.data["q"]).depth
        agree = round(out.depth * n) == round(oracle * n) and abs(out.depth - oracle) < 1e-9
        rows = [_row(inst, "exact_equals_oracle", round(oracle * n), round(out.depth * n), agree)]
        return rows, [out.depth, out.mode], None
    med = out["median"]
    values = [med.depth, *med.point]
    if inst.kind == "map":
        if "error" in out:
            return [_row(inst, "interior_margin", 0.0, 0.0, False)], values + [out["error"]], med.depth
        st = out["map"]
        rows = [_row(inst, "interior_margin", 0.0, st.margin, st.margin > 0)]
        return rows, values + [st.margin, *st.vectors.ravel()], med.depth
    return _chain_rows(inst, out), values + _chain_values(out), med.depth


def aggregate_rows(instances: list[Instance], outputs: list) -> list[dict]:
    """Run-level checks: the theorem1 quota of lines reaching the improved
    bound, scaled from 10 of 12 to the run's instance count."""
    lines = [o for i, o in zip(instances, outputs) if i.kind == "line"]
    if not lines:
        return []
    improved = depth.line_depth_thresholds(3)["improved"] - LINE_SLACK
    hits = sum(o.depth >= improved for o in lines)
    need = math.ceil(LINE_QUOTA * len(lines) - 1e-9)
    quota = Instance("aggregate", "line", 3, LINE_N, 0)
    return [_row(quota, "improved_quota", need, hits, hits >= need)]


def _chain_rows(inst: Instance, out: dict) -> list[dict]:
    d = inst.d
    rows = []
    if "bmes" in out:
        rep = out["bmes"]
        rows.append(_row(inst, "mass_sum", rep.sum_bound, rep.cone_masses.sum(), rep.sum_ok))
        rows.append(_row(inst, "mass_bounds", rep.lower, rep.cone_masses.min(), rep.bounds_ok))
    else:
        rows.append(_row(inst, "bmes", 1.0, 0.0, False))
    if "match" in out:
        rep = out["match"]
        perm = rep.permutation
        matched = rep.intersection_masses[np.arange(d + 1), perm]
        off = rep.intersection_masses.copy()
        off[np.arange(d + 1), perm] = 0.0
        floor = 1.0 / (d + 1) - (3 * d + 2) * cones.epsilon_match_max(d)
        rows.append(_row(inst, "matched_mass", floor, matched.min(), bool(np.all(matched > floor))))
        rows.append(_row(inst, "off_matching_mass", 1e-6, off.max(), bool(np.all(off <= 1e-6)),
                         lower=False))
    else:
        rows.append(_row(inst, "matching", 1.0, 0.0, False))
    contained = out.get("contained", [])
    ok = bool(contained) and all(contained)
    rows.append(_row(inst, "containment", len(contained), sum(contained), ok))
    return rows


def _chain_values(out: dict) -> list:
    values = [out.get("error", "")]
    if "tuple" in out:
        values += [out["weight"], *out["tuple"].normals.ravel()]
    if "bmes" in out:
        values += list(out["bmes"].cone_masses)
    if "match" in out:
        values += [*out["match"].permutation, *out["match"].intersection_masses.ravel()]
    return values + [int(c) for c in out.get("contained", [])]
