"""Verification suites: seeded instance families, per-check rows, CSV reports.

Each suite returns a list of row dicts with the fixed schema
(suite, check, instance, d, n, seed, expected, observed, slack, pass); a row
passes iff observed satisfies its bound, slack = observed - expected for
lower bounds (negated for upper bounds).  Suites are pure functions of their
parameters, so reports are reproducible byte for byte.
"""

from __future__ import annotations

import itertools
from typing import Callable, NamedTuple

import numpy as np

from .geometry import SimplicialCone, random_rotation, unit
from .measures import DiscreteMeasure, MeasureSpec, generate_measure, make_measure
from .depth import (
    deep_line_search,
    depth_oracle,
    line_depth_thresholds,
    point_depth,
)
from .median import recenter, tukey_median, witness_tuple
from .cones import (
    MatchingError,
    bmes_report,
    cones_of,
    epsilon_bmes_max,
    epsilon_match_max,
    match_tuples,
    tuple_weight,
)
from .central import central_patch, containment_check, structural_map

CSV_COLUMNS = ("suite", "check", "instance", "d", "n", "seed", "expected", "observed", "slack", "pass")
_LINE_SLACK = 0.02  # theorem1: a line passes at its threshold less this
_IMPROVED_QUOTA = 10  # theorem1: lines of the 12 that must pass the improved threshold
_TMAP_N = 240  # tmap: points per measure


def _row(suite, check, instance, d, n, seed, expected, observed, slack, ok):
    return {
        "suite": suite,
        "check": check,
        "instance": instance,
        "d": int(d),
        "n": int(n),
        "seed": int(seed),
        "expected": float(expected),
        "observed": float(observed),
        "slack": float(slack),
        "pass": bool(ok),
    }


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def rows_to_csv(rows) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for r in rows:
        lines.append(",".join(_fmt(r[c]) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# instance families


def _rado_spec(d: int, n: int, seed: int) -> MeasureSpec:
    kinds = [
        ("gaussian", {"sigma": 1.0}),
        ("uniform_ball", {"radius": 1.0}),
        ("simplex_mixture", {"sigma": 0.35 if d >= 4 else 0.15}),
        ("cross_polytope", {"sigma": 0.1}),
    ]
    kind, params = kinds[seed % len(kinds)]
    return MeasureSpec(kind, d, n, params, seed)


def line_search_suite_specs(n: int = 420) -> list[MeasureSpec]:
    """The 12-measure family used for the deep-line checks in R^3."""
    return [
        MeasureSpec("gaussian", 3, n, {"sigma": 1.0}, 11),
        MeasureSpec("gaussian", 3, n, {"sigma": 1.0}, 12),
        MeasureSpec("gaussian", 3, n, {"scales": [1.0, 0.6, 0.3]}, 13),
        MeasureSpec("gaussian", 3, n, {"scales": [1.0, 1.0, 0.25]}, 14),
        MeasureSpec("uniform_ball", 3, n, {"radius": 1.0}, 15),
        MeasureSpec("uniform_ball", 3, n, {"radius": 2.0}, 16),
        MeasureSpec("simplex_mixture", 3, n, {"sigma": 0.15}, 17),
        MeasureSpec("simplex_mixture", 3, n, {"sigma": 0.2}, 18),
        MeasureSpec("simplex_mixture", 3, n, {"sigma": 0.25}, 19),
        MeasureSpec("cross_polytope", 3, n, {"sigma": 0.05}, 20),
        MeasureSpec("cross_polytope", 3, n, {"sigma": 0.1}, 21),
        MeasureSpec("cross_polytope", 3, n, {"sigma": 0.15}, 22),
    ]


def _witness_instance(k: int, seed0: int):
    """Recentered tight simplex mixture k (d = 2, 3 alternating) with an
    extracted witness tuple; a pure function of (k, seed0)."""
    d = 2 if k % 2 == 0 else 3
    spec = MeasureSpec("simplex_mixture", d, 240, {"sigma": 0.02}, seed0 + k)
    m = generate_measure(spec)
    mc, _ = recenter(m, balanced=True, starts=8, iters=20, seed=seed0 + k)
    tup, _ = witness_tuple(mc, np.zeros(d), seed=seed0 + k)
    return spec, mc, tup


def _small_rotation(d: int, angle: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    r = np.eye(d)
    g = rng.standard_normal((d, d))
    skew = (g - g.T) / 2.0
    nrm = np.linalg.norm(skew, 2)
    if nrm > 0:
        from scipy.linalg import expm

        r = expm(skew * (angle / nrm))
    return r


# ---------------------------------------------------------------------------
# suites


def oracle_suite(instances_per_dim: int = 100) -> list[dict]:
    """Exact-vs-oracle equivalence on integer-coordinate instances."""

    def one(d, i):
        rng = np.random.default_rng(1000 * d + i)
        n = int(rng.integers(5, 13))
        pts = rng.integers(-8, 9, size=(n, d)).astype(float)
        if i % 3 == 0 and n > 1:  # stress coincidences and collinearity
            pts[1] = pts[0]
        q = rng.integers(-4, 5, size=d).astype(float) if i % 2 else pts[0]
        m = DiscreteMeasure(d, pts, np.full(n, 1.0 / n))
        exact = point_depth(m, q, mode="exact").depth
        oracle = depth_oracle(m, q).depth
        agree = exact == oracle
        return _row("oracle", "exact_equals_oracle", f"d{d}i{i}", d, n, 1000 * d + i,
                    round(oracle * n), round(exact * n), 0.0 if agree else abs(exact - oracle), agree)

    return [one(d, i) for d in (2, 3) for i in range(instances_per_dim)]


def rado_suite(dims=(2, 3, 4), seeds_per_dim: int = 50, n: int = 500) -> list[dict]:
    """Median depth floor 1/(d+1) - 2/n over seeded measures."""

    def one(d, s):
        spec = _rado_spec(d, n, s)
        m = generate_measure(spec)
        res = tukey_median(m, mode="multistart", starts=10, iters=25, seed=s)
        floor = 1.0 / (d + 1) - 2.0 / n
        return _row("rado", "median_floor", f"{spec.kind}-d{d}s{s}", d, n, s,
                    floor, res.depth, res.depth - floor, res.depth >= floor)

    return [one(d, s) for d in dims for s in range(seeds_per_dim)]


def theorem1_suite(grid_count: int = 2000, n: int = 420) -> list[dict]:
    """Deep-line existence at desk scale in R^3.

    Every instance must reach the projection floor 1/3 - _LINE_SLACK; at
    least _IMPROVED_QUOTA of the 12 must reach 1/3 + 1/81 - _LINE_SLACK.
    Shortfalls are reported per instance, never silently passed.
    """
    th = line_depth_thresholds(3)
    rows = []
    improved_hits = 0
    for i, spec in enumerate(line_search_suite_specs(n)):
        res = deep_line_search(generate_measure(spec), grid_count=grid_count, refine_iters=3, seed=spec.seed)
        floor = th["rado"] - _LINE_SLACK
        imp = th["improved"] - _LINE_SLACK
        rows.append(_row("theorem1", "line_floor", f"{spec.kind}-{i}", 3, spec.n, spec.seed,
                         floor, res.depth, res.depth - floor, res.depth >= floor))
        hit = res.depth >= imp
        improved_hits += int(hit)
        rows.append(_row("theorem1", "line_improved", f"{spec.kind}-{i}", 3, spec.n, spec.seed,
                         imp, res.depth, res.depth - imp, hit))
    rows.append(_row("theorem1", "improved_quota", "aggregate", 3, n, 0,
                     _IMPROVED_QUOTA, improved_hits, improved_hits - _IMPROVED_QUOTA,
                     improved_hits >= _IMPROVED_QUOTA))
    return rows


def bmes_suite(count: int = 20, eps: float | None = None) -> list[dict]:
    """Cone-mass bounds on witness tuples.

    ``eps`` defaults to the largest admissible value per dimension; passing an
    out-of-range value flags every instance as a precondition failure (the
    report is explicit, never silently passed).
    """

    def one(k):
        spec, m, tup = _witness_instance(k, 0)
        d = spec.dim
        eps_d = epsilon_bmes_max(d) if eps is None else float(eps)
        if not (0 < eps_d <= epsilon_bmes_max(d)):
            return [_row("bmes", "epsilon_precondition", f"i{k}", d, spec.n, spec.seed,
                         epsilon_bmes_max(d), eps_d, epsilon_bmes_max(d) - eps_d, False)]
        w = tuple_weight(m, tup)
        if not w < 1.0 / (d + 1) + eps_d:
            return [_row("bmes", "weight_precondition", f"i{k}", d, spec.n, spec.seed,
                         1.0 / (d + 1) + eps_d, w, 1.0 / (d + 1) + eps_d - w, False)]
        rep = bmes_report(m, tup, eps_d)
        return [
            _row("bmes", "mass_sum", f"i{k}", d, spec.n, spec.seed,
                 rep.sum_bound, float(rep.cone_masses.sum()), rep.sum_slack, rep.sum_ok),
            _row("bmes", "mass_bounds", f"i{k}", d, spec.n, spec.seed,
                 rep.lower, float(rep.cone_masses.min()),
                 float(min(rep.lower_slacks.min(), rep.upper_slacks.min())),
                 rep.bounds_ok),
        ]

    return [r for k in range(count) for r in one(k)]


def bijection_suite(count: int = 20) -> list[dict]:
    """Unique perfect matching between witness tuples and rotated copies."""

    def one(k):
        spec, m, tup = _witness_instance(k, 100)
        d = spec.dim
        eps = epsilon_match_max(d)
        rot = _small_rotation(d, np.deg2rad(1.0 + (k % 5)), 500 + k)  # 1 to 5 degrees
        tup2 = tup.rotated(rot)
        try:
            rep = match_tuples(m, tup, tup2, eps=eps)
        except (MatchingError, ValueError):
            return [_row("bijection", "perfect_matching", f"i{k}", d, spec.n, spec.seed,
                         1.0, 0.0, -1.0, False)]
        matched = rep.intersection_masses[np.arange(d + 1), rep.permutation]
        off = rep.intersection_masses.copy()
        off[np.arange(d + 1), rep.permutation] = 0.0
        floor = 1.0 / (d + 1) - (3 * d + 2) * eps
        return [
            _row("bijection", "matched_mass", f"i{k}", d, spec.n, spec.seed,
                 floor, float(matched.min()), float(matched.min() - floor),
                 bool(np.all(matched > floor))),
            _row("bijection", "off_matching_mass", f"i{k}", d, spec.n, spec.seed,
                 1e-6, float(off.max()), float(1e-6 - off.max()),
                 bool(np.all(off <= 1e-6))),
        ]

    return [r for k in range(count) for r in one(k)]


def central_suite(containment_pairs: int = 20, estimator_seeds=(0, 1, 2)) -> list[dict]:
    """Central-cone containment on matched pairs, plus the axisymmetric
    estimator checks."""

    def pair(k):
        spec, m, tup = _witness_instance(k, 200)
        d = spec.dim
        angle = np.deg2rad(1.0 + (k % 4))
        tup2 = tup.rotated(_small_rotation(d, angle, 700 + k))
        ca = cones_of(tup).cones
        cb = cones_of(tup2).cones
        try:
            rep = match_tuples(m, tup, tup2, eps=epsilon_match_max(d))
        except (MatchingError, ValueError):
            return [_row("central", "containment", f"i{k}", d, spec.n, spec.seed,
                         1.0, 0.0, -1.0, False)]
        ok_all = True
        checked = 0
        for i in range(d + 1):
            b1, b2 = ca[i], cb[rep.permutation[i]]
            try:
                ok = containment_check(m, b1, b2, seed=900 + k)
            except ValueError:
                continue  # mass hypotheses not met for this pair
            checked += 1
            ok_all &= ok
        return [_row("central", "containment", f"i{k}", d, spec.n, spec.seed,
                     1.0, 1.0 if (ok_all and checked) else 0.0,
                     0.0 if (ok_all and checked) else -1.0, bool(ok_all and checked))]

    # axisymmetric estimator: permutation-symmetric measure in the positive
    # octant of R^3, whose central vector must align with the diagonal
    axis = unit(np.ones(3))
    base = _octant_symmetric_measure(600, 0.15)
    octant = SimplicialCone(-np.eye(3))

    def estimate(s):
        _, e = central_patch(base, octant, seed=s)
        ang = float(np.degrees(np.arccos(np.clip(e @ axis, -1, 1))))
        nrm_err = abs(float(np.linalg.norm(e)) - 1.0)
        return [
            _row("central", "estimator_axis_angle_deg", f"seed{s}", 3, base.n, s,
                 2.0, ang, 2.0 - ang, ang < 2.0),
            _row("central", "estimator_unit_norm", f"seed{s}", 3, base.n, s,
                 1e-12, nrm_err, 1e-12 - nrm_err, nrm_err <= 1e-12),
        ]

    return ([r for k in range(containment_pairs) for r in pair(k)]
            + [r for s in estimator_seeds for r in estimate(s)])


def _octant_symmetric_measure(n_base: int, sigma: float) -> DiscreteMeasure:
    """Coordinate-permutation-invariant cluster inside the positive octant."""
    rng = np.random.default_rng(424242)
    axis = unit(np.ones(3))
    base = np.abs(axis + sigma * rng.standard_normal((n_base, 3)))
    pts = np.vstack([base[:, perm] for perm in itertools.permutations(range(3))])
    return make_measure(pts)


def _empirical_cluster_dirs(mc: DiscreteMeasure, d: int) -> np.ndarray:
    """Unit directions of the d+1 mixture clusters as seen from the origin of
    the recentered measure (the generator assigns clusters round-robin).

    The depth maximizer of a tight mixture is only determined up to a flat
    plateau, so cluster directions must be measured from wherever the
    recentering landed, not from the ideal vertices.
    """
    labels = np.arange(mc.n) % (d + 1)
    return np.array([unit(mc.points[labels == j].mean(axis=0)) for j in range(d + 1)])


def tmap_suite(seeds=(0, 1, 2), dims=(2, 3), trials: int = 10) -> list[dict]:
    """Structural-map validity: positive margin and cluster-aligned vectors,
    one map per (d, seed) of _TMAP_N points.  Then ``trials`` equivariance
    checks in d = 2: rotating the measure maps the structural tuple by the
    same rotation, up to Monte Carlo tolerance (Hausdorff 0.05 after unit
    max-norm scaling)."""

    def validity(d, s):
        a = 1.0 / (d + 1) + 0.5 / (3.0 * (d + 1) ** 3)
        spec = MeasureSpec("simplex_mixture", d, _TMAP_N, {"sigma": 0.01}, 300 + s)
        m = generate_measure(spec)
        mc, _ = recenter(m, balanced=True, starts=8, iters=20, seed=s)
        st = structural_map(mc, a, tuple_samples=160, seed=s)
        ang = _cluster_angles_deg(st.vectors, _empirical_cluster_dirs(mc, d))
        return [
            _row("tmap", "interior_margin", f"d{d}s{s}", d, _TMAP_N, s,
                 0.0, st.margin, st.margin, st.margin > 0),
            _row("tmap", "cluster_angle_deg", f"d{d}s{s}", d, _TMAP_N, s,
                 10.0, float(ang.max()), float(10.0 - ang.max()),
                 bool(np.all(ang < 10.0))),
        ]

    def equivariance(t):
        d = 2
        a = 1.0 / (d + 1) + 0.5 / (3.0 * (d + 1) ** 3)
        spec = MeasureSpec("simplex_mixture", d, _TMAP_N, {"sigma": 0.01}, 800 + t)
        m = generate_measure(spec)
        mc, _ = recenter(m, balanced=True, starts=8, iters=20, seed=t)
        r = random_rotation(d, 900 + t)
        st1 = structural_map(mc, a, tuple_samples=160, seed=t)
        st2 = structural_map(mc.rotated(r), a, tuple_samples=160, seed=t)
        v1 = st1.vectors @ r.T  # rotate the original output
        v2 = st2.vectors
        v1 = v1 / np.abs(np.linalg.norm(v1, axis=1)).max()
        v2 = v2 / np.abs(np.linalg.norm(v2, axis=1)).max()
        h = _hausdorff(v1, v2)
        return [_row("tmap", "equivariance_hausdorff", f"t{t}", d, _TMAP_N, t,
                     0.05, h, 0.05 - h, h <= 0.05)]

    return ([r for d in dims for s in seeds for r in validity(d, s)]
            + [r for t in range(trials) for r in equivariance(t)])


def _cluster_angles_deg(vectors: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """Greedy one-to-one angles between output vectors and cluster directions."""
    vhat = vectors / np.linalg.norm(vectors, axis=1)[:, None]
    cosm = vhat @ verts.T
    k = vectors.shape[0]
    used_v, used_c = set(), set()
    out = []
    order = np.dstack(np.unravel_index(np.argsort(-cosm, axis=None), cosm.shape))[0]
    for i, j in order:
        if i in used_v or j in used_c:
            continue
        used_v.add(int(i))
        used_c.add(int(j))
        out.append(np.degrees(np.arccos(np.clip(cosm[i, j], -1, 1))))
        if len(out) == k:
            break
    return np.asarray(out)


def _hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    dists = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return float(max(dists.min(axis=1).max(), dists.min(axis=0).max()))


class Suite(NamedTuple):
    """A registered suite: its function, whose keyword defaults are the
    acceptance parameters, and the reduced parameters of the quick pass."""

    fn: Callable[..., list[dict]]
    quick: dict


# The one definition of every suite and its sizes: the CLI ``verify``
# command, scripts/run_verify_all.py and the acceptance tests all read it.
SUITES = {
    "oracle": Suite(oracle_suite, {"instances_per_dim": 20}),
    "rado": Suite(rado_suite, {"dims": (2, 3), "seeds_per_dim": 8, "n": 200}),
    "theorem1": Suite(theorem1_suite, {"grid_count": 300, "n": 300}),
    "bmes": Suite(bmes_suite, {"count": 6}),
    "bijection": Suite(bijection_suite, {"count": 6}),
    "central": Suite(central_suite, {"containment_pairs": 4, "estimator_seeds": (0,)}),
    "tmap": Suite(tmap_suite, {"seeds": (0,), "trials": 2}),
}


def run_suite(name: str, params: dict | None = None) -> list[dict]:
    """Run a registered suite at its acceptance parameters, with ``params``
    overriding any of them."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; valid: {', '.join(SUITES)}")
    return SUITES[name].fn(**(params or {}))
