"""Tukey median search, minimizing-normal sets, witness tuple extraction, recentering.

The median search is exact in dim <= 2 at any n (lazy depth-region cuts in
the plane) and a seeded multistart ascent above, whose depths come from the
exact evaluator where ``depth.exact_affordable`` allows it and from the
certified net lower bound otherwise: no reported depth overstates the truth.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .geometry import DEFAULT_TOL, hull_interior_margin, sample_directions
from .measures import DiscreteMeasure
from .depth import (
    _row_blocks,
    _units,
    certified_depth_floor,
    closed_mass_bounds,
    exact_affordable,
    exact_depth_value_2d,
    exact_depth_values_2d,
    point_depth,
    sampled_depth_values,
)
from . import cones as _cones

_AXES = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])  # the first cuts of the planar median
_LAMBDA_MIN = 1e-6  # smallest hull margin of the origin in a witness tuple
_RING = 4  # past witnesses each ascent start remembers
_CENTER_RADIUS = 0.35  # angle (radians) of the neighbourhood a witness normal is centred in


@dataclass(frozen=True, eq=False)
class MedianResult:
    point: np.ndarray
    depth: float
    candidates_evaluated: int


@dataclass(frozen=True, eq=False)
class NormalSet:
    normals: np.ndarray  # (k, d) unit rows
    level: float


class WitnessSearchError(RuntimeError):
    """No qualifying half-space tuple found; carries the best margin seen."""

    def __init__(self, msg: str, best_margin: float):
        super().__init__(msg)
        self.best_margin = best_margin


def _final_depth(m: DiscreteMeasure, x: np.ndarray) -> float:
    """Best affordable certified depth value at x (exact where feasible)."""
    if m.dim == 2:
        return exact_depth_value_2d(m, x)[0]
    if exact_affordable(m):
        return point_depth(m, x, mode="exact").depth
    return certified_depth_floor(m, x, gamma=0.1)


def _finals(points: np.ndarray, weights: np.ndarray, endpoints: list, count: int) -> list:
    """(final depth, point) of the ``count`` best endpoints in (points,
    weights).  In the plane the ascent's evaluator is exact: they are final."""
    if points.shape[1] == 2:
        return endpoints[:count]
    m = DiscreteMeasure(points.shape[1], points, weights)
    return [(_final_depth(m, x), x) for _, x in endpoints[:count]]


def _cheap_depths(pts: np.ndarray, w: np.ndarray, own: np.ndarray, seeds: np.ndarray):
    """The ascent's evaluator and the rule for what bounds it in the
    measures (pts[k], w[k]), row r a point of measure own[r].  Exact in the
    plane, all rows in one batched sweep; above, the sampled upper bound
    over the 192 directions of seed seeds[r], drawn once per seed for the
    whole ascent, all rows in one batched evaluation.

    Returns (evaluate, bound): evaluate(rows, x) -> (depths, witness
    directions); bound(rows, x, mine, theirs) -> an upper bound on each
    row's depth from the directions mine (R, a, d), the row's own past
    witnesses, and theirs (R, b, d), the current witnesses of the other
    starts of its measure.  The planar depth is a minimum over every
    direction, so both kinds bound it; the sampled one is a minimum over
    the row's own directions only, so only its own witnesses do.  The
    bound's set-up (``depth.closed_mass_bounds``: the measures' points
    augmented by a 1 and their bounding boxes) is built here, once per
    ascent.
    """
    bound = closed_mass_bounds(pts, w)
    if pts.shape[2] == 2:
        return (lambda rows, x: exact_depth_values_2d(pts, w, own[rows], x),
                lambda rows, x, mine, theirs: bound(own[rows], x, np.concatenate([mine, theirs], axis=1)))
    keys, pick = np.unique(seeds, return_inverse=True)
    dirs = np.stack([sample_directions(pts.shape[2], 192, seed=int(s), mode="sphere") for s in keys])
    return (lambda rows, x: sampled_depth_values(pts, w, own[rows], x, dirs[pick[rows]]),
            lambda rows, x, mine, theirs: bound(own[rows], x, mine))


def _start_points(pts: np.ndarray, w: np.ndarray, starts: int, seed: int) -> np.ndarray:
    """(M, starts, d) ascent starts in (pts[k], w[k]): the weighted mean (the
    bits of w[k] @ pts[k]), the coordinate medians, then points seed draws."""
    out = [np.matmul(w[:, None, :], pts), np.median(pts, axis=1, keepdims=True)]
    if starts > 2:
        out.append(pts[:, np.random.default_rng(seed).integers(0, pts.shape[1], size=starts - 2)])
    return np.concatenate(out, axis=1)[:, :starts]


def tukey_median(
    m: DiscreteMeasure,
    mode: str = "auto",
    starts: int = 16,
    iters: int = 30,
    seed: int = 0,
) -> MedianResult:
    """Search for a depth-maximizing point.

    exact        (dim <= 2, any n) one pass over the distinct values on a
                 line, lazy depth-region cuts in the plane.
    multistart   seeded starts refined by witness descent (steps against the
                 minimizing half-space normal, shrinking); the best cheap depth
                 wins, the earlier start on a tie, re-evaluated in dim >= 3.
    auto         exact in dim <= 2, else multistart.
    """
    return tukey_medians(m.points[None], m.weights, mode, starts, iters, seed)[0]


def tukey_medians(points, weights, mode: str = "auto", starts: int = 16, iters: int = 30,
                  seed: int = 0) -> list[MedianResult]:
    """``tukey_median`` of each measure (points[k], weights[k]) of one
    stack, points (M, n, d) and weights (M, n) or one (n,) array that all
    share, the multistart ascents of all of them stepping in lockstep."""
    weights = np.broadcast_to(weights, points.shape[:2])
    d = points.shape[2]
    if mode == "auto":
        mode = "exact" if d <= 2 else "multistart"
    if mode not in ("exact", "multistart"):
        raise ValueError(f"unknown budget mode {mode!r}")
    if d == 1:
        return [_line_median(p[:, 0], w) for p, w in zip(points, weights)]
    if mode == "exact":
        if d != 2:
            raise ValueError(f"exact mode requires dim <= 2, got dim = {d}")
        return [_planar_median(p, w) for p, w in zip(points, weights)]
    out = []
    for p, w, (endpoints, evals) in zip(points, weights,
                                        _multistart_endpoints(points, weights, starts, iters, seed)):
        (dep, x), = _finals(p, w, endpoints, 1)
        out.append(MedianResult(x, float(dep), evals + 1))
    return out


def _line_median(x: np.ndarray, w: np.ndarray) -> MedianResult:
    """Exact median on a line: a distinct value's depth is the lesser of the
    units at or below it and at or above it; the smallest deepest wins."""
    vals, which = np.unique(x, return_inverse=True)
    units, scale = _units(w)
    per = np.bincount(which, weights=units, minlength=vals.size)
    below = np.cumsum(per)
    depth = np.minimum(below, below[-1] - below + per) / scale
    j = int(np.argmax(depth))
    return MedianResult(vals[j : j + 1], float(depth[j]), vals.size)


def _level(y: np.ndarray, units: np.ndarray, scale: float, depth: float, cuts: np.ndarray):
    """t(v) for each unit row v of cuts (C, 2), the largest t with more than
    ``depth`` mass (exact unit counts) in {<v, y> >= t}, and the point of y
    holding it.  Products here and in ``_planar_median`` are elementwise, so
    BLAS moves no bit."""
    proj = cuts[:, None, 0] * y[:, 0] + cuts[:, None, 1] * y[:, 1]
    order = np.argsort(-proj, axis=1)
    hold = order[np.arange(len(cuts)), np.argmax(np.cumsum(units[order], axis=1) / scale > depth, axis=1)]
    return proj[np.arange(len(cuts)), hold], hold


def _planar_median(pts: np.ndarray, w: np.ndarray) -> MedianResult:
    """Exact planar median by lazy depth-region cuts (after Rousseeuw & Ruts,
    "Constructing the bivariate Tukey median", 1998): the depth at z is above
    k if and only if <v, z> <= t(v) for every unit v (``_level``), and t is
    linear between the critical directions, the normals of x_i - x_j.

    From the weighted mean, its exact depth k and the axes as cuts (centred
    at the mean), each round sweeps in one batch the vertices of the cut
    polygon (pairwise intersections of cut lines that satisfy every cut
    within 1e-12 of the data's span), their mean and the data points within
    1e-6 of the span of a vertex, and moves to the deepest if it beats k.
    Else the mean's witness u violates its cut, and so does one of the two
    critical directions that bracket u among the normals of x_i - x_j, x_j
    holding t(u): both become cuts.  Cuts compare as exact rows, so they are
    finitely many; the loop stops at no vertex, no new cut or no level left.
    """
    units, scale = _units(w)
    centre = (w[:, None] * pts).sum(axis=0)
    y = pts - centre
    span = float(np.abs(y).max()) or 1.0
    (depth,), _ = exact_depth_values_2d(pts[None], w[None], [0], centre[None])
    x, evals, cuts = centre, 1, _AXES
    while depth < 1.0:
        t, _ = _level(y, units, scale, depth, cuts)
        a, b = np.triu_indices(len(cuts), k=1)
        det = cuts[a, 0] * cuts[b, 1] - cuts[a, 1] * cuts[b, 0]
        keep = np.abs(det) > 1e-12
        a, b, det = a[keep], b[keep], det[keep]
        z = np.column_stack([(t[a] * cuts[b, 1] - t[b] * cuts[a, 1]) / det,
                             (cuts[a, 0] * t[b] - cuts[b, 0] * t[a]) / det])
        inside = z[:, None, 0] * cuts[:, 0] + z[:, None, 1] * cuts[:, 1] <= t + 1e-12 * span
        z = np.unique(z[inside.all(axis=1)], axis=0)
        if not len(z):
            break
        near = np.array([((y - v) ** 2).sum(axis=1) for v in z]).min(axis=0) <= (1e-6 * span) ** 2
        q = np.vstack([z + centre, z.mean(axis=0) + centre, pts[near]])
        vals, dirs = exact_depth_values_2d(pts[None], w[None], np.zeros(len(q), dtype=int), q)
        evals += len(q)
        j = int(np.argmax(vals))
        if vals[j] > depth:
            x, depth = q[j], vals[j]
            continue
        u = dirs[len(z)]
        _, (h,) = _level(y, units, scale, depth, u[None])
        # of the axes and both normals of each y_i - y_h != 0, the nearest on either side of u
        d = y[(y != y[h]).any(axis=1)] - y[h]
        nrm = np.column_stack([-d[:, 1], d[:, 0]]) / np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])[:, None]
        cand = np.vstack([nrm, -nrm, _AXES])
        ang = np.mod(np.arctan2(cand[:, 1], cand[:, 0]) - np.arctan2(u[1], u[0]), 2.0 * np.pi)
        new = [c for c in cand[[np.argmin(ang), np.argmax(ang)]] if not (cuts == c).all(axis=1).any()]
        if not new:
            break
        cuts = np.vstack([cuts, new])
    return MedianResult(x.copy(), float(depth), evals)


def _multistart_endpoints(pts: np.ndarray, w: np.ndarray, starts: int, iters: int, seed: int) -> list:
    """Witness-descent ascent from the seeded starts of every measure
    (pts[k], w[k]) of the stacks pts (M, n, d) and w (M, n).

    All starts step in lockstep: each iteration evaluates the full step of
    every active start in one batch, then the quarter step of those that did
    not improve; a start that moves neither way halves its step and stops
    below 1e-4 of its measure's scale.  Per measure: its endpoints (cheap
    depth, point) sorted by the cheap depth, best first (stable in start
    order), and its number of evaluations.

    A step is swept only if no remembered direction shows that it cannot
    improve: each start keeps its last _RING witnesses, and where
    ``_cheap_depths`` allows, the current witnesses of the other starts of
    its measure count too.  A direction's closed mass at the step, with one
    slack for the step (``depth.closed_mass_bounds``, one affine test per
    direction), bounds the step's depth from above.  The bound and the
    depths are exact counts of mass units over the same scale
    (``depth._units``), so for every measure a bound at most the start's
    depth proves that the step would fail ``d_new > d_cur``.  Such a step
    is dropped unswept (the evaluator is not called when a batch sweeps no
    row) and the start stays as it is.
    It still counts as an evaluation, so the counts, endpoints and depths
    are those of sweeping every step.
    """
    M, _, d = pts.shape
    x0 = _start_points(pts, w, starts, seed)
    per = x0.shape[1]  # starts per measure
    x = x0.reshape(M * per, d)
    own, s_i = np.divmod(np.arange(M * per), per)
    dev = pts - x0[:, :1]  # from the weighted mean, squared in place with np.linalg.norm's bits
    scale = np.sqrt(np.multiply(dev, dev, out=dev).sum(axis=2)).mean(axis=1)
    scale = np.where(scale == 0.0, 1.0, scale)[own]
    del dev
    evaluate, bound = _cheap_depths(pts, w, own, seed + 7 * s_i)
    d_cur, wit = evaluate(np.arange(len(x)), x)
    evals = np.ones(len(x), dtype=int)
    ring = np.repeat(wit[:, None, :], _RING, axis=1)  # slot: evaluation count mod _RING
    others = own[:, None] * per + (s_i[:, None] + np.arange(1, per)) % per
    step = scale / 3.0
    live = np.arange(len(x))
    for _ in range(iters):
        moved = np.zeros(len(live), dtype=bool)
        for div in (1.0, 4.0):  # eta = step, then step / 4
            rows = live[~moved]
            if not rows.size:
                break
            cand = x[rows] - (step[rows] / div)[:, None] * wit[rows]
            evals[rows] += 1
            swept = bound(rows, cand, ring[rows], wit[others[rows]]) > d_cur[rows]
            d_new, wit_new = np.full(len(rows), -np.inf), wit[rows]
            sw = rows[swept]
            if sw.size:
                d_new[swept], wit_new[swept] = evaluate(sw, cand[swept])
                ring[sw, evals[sw] % _RING] = wit_new[swept]
            up = d_new > d_cur[rows]
            x[rows[up]], d_cur[rows[up]], wit[rows[up]] = cand[up], d_new[up], wit_new[up]
            moved[~moved] = up
        step[live[~moved]] *= 0.5
        live = live[moved | (step[live] >= 1e-4 * scale[live])]
    out = []
    for k in range(M):
        rows = np.flatnonzero(own == k)
        endpoints = [(d_cur[r], x[r]) for r in rows]
        endpoints.sort(key=lambda t: -t[0])
        out.append((endpoints, int(evals[rows].sum())))
    return out


def balanced_median(
    m: DiscreteMeasure,
    starts: int = 16,
    iters: int = 30,
    seed: int = 0,
) -> MedianResult:
    """A depth maximizer chosen centrally within its plateau (multistart).

    Depth super-level sets are convex, so the average of tied maximizers is
    again a maximizer; averaging pulls the anchor away from plateau corners,
    which keeps the surrounding set of minimizing normals spread out (the
    single point of ``tukey_median`` may sit at a corner instead).
    """
    endpoints, evals = _multistart_endpoints(m.points[None], m.weights[None], starts, iters, seed)[0]
    scored = _finals(m.points, m.weights, endpoints, 6 if m.dim <= 2 else 3)
    evals += len(scored)
    best = max(s for s, _ in scored)
    ties = [x for s, x in scored if s >= best - 1e-9]
    center = np.mean(ties, axis=0)
    dep = _final_depth(m, center)
    evals += 1
    if dep >= best - 1e-12:
        return MedianResult(center, float(dep), evals)
    # numerically off the plateau; fall back to the best endpoint
    s, x = max(scored, key=lambda t: t[0])
    return MedianResult(x, float(s), evals)


def recenter(
    m: DiscreteMeasure, balanced: bool = False, **budget
) -> tuple[DiscreteMeasure, MedianResult]:
    """Translate the measure so its median sits at the origin:
    ``tukey_median`` with the budget given (exact in the plane under the
    default ``auto``), or with ``balanced=True`` the plateau-central
    maximizer of ``balanced_median``, which witness extraction prefers.
    """
    if balanced:
        res = balanced_median(m, **budget)
    else:
        res = tukey_median(m, **budget)
    return m.translated(-res.point), res


def min_normal_set(
    m: DiscreteMeasure,
    o,
    tol: float = 1e-6,
    seed: int = 0,
) -> NormalSet:
    """Sample of the unit normals n whose closed half-space through o
    (outer normal n) carries mass at most depth(o) + tol.

    One ``point_depth`` call gives the level depth(o) and its witness u:
    exact where ``exact_affordable`` holds, else the sampled upper bound over
    8192 directions with the same seed.  The witness minimizes the mass of
    {x : <u, x - o> >= 0}, so the normal that attains the level is n = -u.
    The candidates are 4096 seeded sphere directions plus -u; each is kept
    when its closed mass, an exact count of mass units, passes the test.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    o = np.asarray(o, dtype=float)
    if exact_affordable(m):
        res = point_depth(m, o, mode="exact")
    else:
        res = point_depth(m, o, mode="sampled", sample_count=8192, seed=seed)
    cand = np.vstack([sample_directions(m.dim, 4096, seed=seed, mode="sphere"), -res.witness])
    cand /= np.linalg.norm(cand, axis=1)[:, None]
    # closed mass of H(n) = {x : <n, x - o> <= 0} for every candidate normal,
    # an exact count of mass units over the scale, as the level is
    p = m.points - o
    units, scale = _units(m.weights)
    masses = np.empty(cand.shape[0])
    for blk in _row_blocks(cand.shape[0], m.n):
        masses[blk] = ((cand[blk] @ p.T) <= DEFAULT_TOL) @ units
    sel = masses / scale <= res.depth + tol
    return NormalSet(cand[sel], float(res.depth))


def _best_subtuple(normals: np.ndarray, d: int):
    """(d+1)-subset of rows maximizing the interior margin of 0 in its hull."""
    k = normals.shape[0]
    idx = np.array(list(itertools.combinations(range(k), d + 1)), dtype=int)
    mats = np.empty((idx.shape[0], d + 1, d + 1))
    mats[:, :d, :] = np.transpose(normals[idx], (0, 2, 1))
    mats[:, d, :] = 1.0
    rhs = np.zeros(d + 1)
    rhs[d] = 1.0
    dets = np.linalg.det(mats)
    ok = np.abs(dets) > 1e-12
    lams = np.full((idx.shape[0], d + 1), -np.inf)
    if ok.any():
        nb = int(ok.sum())
        rhs_b = np.broadcast_to(rhs[:, None], (nb, d + 1, 1)).copy()
        lams[ok] = np.linalg.solve(mats[ok], rhs_b)[:, :, 0]
    margins = lams.min(axis=1)
    j = int(np.argmax(margins))
    return idx[j], float(margins[j])


def _spread_subsample(normals: np.ndarray, target: int) -> np.ndarray:
    """Greedy farthest-point subsample, keeping the angular spread."""
    if normals.shape[0] <= target:
        return normals
    chosen = [0]
    d = normals @ normals[0]
    for _ in range(target - 1):
        j = int(np.argmin(d))
        chosen.append(j)
        d = np.maximum(d, normals @ normals[j])
    return normals[chosen]


def witness_tuple(
    m: DiscreteMeasure,
    o,
    tol: float = 1e-6,
    seed: int = 0,
):
    """Generating (d+1)-tuple of half-spaces through o witnessing the median.

    Picks d + 1 minimizing normals n_i with the origin strictly inside their
    convex hull, so each half-space {x : <n_i, x - o> <= 0} has mass at most
    depth(o) + tol and the intersection of their complements is {o}.  The
    returned tuple uses the complement orientation (outer normals -n_i),
    which is the small-weight form consumed by the cone machinery:
    its weight equals depth(o) up to discretization.
    """
    o = np.asarray(o, dtype=float)
    d = m.dim
    nset = min_normal_set(m, o, tol=tol, seed=seed)
    if nset.level > 1.0 / d + 1e-9:
        raise WitnessSearchError(
            f"depth at anchor is {nset.level}, above the 1/d regime", 0.0
        )
    if nset.normals.shape[0] < d + 1:
        raise WitnessSearchError(
            f"only {nset.normals.shape[0]} minimizing normals found", 0.0
        )
    cand = _spread_subsample(nset.normals, 28)
    sub, margin = _best_subtuple(cand, d)
    if margin < _LAMBDA_MIN:
        raise WitnessSearchError(
            f"no (d+1)-subset of minimizing normals surrounds the origin "
            f"(best margin {margin:.3g})",
            margin,
        )
    chosen = _center_in_normal_set(cand[sub], nset.normals, m, o, nset.level, tol)
    if hull_interior_margin(chosen) < _LAMBDA_MIN:
        chosen = cand[sub]
    return _cones.GeneratingTuple(-chosen), nset


def _center_in_normal_set(chosen, all_normals, m, o, level, tol):
    """Replace each chosen normal by the centroid of its angular neighborhood
    inside the minimizing set, keeping it well clear of the set's edges (a
    nearby rotation of the tuple then stays minimizing).  A centered normal
    is kept only if its half-space mass still qualifies."""
    pts = m.points - o
    units, scale = _units(m.weights)
    out = chosen.copy()
    for i, n in enumerate(chosen):
        near = all_normals[all_normals @ n >= np.cos(_CENTER_RADIUS)]
        if near.shape[0] < 2:
            continue
        c = near.mean(axis=0)
        nc = float(np.linalg.norm(c))
        if nc < 1e-9:
            continue
        c /= nc
        if float(units[pts @ c <= DEFAULT_TOL].sum()) / scale <= level + tol:
            out[i] = c
    return out
