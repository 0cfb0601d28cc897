"""Tukey median search, minimizing-normal sets, witness tuple extraction, recentering.

The median search is exact in dim <= 2 at any n (lazy depth-region cuts in
the plane) and a seeded multistart ascent above, whose depth bracket comes
from ``depth.depth_bracket`` with the ascent's sampled depth as its upper
end: no reported depth (the lower end) overstates the truth.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import DEFAULT_TOL, check_count, hull_interior_margin, sample_directions
from .measures import DiscreteMeasure
from .depth import (
    DepthResult,
    _row_blocks,
    closed_mass_bounds,
    depth_bracket,
    exact_depth_values,
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
    bracket: DepthResult  # at point; depth reads its lower end
    candidates_evaluated: int

    @property
    def depth(self) -> float:
        return self.bracket.lower


@dataclass(frozen=True, eq=False)
class NormalSet:
    normals: np.ndarray  # (k, d) unit rows
    level: float


class WitnessSearchError(RuntimeError):
    """No qualifying half-space tuple found; carries the best margin seen."""

    def __init__(self, msg: str, best_margin: float):
        super().__init__(msg)
        self.best_margin = best_margin


def _final(points: np.ndarray, m: DiscreteMeasure, v: float, x: np.ndarray, u: np.ndarray) -> DepthResult:
    """The bracket at x of an ascent endpoint (cheap depth v, witness u) in
    points, an image of the points of m weighted as m.  In the plane the
    ascent's evaluator is exact, so v is final; above, ``depth_bracket``
    with (v, u) as its upper end."""
    if points.shape[1] == 2:
        return DepthResult(v, v, u)
    return depth_bracket(DiscreteMeasure(points.shape[1], points, m.weights), x, upper=DepthResult(0.0, v, u))


def _cheap_depths(pts: np.ndarray, m: DiscreteMeasure, own: np.ndarray, seeds: np.ndarray):
    """The ascent's evaluator in the images pts[k] of the points of m, row r
    a point of image own[r]: evaluate(rows, x) -> (depths, witness
    directions).  Exact in the plane, all rows in one batched sweep; above,
    the sampled upper bound over the 192 directions of seed seeds[r], drawn
    once per seed for the whole ascent, all rows in one batched evaluation.
    Either way a row's depth is a minimum over directions that include every
    witness the row's start has found: every direction in the plane, the
    start's own sample above it.
    """
    if pts.shape[2] == 2:
        return lambda rows, x: exact_depth_values(pts, m, own[rows], x)
    keys, pick = np.unique(seeds, return_inverse=True)
    dirs = np.stack([sample_directions(pts.shape[2], 192, seed=int(s), mode="sphere") for s in keys])
    return lambda rows, x: sampled_depth_values(pts, m, own[rows], x, dirs[pick[rows]])


def _start_points(pts: np.ndarray, m: DiscreteMeasure, starts: int, seed: int) -> np.ndarray:
    """(M, starts, d) ascent starts in the images pts[k] of the points of m:
    the weighted mean (the bits of m.weights @ pts[k]), the coordinate
    medians, then points seed draws."""
    out = [np.matmul(m.weights, pts)[:, None], np.median(pts, axis=1, keepdims=True)]
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

    ``starts`` >= 1 and ``iters`` >= 0 must be integers (``ValueError``
    before any work, in every mode and in ``balanced_median``).
    """
    return tukey_medians(m.points[None], m, mode, starts, iters, seed)[0]


def tukey_medians(points, m: DiscreteMeasure, mode: str = "auto", starts: int = 16, iters: int = 30,
                  seed: int = 0) -> list[MedianResult]:
    """``tukey_median`` of each image points[k] (points (M, n, d)) of the
    points of m, weighted as m, the multistart ascents of all of them
    stepping in lockstep."""
    check_count("starts", starts, 1)
    check_count("iters", iters, 0)
    d = points.shape[2]
    if mode == "auto":
        mode = "exact" if d <= 2 else "multistart"
    if mode not in ("exact", "multistart"):
        raise ValueError(f"unknown budget mode {mode!r}")
    if d == 1:
        return [_line_median(p[:, 0], m) for p in points]
    if mode == "exact":
        if d != 2:
            raise ValueError(f"exact mode requires dim <= 2, got dim = {d}")
        return [_planar_median(p, m) for p in points]
    depths, xs, wits, evals = _multistart_endpoints(points, m, starts, iters, seed)
    best = np.argmax(depths, axis=1)  # the first deepest start
    return [MedianResult(xs[k, j], _final(p, m, float(depths[k, j]), xs[k, j], wits[k, j]), int(evals[k]) + 1)
            for k, (p, j) in enumerate(zip(points, best))]


def _line_median(x: np.ndarray, m: DiscreteMeasure) -> MedianResult:
    """Exact median on a line x, the image of the points of m: a distinct
    value's depth is the lesser of m's units at or below it and at or above
    it; the smallest deepest wins, its witness toward the lesser side."""
    vals, which = np.unique(x, return_inverse=True)
    per = np.bincount(which, weights=m.units, minlength=vals.size)
    below = np.cumsum(per)
    depth = np.minimum(below, below[-1] - below + per) / m.scale
    j = int(np.argmax(depth))
    res = DepthResult(float(depth[j]), float(depth[j]), np.array([-1.0 if depth[j] == below[j] / m.scale else 1.0]))
    return MedianResult(vals[j : j + 1], res, vals.size)


def _level(y: np.ndarray, m: DiscreteMeasure, depth: float, cuts: np.ndarray):
    """t(v) for each unit row v of cuts (C, 2), the largest t with more than
    ``depth`` mass (exact counts of m's units) in {<v, y> >= t}, y an image
    of the points of m, and the point of y holding it.  Products here and
    in ``_planar_median`` are elementwise, so BLAS moves no bit."""
    proj = cuts[:, None, 0] * y[:, 0] + cuts[:, None, 1] * y[:, 1]
    order = np.argsort(-proj, axis=1)
    hold = order[np.arange(len(cuts)), np.argmax(np.cumsum(m.units[order], axis=1) / m.scale > depth, axis=1)]
    return proj[np.arange(len(cuts)), hold], hold


def _planar_median(pts: np.ndarray, m: DiscreteMeasure) -> MedianResult:
    """Exact planar median by lazy depth-region cuts (after Rousseeuw & Ruts,
    "Constructing the bivariate Tukey median", 1998): the depth at z is above
    k if and only if <v, z> <= t(v) for every unit v (``_level``), and t is
    linear between the critical directions, the normals of x_i - x_j.

    From the weighted mean, its exact depth k and the axes as cuts (centred
    at the mean), each round sweeps in one batch the vertices of the cut
    polygon (pairwise intersections of cut lines that satisfy every cut
    within 1e-12 of the data's span), their mean and the data points within
    1e-6 of the span of a vertex, and moves to the first deepest if it beats
    k.  Each distinct row is swept once per median, its first copy in
    order: a row swept before is at most the level, so it cannot win, and
    its witness is kept.  Else the mean's witness u violates its cut, and
    so does one of the two critical directions that bracket u among the
    normals of x_i - x_j, x_j holding t(u): both become cuts.  Cuts compare
    as exact rows, so they are finitely many; the loop stops at no vertex,
    no new cut or no level left.
    """
    centre = (m.weights[:, None] * pts).sum(axis=0)
    y = pts - centre
    span = float(np.abs(y).max()) or 1.0
    (depth,), (wit,) = exact_depth_values(pts[None], m, [0], centre[None])
    x, evals, cuts, swept = centre, 1, _AXES, {centre.tobytes(): wit}  # row bytes -> witness
    while depth < 1.0:
        t, _ = _level(y, m, depth, cuts)
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
        mean = z.mean(axis=0) + centre
        rows = dict.fromkeys(r.tobytes() for r in np.vstack([z + centre, mean[None], pts[near]]))
        q = np.array([np.frombuffer(r) for r in rows if r not in swept]).reshape(-1, 2)
        vals, dirs = exact_depth_values(pts[None], m, np.zeros(len(q), dtype=int), q)
        swept.update(zip(map(np.ndarray.tobytes, q), dirs))
        evals += len(q)
        if len(q) and vals.max() > depth:
            j = int(np.argmax(vals))
            x, depth, wit = q[j], vals[j], dirs[j]
            continue
        u = swept[mean.tobytes()]
        _, (h,) = _level(y, m, depth, u[None])
        # of the axes and both normals of each y_i - y_h != 0, the nearest on either side of u
        d = y[(y != y[h]).any(axis=1)] - y[h]
        nrm = np.column_stack([-d[:, 1], d[:, 0]]) / np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])[:, None]
        cand = np.vstack([nrm, -nrm, _AXES])
        ang = np.mod(np.arctan2(cand[:, 1], cand[:, 0]) - np.arctan2(u[1], u[0]), 2.0 * np.pi)
        new = [c for c in cand[[np.argmin(ang), np.argmax(ang)]] if not (cuts == c).all(axis=1).any()]
        if not new:
            break
        cuts = np.vstack([cuts, new])
    return MedianResult(x.copy(), DepthResult(float(depth), float(depth), wit), evals)


def _multistart_endpoints(pts: np.ndarray, m: DiscreteMeasure, starts: int, iters: int, seed: int):
    """Witness-descent ascent from the seeded starts of every image pts[k]
    (pts (M, n, d)) of the points of m, weighted as m.

    All starts step in lockstep: each iteration evaluates the full step of
    every active start in one batch, then the quarter step of those that did
    not improve; a start that moves neither way halves its step and stops
    below 1e-4 of its image's scale.  Returns each start's endpoint, in start
    order: its cheap depth (M, starts), point and witness (M, starts, d),
    and each image's number of evaluations (M,).

    A step is swept only if its start's own last _RING witnesses do not show
    that it cannot improve.  The start's evaluator minimizes over every
    direction in the plane and over the start's own sample above it, and
    its witnesses lie among those directions, so a witness's closed mass at
    the step, with one slack for the step (``depth.closed_mass_bounds``, one
    affine test per direction), bounds the step's depth from above.  The
    bound and the depths are exact counts of m's mass units over its scale,
    so a bound at most the start's depth proves that the step would fail
    ``d_new > d_cur``.  Such a step is dropped unswept (the evaluator is
    not called when a batch sweeps no row) and the start stays as it is.
    It still counts as an evaluation, so the counts, endpoints and depths
    are those of sweeping every step.
    """
    M, _, d = pts.shape
    x0 = _start_points(pts, m, starts, seed)
    per = x0.shape[1]  # starts per measure
    x = x0.reshape(M * per, d)
    own, s_i = np.divmod(np.arange(M * per), per)
    dev = pts - x0[:, :1]  # from the weighted mean, squared in place with np.linalg.norm's bits
    scale = np.sqrt(np.multiply(dev, dev, out=dev).sum(axis=2)).mean(axis=1)
    scale = np.where(scale == 0.0, 1.0, scale)[own]
    del dev
    evaluate, bound = _cheap_depths(pts, m, own, seed + 7 * s_i), closed_mass_bounds(pts, m)
    d_cur, wit = evaluate(np.arange(len(x)), x)
    evals = np.ones(len(x), dtype=int)
    ring = np.repeat(wit[:, None, :], _RING, axis=1)  # slot: evaluation count mod _RING
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
            swept = bound(own[rows], cand, ring[rows]) > d_cur[rows]
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
    return d_cur.reshape(M, per), x.reshape(M, per, d), wit.reshape(M, per, d), evals.reshape(M, per).sum(axis=1)


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
    check_count("starts", starts, 1)
    check_count("iters", iters, 0)
    (depths,), (xs,), (wits,), (evals,) = _multistart_endpoints(m.points[None], m, starts, iters, seed)
    order = np.argsort(-depths, kind="stable")[: 6 if m.dim <= 2 else 3]  # best first, earlier start on a tie
    scored = [(_final(m.points, m, float(depths[j]), xs[j], wits[j]), xs[j]) for j in order]
    evals = int(evals) + len(scored)
    best = max(r.depth for r, _ in scored)
    ties = [x for r, x in scored if r.depth >= best - 1e-9]
    center = np.mean(ties, axis=0)
    res = depth_bracket(m, center, seed=seed)
    evals += 1
    if res.depth >= best - 1e-12:
        return MedianResult(center, res, evals)
    # numerically off the plateau; fall back to the best endpoint
    r, x = max(scored, key=lambda t: t[0].depth)
    return MedianResult(x, r, evals)


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

    One ``depth_bracket`` at o gives the level, its upper end (the exact
    depth where that is affordable, else the sampled bound over 8192
    directions with the same seed), and its witness u, whose closed
    half-space {x : <u, x - o> >= 0} carries the level, so the normal that
    attains it is n = -u.
    The candidates are 4096 seeded sphere directions plus -u; each is kept
    when its closed mass, an exact count of mass units (``unit_sums``, the
    measure's rule), passes the test.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    o = np.asarray(o, dtype=float)
    res = depth_bracket(m, o, seed=seed)
    cand = np.vstack([sample_directions(m.dim, 4096, seed=seed, mode="sphere"), -res.witness])
    cand /= np.linalg.norm(cand, axis=1)[:, None]
    # closed mass of H(n) = {x : <n, x - o> <= 0} for every candidate normal,
    # an exact count of mass units over the scale, as the level is
    p = m.points - o
    masses = np.empty(cand.shape[0])
    for blk in _row_blocks(cand.shape[0], m.n):
        masses[blk] = m.unit_sums((cand[blk] @ p.T) <= DEFAULT_TOL)
    sel = masses / m.scale <= res.upper + tol
    return NormalSet(cand[sel], res.upper)


def _best_subtuple(normals: np.ndarray, d: int):
    """(d+1)-subset of rows maximizing the interior margin of 0 in its hull
    (the first of equal ones) and that margin, -inf when all are singular.
    By Cramer's rule the barycentric coordinates of 0 in the hull of v_0,
    ..., v_d are lambda_i = (-1)^i D_i / sum_j (-1)^j D_j, D_i the d x d
    minor without v_i, so one table of minors serves every subset; a signed
    sum (+-det of [v_0 ... v_d; 1 ... 1]) of at most 1e-12 is singular."""
    sub, minors, drop = _subset_tables(normals.shape[0], d)
    sd = np.linalg.det(normals[minors])[drop]  # row i: D_i of every subset
    sd[1::2] *= -1.0
    total = sd.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        margins = (sd / total).min(axis=0)
    margins[~(np.abs(total) > 1e-12)] = -np.inf
    j = int(np.argmax(margins))
    return sub[j], float(margins[j])


@functools.cache
def _subset_tables(k: int, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only index tables over k rows: the (d+1)-subsets (lexicographic),
    the d-subsets by colex rank sum_j C(a_j, j + 1), and in row i of a
    (d+1, C(k, d+1)) table the rank of each subset less its i-th member."""
    sub = np.array(list(itertools.combinations(range(k), d + 1)), dtype=np.intp).reshape(-1, d + 1)
    binom = np.array([[math.comb(a, j) for j in range(d + 1)] for a in range(k)], dtype=np.intp)

    def rank(rows):
        return binom[rows, np.arange(1, d + 1)].sum(axis=1)

    minors = np.empty((math.comb(k, d), d), dtype=np.intp)
    lex = np.array(list(itertools.combinations(range(k), d)), dtype=np.intp).reshape(-1, d)
    minors[rank(lex)] = lex
    drop = np.stack([rank(np.delete(sub, i, axis=1)) for i in range(d + 1)])
    # kept in the narrowest index types, since they stay cached
    out = (sub.astype(np.min_scalar_type(k)), minors.astype(np.min_scalar_type(k)),
           drop.astype(np.min_scalar_type(len(minors))))
    for table in out:
        table.setflags(write=False)
    return out


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
        if float(m.unit_sums(pts @ c <= DEFAULT_TOL)) / m.scale <= level + tol:
            out[i] = c
    return out
