"""Tukey median search, minimizing-normal sets, witness tuple extraction, recentering.

The median search is exact in the plane (arrangement mode) and a seeded
multistart ascent elsewhere; reported depths come from the exact evaluator
where ``depth.exact_affordable`` allows it and from the certified net lower
bound otherwise, so a reported depth never overstates the true one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .geometry import DEFAULT_TOL, hull_interior_margin, sample_directions, unit
from .measures import DiscreteMeasure, halfspace_mass
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

ARRANGEMENT_MAX_N = 70  # 2.75 million candidates at n = 70: about a minute and 0.35 GB
_LAMBDA_MIN = 1e-6  # smallest hull margin of the origin in a witness tuple
_RING = 4  # past witnesses each ascent start remembers


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


def _lex_less(a: np.ndarray, b: np.ndarray) -> bool:
    for x, y in zip(a, b):
        if x != y:
            return x < y
    return False


def _deepest(scored):
    """(point, depth) of the deepest of the (depth, point) pairs scored, in
    one pass in order: a later pair wins if it is deeper by more than 1e-12,
    or within 1e-12 and lexicographically smaller."""
    best_x, best_d = None, -1.0
    for dep, x in scored:
        if dep > best_d + 1e-12 or (
            abs(dep - best_d) <= 1e-12 and best_x is not None and _lex_less(x, best_x)
        ):
            best_x, best_d = x, dep
    return best_x, best_d


def _arrangement_vertices(pts: np.ndarray) -> np.ndarray:
    """Every intersection of two lines through data-point pairs, in the
    order of the pairs of lines, each line in the order of its pair of
    points.  The line norms and offsets are stacked matmuls, which give the
    bits of ``np.linalg.norm`` and ``@`` on one row where elementwise sums
    need not."""
    i, j = np.triu_indices(len(pts), k=1)
    d = pts[j] - pts[i]
    nr = np.sqrt(np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0])
    keep = nr > DEFAULT_TOL
    nvec = np.column_stack([-d[keep, 1], d[keep, 0]]) / nr[keep, None]
    c = np.matmul(nvec[:, None, :], pts[i[keep], :, None])[:, 0, 0]
    a, b = np.triu_indices(len(c), k=1)
    (n1x, n1y), (n2x, n2y), c1, c2 = nvec[a].T, nvec[b].T, c[a], c[b]
    det = n1x * n2y - n1y * n2x
    ok = np.abs(det) >= 1e-12
    return np.column_stack([(c1 * n2y - c2 * n1y)[ok] / det[ok], (n1x * c2 - n2x * c1)[ok] / det[ok]])


def _arrangement_median(m: DiscreteMeasure):
    """Exact planar median: evaluate depth at the data points and every
    arrangement vertex (``_arrangement_vertices``), keeping the first of
    those that share a cell of the 1e-9 grid (``_first_rows``), in one
    batched planar sweep.  The winner's depth is then the mass of its
    checked witness (``point_depth``)."""
    cands = np.vstack([m.points, _arrangement_vertices(m.points)])
    cands = cands[_first_rows(np.round(cands / 1e-9))]
    vals, _ = exact_depth_values_2d(m.points[None], m.weights[None], np.zeros(len(cands), dtype=int), cands)
    best_x, _ = _deepest(zip(vals.tolist(), cands))
    return MedianResult(best_x.copy(), point_depth(m, best_x, mode="exact").depth, len(cands))


def _first_rows(keys: np.ndarray) -> np.ndarray:
    """Ascending indices of the first occurrence of each distinct row of
    keys (k, 2), rows equal as floats (-0.0 == 0.0): the sorted indices of
    ``np.unique(keys, axis=0, return_index=True)``, from a stable
    ``np.lexsort`` and a row-change mask in place of its sort of
    structured rows (about 3x faster on 3 million rows)."""
    order = np.lexsort((keys[:, 1], keys[:, 0]))
    a, b = keys[order, 0], keys[order, 1]
    new = np.ones(order.size, dtype=bool)
    new[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    return np.sort(order[new])


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

    arrangement  (dim = 2, n <= 70) exact: scans all arrangement vertices.
    multistart   seeded starts refined by witness descent: step against the
                 minimizing half-space normal with a shrinking step size.
    auto         arrangement for small planar inputs, else multistart.

    Deterministic in the seed; ties broken toward the lexicographically
    smallest evaluated candidate.
    """
    return tukey_medians(m.points[None], m.weights, mode, starts, iters, seed)[0]


def tukey_medians(points, weights, mode: str = "auto", starts: int = 16, iters: int = 30,
                  seed: int = 0) -> list[MedianResult]:
    """``tukey_median`` of each measure (points[k], weights[k]) of one
    stack, points (M, n, d) and weights (M, n) or one (n,) array that all
    share, the multistart ascents of all of them stepping in lockstep."""
    weights = np.broadcast_to(weights, points.shape[:2])
    _, n, d = points.shape
    if mode == "auto":
        mode = "arrangement" if (d == 2 and n <= 40) else "multistart"
    if mode == "arrangement":
        if d != 2 or n > ARRANGEMENT_MAX_N:
            raise ValueError(f"arrangement mode requires dim=2 and n <= {ARRANGEMENT_MAX_N}")
        return [_arrangement_median(DiscreteMeasure(d, p, w)) for p, w in zip(points, weights)]
    if mode != "multistart":
        raise ValueError(f"unknown budget mode {mode!r}")
    if d == 1:
        return [_line_median(DiscreteMeasure(d, p, w)) for p, w in zip(points, weights)]

    finals = 3 if d <= 2 else 1  # final evaluations are costly in d >= 3
    out = []
    for p, w, (endpoints, evals) in zip(points, weights,
                                        _multistart_endpoints(points, weights, starts, iters, seed)):
        scored = _finals(p, w, endpoints, finals)
        best_x, best_d = _deepest(scored)
        out.append(MedianResult(best_x, float(best_d), evals + len(scored)))
    return out


def _line_median(m: DiscreteMeasure) -> MedianResult:
    cands = np.unique(m.points[:, 0])
    best_x, best_d = None, -1.0
    for c in cands:
        dep = point_depth(m, [c], mode="exact").depth
        if dep > best_d:
            best_x, best_d = np.array([c]), dep
    return MedianResult(best_x, best_d, cands.size)


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
    """A depth maximizer chosen centrally within its plateau.

    Depth super-level sets are convex, so the average of tied maximizers is
    again a maximizer; averaging pulls the anchor away from plateau corners,
    which keeps the surrounding set of minimizing normals spread out (the
    lexicographic tie-break of ``tukey_median`` tends to a corner instead).
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
    """Translate the measure so its best-found median sits at the origin.

    ``balanced=True`` anchors at a plateau-central maximizer instead of the
    lexicographic tie-break, which witness extraction prefers.
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

    Combines exact candidate normals (perpendiculars / pair crosses of the
    recentered points, with their one-sided rotational resolutions) and a
    dense deterministic sample of 4096 sphere directions; the level is
    depth(o).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    o = np.asarray(o, dtype=float)
    d = m.dim
    if exact_affordable(m):
        level = point_depth(m, o, mode="exact").depth
    else:
        level = point_depth(m, o, mode="sampled", sample_count=8192, seed=seed).depth
    p = m.points - o
    norms = np.linalg.norm(p, axis=1)
    keep = norms > DEFAULT_TOL
    phat = p[keep] / norms[keep][:, None]
    cands = [sample_directions(d, 4096, seed=seed, mode="sphere")]
    if phat.shape[0]:
        if d == 2:
            perp = np.column_stack([-phat[:, 1], phat[:, 0]])
            base = np.vstack([perp, -perp])
            eps = 1e-4
            shift = np.vstack([phat, phat])
            cands.append(base)
            cands.append(base + eps * shift)
            cands.append(base - eps * shift)
        elif d == 3 and phat.shape[0] <= 160:
            ii, jj = np.triu_indices(phat.shape[0], k=1)
            cr = np.cross(phat[ii], phat[jj])
            lens = np.linalg.norm(cr, axis=1)
            cr = cr[lens > 1e-9] / lens[lens > 1e-9][:, None]
            base = np.vstack([cr, -cr])
            eps = 1e-4
            for da, db in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                cands.append(
                    base
                    + eps * da * np.vstack([phat[ii][lens > 1e-9]] * 2)
                    + eps * db * np.vstack([phat[jj][lens > 1e-9]] * 2)
                )
            cands.append(base)
    cand = np.vstack(cands)
    cand /= np.linalg.norm(cand, axis=1)[:, None]
    # closed mass of H(n) = {x : <n, x - o> <= 0} for every candidate normal,
    # an exact count of mass units over the scale, as the level is
    units, scale = _units(m.weights)
    masses = np.empty(cand.shape[0])
    for blk in _row_blocks(cand.shape[0], m.n):
        masses[blk] = ((cand[blk] @ p.T) <= DEFAULT_TOL) @ units
    sel = masses / scale <= level + tol
    return NormalSet(cand[sel], float(level))


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


def _center_in_normal_set(chosen, all_normals, m, o, level, tol, radius=0.35):
    """Replace each chosen normal by the centroid of its angular neighborhood
    inside the minimizing set, keeping it well clear of the set's edges (a
    nearby rotation of the tuple then stays minimizing).  A centered normal
    is kept only if its half-space mass still qualifies."""
    pts = m.points - o
    units, scale = _units(m.weights)
    out = chosen.copy()
    for i, n in enumerate(chosen):
        near = all_normals[all_normals @ n >= np.cos(radius)]
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
