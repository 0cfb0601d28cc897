"""Half-space depth of points and flats, depth landscapes, and deep-line search.

Depth of a query point q is the minimum, over unit directions u, of the mass
of the closed half-space {x : <u, x - q> >= 0}.  The exact algorithm projects
and sweeps (Rousseeuw & Struyf 1998; Dyckerhoff & Mozharovskyi 2016): the
minimum sits in a cell of the great-circle arrangement of the points p_i =
x_i - q, so depth is the minimum over i of the mass antiparallel to p_i plus
the depth of the other points projected onto p_i^perp, recursing down to an
exact O(n log n) planar sweep over a half-turn; cost O(n^(d-1) log n).
``exact_affordable`` says where callers that pick a depth evaluator use it.

Every evaluator sums mass units (``_units``) and divides by a scale once,
by one rule for every measure.  A uniform measure counts 1.0 per point and
divides by n.  Any other measure gets the integer units u_i = max(1,
rint(2^52 w_i / sum w)) and divides by sum u.  Every partial sum of units
is then an integer below 2^53, exact in float64 in any order, under any
BLAS blocking and at any thread count; a mass is one correctly rounded
division of such a count, so equal counts compare equal across the exact,
sampled and certified paths.  ``depth_oracle`` is an independent
brute-force referee built on lexicographic sign perturbation; the two
implementations share no code path.
"""

from __future__ import annotations

import itertools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .geometry import (
    DEFAULT_TOL,
    Flat,
    as_vector,
    canonical_direction,
    complement_basis,
    complement_bases,
    line,
    sample_directions,
    unit,
)
from .measures import DiscreteMeasure, make_measure, project_measure

EXACT_MAX_DIM = 4
EXACT_MAX_N = 5000
_EXACT4_MAX_N = 120
ORACLE_MAX_DIM = 3
ORACLE_MAX_N = 14

_CHUNK = 16384
_BLOCK_ENTRIES = 2**17  # direction-by-point entries per mask-product block
# the exact results of the last _MEMO_SIZE queries, keyed on the shape and
# bytes of (points - q) and of the weights
_MEMO_SIZE = 16
_memo: OrderedDict = OrderedDict()
_memo_lock = threading.Lock()


@dataclass(frozen=True, eq=False)
class DepthResult:
    depth: float
    witness: np.ndarray
    mode: str

    def __post_init__(self):
        if not (-1e-12 <= self.depth <= 1 + 1e-12):
            raise ValueError(f"depth {self.depth} outside [0, 1]")


@dataclass(frozen=True, eq=False)
class LineSearchResult:
    direction: np.ndarray
    anchor: np.ndarray
    depth: float
    iterations: int


def exact_affordable(m: DiscreteMeasure) -> bool:
    """Whether exact depth of m is cheap enough for the median search and
    the minimizing-normal level: in dim <= 3 up to n = ``EXACT_MAX_N``, the
    exact mode's own limit, in dim 4 up to n = 120, never above."""
    return m.n <= EXACT_MAX_N and (m.dim <= 3 or (m.dim == 4 and m.n <= _EXACT4_MAX_N))


def line_depth_thresholds(dim: int) -> dict:
    """Depth guarantees for a line in R^dim: the projection (centerpoint)
    bound 1/dim, and the improved bound 1/dim + 1/(3 dim^3) for dim >= 3."""
    return {"rado": 1.0 / dim, "improved": 1.0 / dim + 1.0 / (3.0 * dim**3)}


# ---------------------------------------------------------------------------
# exact closed-half-space minimization through the origin


def _units(w: np.ndarray):
    """Mass units of the positive weights w (..., n) and the scale, their
    sum, that turns a sum of units into mass.  A uniform measure (all its
    weights equal) counts 1.0 per point, so its scale is n.  Any other
    measure gets u_i = max(1, rint(2^52 w_i / sum w)), sum w being the
    correctly rounded sum (``math.fsum``), so a measure's units do not
    depend on how its weights are stacked.  Every partial sum of units is
    an integer below 2^53, so every mass is an exact count over the scale,
    whatever the order of the sums.  The rint moves each weight by at most
    2^-53 of the total, besides the rounding of the quotient (by at most
    2^-52 where the floor of one unit lifts a weight below 2^-53 of it), so
    the scale lies within about n of 2^52.  Returns (units, scale (...,))."""
    uniform = (w == w[..., :1]).all(axis=-1)
    units = np.ones(w.shape)
    if not uniform.all():
        rows = w[~uniform]
        total = np.array([math.fsum(r) for r in rows])
        units[~uniform] = np.maximum(1.0, np.rint(rows * 2.0**52 / total[:, None]))
    return units, units.sum(axis=-1)


def _sweep(p: np.ndarray, w: np.ndarray, gap: float):
    """Exact planar minimization by a half-turn sweep (Rousseeuw & Ruts
    1996, Algorithm AS 307), one sort per row.

    p (R, m, 2) holds nonzero vectors and w (R, m) their mass units.  The
    closed-half-plane mass of a normal at angle theta is piecewise constant:
    point j counts from its entry at angle alpha_j - pi/2 to its exit at
    alpha_j + pi/2.  The two are antipodal, so each point has one
    breakpoint in [0, pi): alpha_j + pi/2 reduced by pi into it, its exit
    if no reduction was needed, else its entry.  Sorted, these cut the
    half-turn into m arcs, arc k ending where the next one begins (the last
    at the first plus pi).  Arc k holds the exiting units (the points
    counted at angle 0) plus the prefix sum through k of the signed units
    (+ entry, - exit), and its antipodal arc holds the total less that,
    since off the breakpoints every point lies on one side.  The mass at
    each arc's midpoint is the arc's mass.  Arcs no wider than 4 gap are
    skipped with their antipodes, so every point a midpoint leaves out lies
    more than 2 gap behind it: the attained mass check counts points within
    the tolerance (``gap`` at the top level) of the boundary, so a narrower
    arc's mass cannot be attained.  Rounding also splits a breakpoint shared
    by collinear points into such slivers.  Returns each row's minimum mass
    and the midpoint angle of its first minimizing arc, the first half-turn
    before the second.

    One cumsum runs over the exiting units in point order, then over the
    signed units in the order of one unstable argsort.  Integer units make
    every prefix sum exact in any order, so the order within a group of
    tied breakpoints moves no bit: the arcs inside the group have width 0
    and are skipped, and the arc after it sums the whole group.  A point of
    unit 0 adds nothing to the cumsum, and one that copies another point's
    vector adds only a zero-width arc, so removing such points gives the
    same bits.
    """
    R, m = w.shape
    b = np.arctan2(p[..., 1], p[..., 0])
    b += 0.5 * np.pi
    up, down = b >= np.pi, b < 0.0
    np.subtract(b, np.pi, out=b, where=up)
    np.add(b, np.pi, out=b, where=down)
    out = ~(up | down)
    order = np.argsort(b, axis=1)
    order += np.arange(0, R * m, m)[:, None]  # flat indices
    b = np.take(b, order)
    c = np.empty((R, 2 * m))
    np.multiply(out, w, out=c[:, :m])
    np.take(np.where(out, -w, w), order, out=c[:, m:])
    np.cumsum(c, axis=1, out=c)
    total = c[:, m - 1] + c[:, -1]
    c[:, :m] = c[:, m:]
    np.subtract(total[:, None], c[:, :m], out=c[:, m:])  # the antipodal arcs
    nxt = np.empty_like(b)
    nxt[:, :-1] = b[:, 1:]
    nxt[:, -1] = b[:, 0] + np.pi
    np.putmask(c, np.tile(nxt - b <= 4.0 * gap, 2), np.inf)
    j = np.argmin(c, axis=1)
    rows, k = np.arange(R), j % m
    return c[rows, j], 0.5 * (b[rows, k] + nxt[rows, k]) + np.pi * (j >= m)


def _min_halfspace_mass(phat: np.ndarray, w: np.ndarray, tol: float, gap: float):
    """min over unit u of sum_j w_j [<u, p_j> >= 0] and an attaining u, row
    by row: phat (R, m, k) unit rows, k >= 2, and w (R, m) their mass units.

    k = 2 is the sweep; k >= 3 takes the minimum over pivots i of the mass
    antiparallel to p_i plus the depth of the rest projected onto p_i^perp.
    The witness lifts the subproblem's direction v and tilts it to
    v - eps p_i, eps half the smallest |<v, p_j>| over the kept points, so
    every kept point keeps its side and the parallel class drops behind.
    The tilt halves the margin by which the witness clears the points, so
    the subproblem is solved with twice the ``gap`` asked of this level.
    """
    R, m, k = phat.shape
    if k == 2:
        val, phi = _sweep(phat, w, gap)
        return val, np.column_stack([np.cos(phi), np.sin(phi)])
    best = np.argmin(_pivot_masses(phat, w, tol, 2.0 * gap), axis=1)
    piv = phat[np.arange(R), best]
    sub, ws, anti = _project(phat, w, piv, tol)
    val, x = _min_halfspace_mass(sub, ws, tol, 2.0 * gap)
    # lift: the reflection of _project maps (0, x) back into piv^perp
    refl = piv.copy()
    refl[:, 0] += np.where(piv[:, 0] >= 0.0, 1.0, -1.0)
    t = (x * piv[:, 1:]).sum(axis=1) / (1.0 + np.abs(piv[:, 0]))
    v = np.column_stack([np.zeros(R), x]) - t[:, None] * refl
    gaps = np.where(ws > 0, np.abs(np.einsum("bmk,bk->bm", phat, v)), np.inf).min(axis=1)
    eps = np.where(np.isfinite(gaps), 0.5 * gaps, 0.5)
    u = v - eps[:, None] * piv
    return anti + val, u / np.linalg.norm(u, axis=1)[:, None]


def _pivot_masses(phat: np.ndarray, w: np.ndarray, tol: float, gap: float) -> np.ndarray:
    """(R, m) mass of each pivot p_i, k = 3 or 4: the mass antiparallel to it
    plus the minimum mass of the rest projected onto p_i^perp, solved with
    ``gap``, in blocks of at most 4 * _CHUNK planar points.

    For k = 3 a block of b pivots of one row takes cos, x and y of every
    point from one product: the pivots' basis rows stacked basis-major (3b,
    3), the pivots and then rows 1 and 2 of their reflections (those of
    ``_project``), times the row's points (3, m).  The sweep then reads x
    and y as contiguous (b, m) rows, unnormalized.  A pivot's parallel class
    (x^2 + y^2 <= tol^2) counts in its antiparallel mass if cos < 0 and is
    filled in place with the pivot's first kept point at unit 0.

    For k = 4 the subproblem of pivot i takes only the pivots j > i, so it
    may come out too high, but the minimum over i stays exact: near the
    plane span(p_i, p_j) an optimal direction lies in a wedge bounded by
    the lines of two points c, d of that plane which it leaves out, and
    the pivot orders (c, d) and (d, c) both reach that wedge.
    """
    R, m, k = phat.shape
    step = max(1, 4 * _CHUNK // m ** (k - 2))
    if k == 3:
        t = phat.copy()  # (p_i + sign e_0) / (1 + |p_i0|): entry 0 is the sign exactly
        t[..., 0] += np.where(phat[..., 0] >= 0.0, 1.0, -1.0)
        t /= 1.0 + np.abs(phat[..., :1])
        basis = np.empty((R, 3, m, 3))
        basis[:, 0] = phat
        basis[:, 1:] = np.eye(3)[1:, None, :] - phat.transpose(0, 2, 1)[:, 1:, :, None] * t[:, None]
        out = np.empty((R, m))
        for r in range(R):
            for s in range(0, m, step):
                blk = basis[r, :, s : s + step]
                b = blk.shape[1]
                prod = (blk.reshape(3 * b, 3) @ phat[r].T).reshape(3, b, m)
                cos, xy = prod[0], prod[1:]
                kept = (xy * xy).sum(axis=0) > tol * tol
                anti = np.where(~kept & (cos < 0.0), w[r], 0.0).sum(axis=1)
                fill = xy[:, np.arange(b), np.argmax(kept, axis=1)]
                np.copyto(xy, fill[..., None], where=~kept)
                out[r, s : s + b] = anti + _sweep(xy.transpose(1, 2, 0), np.where(kept, w[r], 0.0), gap)[0]
        return out
    rr, ii = np.divmod(np.arange(R * m), m)
    tot = np.empty(R * m)
    for s in range(0, R * m, step):
        r, i = rr[s : s + step], ii[s : s + step]
        sub, ws, anti = _project(phat[r], w[r], phat[r, i], tol)
        b, j = np.nonzero(np.arange(m) > i[:, None])
        val = np.full((len(r), m), np.inf)
        if len(b):
            sub, ws2, anti2 = _project(sub[b], ws[b], sub[b, j], tol)
            val[b, j] = anti2 + _sweep(sub, ws2, 2.0 * gap)[0]
        tot[s : s + step] = anti + val.min(axis=1)
    return tot.reshape(R, m)


def _project(pts: np.ndarray, w: np.ndarray, piv: np.ndarray, tol: float):
    """Project rows pts (B, m, k) onto piv^perp (B, k) in (k-1)-coordinates.

    The coordinates are entries 1..k-1 of the image under the Householder
    reflection that swaps the unit pivot with -+e_0.  Returns the unit
    projections, the mass units w with the parallel class zeroed and the
    units antiparallel to each pivot.  Parallel rows are replaced by a copy
    of the row's first kept point, so they add no breakpoint.  Called by
    ``_min_halfspace_mass``, for the chosen pivot's subproblem and witness
    lift, and by the k = 4 screen of ``_pivot_masses``.
    """
    sign = np.where(piv[:, 0] >= 0.0, 1.0, -1.0)
    cos = np.einsum("bmk,bk->bm", pts, piv)
    coef = (cos + sign[:, None] * pts[..., 0]) / (1.0 + np.abs(piv[:, :1]))
    sub = pts[..., 1:] - coef[..., None] * piv[:, None, 1:]
    norms = np.linalg.norm(sub, axis=2)
    kept = norms > tol
    anti = np.where(~kept & (cos < 0), w, 0.0).sum(axis=1)
    sub /= np.where(kept, norms, 1.0)[..., None]
    fill = sub[np.arange(sub.shape[0]), np.argmax(kept, axis=1)]
    sub = np.where(kept[..., None], sub, fill[:, None, :])
    return sub, np.where(kept, w, 0.0), anti


def _split_query(p: np.ndarray, w: np.ndarray):
    """The points p (n, d), relative to the query, that lie farther than
    ``DEFAULT_TOL`` from it, their masses w, and the mass of the rest,
    summed over the full mask in point order."""
    at = (p * p).sum(axis=1) <= DEFAULT_TOL**2
    return p[~at], w[~at], float(np.where(at, w, 0.0).sum())


def exact_depth_value_2d(m: DiscreteMeasure, q):
    """Exact planar depth value with an unresolved witness candidate.

    Same value as ``point_depth(..., mode="exact")``, with the direction of
    the first minimizing arc of the sweep instead of a checked witness, for
    callers that only need the number and a descent direction.
    """
    q = np.asarray(q, dtype=float)[None]
    vals, dirs = exact_depth_values_2d([m.points], [m.weights], [0], q)
    return float(vals[0]), dirs[0]


def exact_depth_values_2d(points, weights, which, q):
    """``exact_depth_value_2d`` of many queries at once: row r is the query
    q[r] (R, 2) in the planar measure (points[which[r]], weights[which[r]]),
    points and weights being stacks (M, n, 2) and (M, n) of M measures
    (sequences of their arrays are stacked first).  Rows go to the sweep in
    blocks of at most _CHUNK points, unnormalized and in mass units
    (``_units``).  A point within ``DEFAULT_TOL`` of the query (squared
    distance at most its square) counts under every direction: its units
    are summed over the full mask in point order, and in the sweep it is a
    copy of the row's first other point with unit 0, so it adds no
    breakpoint.  Each row's value is (the units at the query + the swept
    minimum) / scale, an exact count over the scale.  Returns
    (values (R,), directions (R, 2)).
    """
    points, (units, scales) = np.asarray(points), _units(np.asarray(weights))
    R, n = len(which), units.shape[1]
    vals, dirs = np.empty(R), np.empty((R, 2))
    step = max(1, _CHUNK // n)
    for s in range(0, R, step):
        k = which[s : s + step]
        p = points[k] - q[s : s + step, None, :]
        at = p[..., 0] * p[..., 0] + p[..., 1] * p[..., 1] <= DEFAULT_TOL**2  # the bits of _split_query's
        w, scale = units[k], scales[k]
        w0 = np.zeros(len(k))
        if at.any():
            w0 = np.where(at, w, 0.0).sum(axis=1)
            fill = p[np.arange(len(k)), np.argmax(~at, axis=1)]
            p = np.where(at[..., None], fill[:, None, :], p)
            w = np.where(at, 0.0, w)
        val, phi = _sweep(p, w, DEFAULT_TOL)
        empty = at.all(axis=1)
        vals[s : s + step] = np.where(empty, 1.0, (w0 + val) / scale)
        dirs[s : s + step, 0] = np.where(empty, 1.0, np.cos(phi))
        dirs[s : s + step, 1] = np.where(empty, 0.0, np.sin(phi))
    return vals, dirs


def sampled_depth_values(points, weights, which, q, directions):
    """``point_depth(mode="sampled")`` of many queries at once: row r is the
    query q[r] (R, d) in the measure (points[which[r]], weights[which[r]]),
    stacked as there, minimized over its own unit directions directions[r]
    (R, count, d).  The rows are centred and normalized in blocks of at most
    _CHUNK points; a point within ``DEFAULT_TOL`` of the query (squared
    distance at most its square, as ``_split_query`` says) counts under every
    direction, as in the exact depth.  Each row then takes its direction and
    mask products in cache-sized blocks of directions (``_row_blocks``),
    which give the bits of one product over all of them.  The masks count
    mass units (``_units``, taken once for the stack), divided by the scale
    once.  Returns (values (R,), minimizing directions (R, d)).
    """
    points, (units, scales) = np.asarray(points), _units(np.asarray(weights))
    R, n = len(which), units.shape[1]
    vals, wits = np.empty(R), np.empty((R, directions.shape[2]))
    step = max(1, _CHUNK // n)
    for lo in range(0, R, step):
        k = which[lo : lo + step]
        p = points[k] - q[lo : lo + step, None, :]
        sq = (p * p).sum(axis=2)
        norms = np.sqrt(sq)  # the bits of np.linalg.norm
        norms[sq <= DEFAULT_TOL**2] = np.inf  # at the query, as _split_query says: counted everywhere
        phat = (p / norms[..., None]).transpose(0, 2, 1)
        for b, r in enumerate(k):
            u = directions[lo + b]
            masses = np.concatenate([(u[blk] @ phat[b] >= -DEFAULT_TOL) @ units[r] for blk in _row_blocks(len(u), n)])
            j = int(np.argmin(masses))
            vals[lo + b], wits[lo + b] = masses[j] / scales[r], u[j]
    return vals, wits


def closed_mass_bounds(points, weights):
    """The rule that bounds from above the values of ``exact_depth_values_2d``
    (from any unit directions) and ``sampled_depth_values`` (from directions
    among the row's own) in the measures (points[k], weights[k]) of one
    stack, set up once for them.  Returns bound(which, q, directions): row r
    gets the least, over its unit directions u in directions[r] (R, D, d),
    of the mass of the points p of measure which[r] with <u, p - q[r]> >=
    -s_r, where

        s_r = max(eta reach_r, 2 tol) + 1e-14 (|c_k|_1 + |h_k|_1 + |q[r]|_1),

    eta = 3 (n + 1) tol, tol being ``DEFAULT_TOL``, c_k and h_k the centre
    and half-widths of the bounding box of measure k, and reach_r = |h_k| +
    |q[r] - c_k|.  So reach_r >= |p - q[r]| and |c_k|_1 + |h_k|_1 >= |p|_1
    for each point p of the measure.

    The slack eta makes the bound hold for the planar sweep although it
    skips arcs no wider than 4 tol: at most n breakpoints fall within angle
    eta of u, so one of the pieces they cut that span into is wider than
    2 eta / (n + 1) = 6 tol.  The arc holding it is swept, and its mass
    counts no point p but those within 2 tol of the query or with <u, p -
    q> >= -eta |p - q| >= -eta reach_r.  The sampled value is the mass at
    one of its directions, which counts fewer points, with slack tol, and
    its points within tol of the query are within 2 tol.  Both margins
    dwarf the rounding of the evaluators' own norms and products, and the
    last term of s_r covers the bound's own: <u, p> and <u, q> are rounded
    apart, since each (row, direction) is one affine test <(u, s_r - <u,
    q>), (p, 1)> >= 0 on the measures' points augmented by a 1 (M, d + 1,
    n), built here once.  The tests run as stacked matmuls in blocks of
    about 4 _CHUNK direction-by-point entries and count mass units
    (``_units``), divided by the scale once, so a bound and an evaluator's
    value are exact counts over the same scale and the bound is at least
    the value exactly, not only up to rounding.  A uniform block sums its
    masks as integers, the same counts faster than a product with its
    units.
    """
    points, (units, scales) = np.asarray(points), _units(np.asarray(weights))
    M, n, d = points.shape
    aug = np.ones((M, d + 1, n))
    aug[:, :d] = points.transpose(0, 2, 1)
    low, high = aug[:, :d].min(axis=2), aug[:, :d].max(axis=2)
    centre, half = 0.5 * (low + high), 0.5 * (high - low)
    rad = np.sqrt((half * half).sum(axis=1))
    top = (np.abs(centre) + half).sum(axis=1)  # the box's farthest corner: at least every |p|_1
    uniform = (units == 1.0).all(axis=1)
    eta = 3.0 * (n + 1) * DEFAULT_TOL

    def bound(which, q, directions):
        R, D, _ = directions.shape
        off = q - centre[which]
        reach = rad[which] + np.sqrt((off * off).sum(axis=1))
        s = np.maximum(eta * reach, 2.0 * DEFAULT_TOL) + 1e-14 * (top[which] + np.abs(q).sum(axis=1))
        a = np.empty((R, D, d + 1))
        a[..., :d] = directions
        a[..., d] = s[:, None] - np.matmul(directions, q[:, :, None])[..., 0]
        out = np.empty(R)
        step = max(1, 4 * _CHUNK // (n * D))
        for lo in range(0, R, step):
            k = which[lo : lo + step]
            hit = np.matmul(a[lo : lo + step], aug[k]) >= 0.0
            if uniform[k].all():
                mass = hit.view(np.uint8).sum(axis=2, dtype=np.int32)
            else:
                mass = np.matmul(hit, units[k, :, None])[..., 0]
            out[lo : lo + step] = mass.min(axis=1) / scales[k]
        return out

    return bound


def point_depth(
    m: DiscreteMeasure,
    q,
    mode: str = "exact",
    sample_count: int = 512,
    seed: int = 0,
) -> DepthResult:
    """Half-space depth of a point.

    exact    project and sweep (see the module docstring), O(n^(d-1) log n);
             limited to dim <= 4 and n <= 5000 (see ``certified_depth_floor``
             for a fast conservative bound).  Reports the closed mass of the
             witness direction, summed in mass units (``_units``): an
             exact count over the scale, whatever the order of the sums.
             The mode is "exact-upper-bound" when that mass misses the
             computed minimum.  The results of the last 16 queries are
             kept (thread-safe, their witnesses read-only), keyed on the
             bytes of (points - q) and the weights, so a repeated query
             returns the same result.
    sampled  upper bound over ``sample_count`` seeded sphere directions; the
             direction stream is prefix-stable in the count, so a larger
             sample with the same seed can only lower the bound.  This is
             the one-row case of ``sampled_depth_values``, whose cache-sized
             blocks of directions give the bits of one product over all of
             them.
    """
    q = as_vector(q)
    if q.size != m.dim:
        raise ValueError(f"query dim {q.size} != measure dim {m.dim}")
    if mode == "exact":
        if m.dim > EXACT_MAX_DIM or m.n > EXACT_MAX_N:
            raise ValueError(f"exact mode limited to dim <= {EXACT_MAX_DIM}, n <= {EXACT_MAX_N}")
        p = m.points - q
        key = (p.shape, p.tobytes(), m.weights.tobytes())
        with _memo_lock:
            res = _memo.get(key)
            if res is not None:
                _memo.move_to_end(key)
                return res
        res = _exact_depth(p, m.weights)
        res.witness.setflags(write=False)
        with _memo_lock:
            _memo[key] = res
            if len(_memo) > _MEMO_SIZE:
                _memo.popitem(last=False)
        return res
    if mode == "sampled":
        u = sample_directions(m.dim, sample_count, seed=seed, mode="sphere")
        vals, us = sampled_depth_values([m.points], [m.weights], [0], q[None], u[None])
        return DepthResult(float(vals[0]), us[0], "sampled")
    raise ValueError(f"unknown mode {mode!r}")


def _exact_depth(p: np.ndarray, weights: np.ndarray) -> DepthResult:
    """The exact mode of ``point_depth`` for the points p = x - q, without
    the memo."""
    units, scale = _units(weights)
    P, w, w0 = _split_query(p, units)
    if P.shape[0] == 0:
        return DepthResult(1.0, np.eye(p.shape[1])[0], "exact")
    phat = P / np.linalg.norm(P, axis=1)[:, None]
    if p.shape[1] == 1:
        pos, neg = float(w[phat[:, 0] > 0].sum()), float(w[phat[:, 0] < 0].sum())
        val, u = min(pos, neg), np.array([1.0 if pos <= neg else -1.0])
    else:
        vals, us = _min_halfspace_mass(phat[None], w[None], DEFAULT_TOL, DEFAULT_TOL)
        val, u = float(vals[0]), us[0]
    depth = (w0 + float(w[phat @ u >= -DEFAULT_TOL].sum())) / scale
    # beyond general position the minimum may be unattainable at the
    # witness; its attained mass is then a certified upper bound
    mode = "exact" if abs(depth - (w0 + val) / scale) <= 1e-9 else "exact-upper-bound"
    return DepthResult(depth, u, mode)


def certified_depth_floor(m: DiscreteMeasure, q, gamma: float = 0.1) -> float:
    """Certified lower bound on the exact depth of q.

    Uses a deterministic angle-grid net with covering radius <= gamma on the
    unit sphere: for every direction u there is a net point u0 within angle
    gamma, and {x : <u, x - q> >= 0} contains {x : <u0, x - q> >= sin(gamma)
    |x - q|}, which needs 0 < gamma <= pi / 2 (``ValueError`` otherwise).
    The net's rows come in rings, d - 2 polar angles fixed and the azimuth
    turning (``_net_rows``), and ``_ring_brackets`` counts, row by row with
    the circular sweep of Rousseeuw & Ruts (1996), the mass units
    (``_units``) of the points p = x - q with <u0, p> >= t, t = sin(gamma)
    |p| + 1.1e-5 (|p| + 1) (summed as a 1e-5 and a 1e-6 term).
    The inflation of t dwarfs the float64 rounding of the ring sweep, so
    every point counted on a row lies in its covered half-space.  The floor
    is the least row mass, an exact count of integer units, over the scale.
    No BLAS product is taken, so the floor does not depend on the BLAS
    thread count.  Converges to the exact depth as gamma -> 0, up to the
    inflation.  Supported for dim in {2, 3, 4}; in d = 4 at gamma =
    0.1 the net has 230,496 rows in 2,401 rings.
    """
    q = as_vector(q)
    d = m.dim
    if d not in (2, 3, 4):
        raise ValueError("certified floor supported for dim in {2, 3, 4}")
    if not 0.0 < gamma <= np.pi / 2:
        raise ValueError(f"gamma {gamma} outside (0, pi/2]")
    # hyperspherical angles: d - 2 polar ones in [0, pi], an azimuth in [0, 2 pi]
    step = 2.0 * gamma / (d - 1)
    polar = np.arange(0.0, np.pi + step, step)
    count = np.arange(0.0, 2.0 * np.pi + step, step).size
    p = m.points - q
    norms = np.linalg.norm(p, axis=1)
    t = np.sin(gamma) * norms + 1e-5 * (norms + 1.0) + 1e-6 * (norms + 1.0)
    units, scale = _units(m.weights)
    return float(_ring_brackets(p, units, _net_rows(polar, d), step, count, t).min()) / scale


def _net_rows(polar: np.ndarray, d: int) -> np.ndarray:
    """The rows of the angle net of ``certified_depth_floor`` at azimuth 0,
    one per ring, (polar.size ** (d - 2), d): the d - 2 polar angles from
    ``polar`` in C order, in hyperspherical coordinates.  A row holds its
    ring's fixed coordinates, then its scale s in coordinate d - 2, then 0."""
    rings = polar.size ** (d - 2)
    angles = [polar[i] for i in np.unravel_index(np.arange(rings), (polar.size,) * (d - 2))] if d > 2 else []
    out = np.zeros((rings, d))
    scale = 1.0
    for j, ang in enumerate(angles):
        out[:, j] = scale * np.cos(ang)
        scale = scale * np.sin(ang)
    out[:, -2] = scale
    return out


def _ring_brackets(p: np.ndarray, w: np.ndarray, rings: np.ndarray, step: float, count: int,
                   t: np.ndarray) -> np.ndarray:
    """The brackets of the net's rows, ring after ring.  A ring is given by
    its row at azimuth 0 in ``rings`` (fixed coordinates, then its scale s,
    then 0); at each of its ``count`` azimuths j step the bracket is the
    mass of the points p with A + B cos(j step - alpha) >= t, where A
    is the ring's fixed part of <u0, p>, B = |s| |(p_{d-2}, p_{d-1})| and
    alpha that pair's angle, turned by pi where s < 0 (polar angles past
    pi).

    In index units (angle / step) a point with |x| < 1, x = (t - A) / B,
    is counted on [lo, hi] = alpha / step -+ arccos(x) / step and on its
    turns by N = 2 pi / step.  With lo in [0, N], the turn down covers
    columns 0 to hi - N and the turn up at most the last column J, which
    lies less than a step past a full turn.  The three arcs are disjoint
    (arccos(x) < pi), so a difference array over ring by column, filled by
    ``np.bincount``, and a ``cumsum`` count each point at most once per
    column.  A point with x <= -1 counts on the whole ring, and the turn
    down starts at column 0: both go in by one sum per ring.  B = 0 gives x
    = +-inf, and 0 / 0 (nan) counts nowhere.  Only the points on an arc
    (about a third of the entries at a median) reach the index step.  Rings
    go in blocks of about _BLOCK_ENTRIES ring-by-point entries.  A and the
    whole-ring sums are ``np.einsum`` loops, not BLAS products.  On integer
    units (``_units``) every partial sum that reaches a bracket stays
    within -+ their total, so the brackets are exact.  Returns the brackets
    of the rows in net order, (len(rings) count,).
    """
    n = len(w)
    N = 2.0 * np.pi / step
    J = count - 1
    fixed, scale, lead = rings[:, :-2], rings[:, -2], np.ascontiguousarray(p[:, :-2].T)
    with np.errstate(divide="ignore"):
        inv_r = 1.0 / np.hypot(p[:, -2], p[:, -1])
        inv_s = 1.0 / np.abs(scale)
    turn = np.arctan2(p[:, -1], p[:, -2]) / step
    centre = np.mod(np.concatenate([turn, turn + 0.5 * N]), N)  # for s >= 0, then s < 0
    cols = count + 1  # column J + 1 takes what falls past J
    out = np.empty((len(rings), cols))
    rb = max(1, _BLOCK_ENTRIES // n)
    for a in range(0, len(rings), rb):
        b = min(a + rb, len(rings))
        x = np.einsum("rk,kn->rn", fixed[a:b], lead)
        np.subtract(t, x, out=x)
        with np.errstate(invalid="ignore"):
            x *= inv_s[a:b, None]
            x *= inv_r
        k = np.flatnonzero(np.abs(x) < 1.0)
        ring, pt = np.divmod(k, n)
        h = np.arccos(x.ravel()[k]) / step
        lo = centre[pt + ((scale[a:b] < 0) * n)[ring]] - h
        lo += N * (lo < 0.0)
        hi = lo + 2.0 * h
        off, wa = ring * cols, w[pt]
        size = (b - a) * cols
        diff = np.zeros(size)
        diff += np.bincount(off + np.ceil(lo).astype(np.intp), wa, size)
        diff -= np.bincount(off + np.minimum(np.floor(hi), J).astype(np.intp) + 1, wa, size)
        diff -= np.bincount(off + np.maximum(np.floor(hi - N) + 1.0, 0.0).astype(np.intp), wa, size)
        diff += np.bincount(off + J + (lo > J - N) + (hi < J - N), wa, size)  # the turn up
        diff = diff.reshape(b - a, cols)
        diff[:, 0] += np.einsum("rn,n->r", x < 1.0, w)
        np.cumsum(diff, axis=1, out=out[a:b])
    return out[:, :count].ravel()


def _row_blocks(rows: int, n: int) -> list:
    """Slices covering range(rows), for products of that many direction rows
    with n points: blocks of _BLOCK_ENTRIES // n rows, which stay in cache
    where one product over all the rows would not.  The products sum
    integer mass units (``_units``), so each row's mass has the bits of one
    product over all the rows, however the blocks and the BLAS threads
    split them."""
    step = max(1, _BLOCK_ENTRIES // n)
    return [slice(a, min(a + step, rows)) for a in range(0, rows, step)]


# ---------------------------------------------------------------------------
# independent brute-force oracle


def depth_oracle(m: DiscreteMeasure, q) -> DepthResult:
    """Exhaustive ground-truth depth for tiny instances (n <= 14, dim <= 3).

    Enumerates hyperplane normals through q and <= d-1 points, composing each
    with one or two lexicographic perturbation levels so that every drop/keep
    pattern reachable by infinitesimal rotation is evaluated.  Exact on
    integer-coordinate inputs; shares no code with ``point_depth``.
    """
    q = as_vector(q)
    if m.dim > ORACLE_MAX_DIM or m.n > ORACLE_MAX_N:
        raise ValueError(f"oracle limited to dim <= {ORACLE_MAX_DIM}, n <= {ORACLE_MAX_N}")
    P, w, w0 = _split_query(m.points - q, m.weights)
    n, d = P.shape
    if n == 0:
        return DepthResult(1.0, np.eye(m.dim)[0], "oracle")
    scale = np.linalg.norm(P, axis=1)

    if d == 1:
        pos = float(w[P[:, 0] > 0].sum())
        neg = float(w[P[:, 0] < 0].sum())
        u = np.array([1.0]) if pos <= neg else np.array([-1.0])
        return DepthResult(w0 + min(pos, neg), u, "oracle")

    basis = np.eye(d)
    if d == 2:
        perp = np.column_stack([-P[:, 1], P[:, 0]])
        u0s = np.vstack([perp, -perp, basis, -basis])
        wfam = np.vstack([P, -P, basis, -basis])
        a = u0s @ P.T
        b = wfam @ P.T
        za = 1e-9 * np.linalg.norm(u0s, axis=1)[:, None] * scale[None, :]
        zb = 1e-9 * np.linalg.norm(wfam, axis=1)[:, None] * scale[None, :]
        a_eff = np.where(np.abs(a) > za, a, 0.0)
        b_eff = np.where(np.abs(b) > zb, b, 0.0)
        s = np.where(a_eff[:, None, :] != 0.0, a_eff[:, None, :], b_eff[None, :, :])
        vals = (s >= 0) @ w
        i0, iw = np.unravel_index(int(np.argmin(vals)), vals.shape)
        best = float(vals[i0, iw])
        witness = _oracle_witness(P, w, best, u0s[i0], wfam[iw], None)
        return DepthResult(w0 + best, witness, "oracle")

    # d == 3
    aug = np.vstack([P, basis])
    pairs = list(itertools.combinations(range(aug.shape[0]), 2))
    crosses = np.cross(aug[[i for i, _ in pairs]], aug[[j for _, j in pairs]])
    lens = np.linalg.norm(crosses, axis=1)
    crosses = crosses[lens > 1e-12 * max(1.0, float(scale.max())) ** 2]
    u0s = np.vstack([crosses, -crosses])
    vfam = np.vstack([P, -P, basis, -basis])
    cmat = vfam @ P.T
    zc = 1e-9 * np.linalg.norm(vfam, axis=1)[:, None] * scale[None, :]
    c_eff = np.where(np.abs(cmat) > zc, cmat, 0.0)
    best, best_combo = np.inf, None
    for u0 in u0s:
        a = u0 @ P.T
        za = 1e-9 * np.linalg.norm(u0) * scale
        a_eff = np.where(np.abs(a) > za, a, 0.0)
        wf = np.cross(u0, aug)
        wf = np.vstack([wf, -wf])
        wl = np.linalg.norm(wf, axis=1)
        wf = wf[wl > 1e-12 * max(1.0, float(np.linalg.norm(u0))) * max(1.0, float(scale.max()))]
        if wf.shape[0] == 0:
            continue
        bmat = wf @ P.T
        zb = 1e-9 * np.linalg.norm(wf, axis=1)[:, None] * scale[None, :]
        b_eff = np.where(np.abs(bmat) > zb, bmat, 0.0)
        s = np.where(
            a_eff[None, None, :] != 0.0,
            a_eff[None, None, :],
            np.where(b_eff[:, None, :] != 0.0, b_eff[:, None, :], c_eff[None, :, :]),
        )
        vals = (s >= 0) @ w
        jw, jv = np.unravel_index(int(np.argmin(vals)), vals.shape)
        if float(vals[jw, jv]) < best:
            best = float(vals[jw, jv])
            best_combo = (u0.copy(), wf[jw].copy(), vfam[jv].copy())
    u0, wv, vv = best_combo
    witness = _oracle_witness(P, w, best, u0, wv, vv)
    return DepthResult(w0 + best, witness, "oracle")


def _oracle_witness(P, w, target, u0, wvec, vvec):
    """Realize a lexicographic perturbation as a concrete unit direction.

    ``target`` is the mass over the non-coincident points only.
    """
    phat = P / np.linalg.norm(P, axis=1)[:, None]
    base = u0 / np.linalg.norm(u0)
    wn = wvec / np.linalg.norm(wvec)
    vn = vvec / np.linalg.norm(vvec) if vvec is not None else None
    e1 = 1e-4
    for _ in range(12):
        u = base + e1 * wn
        if vn is not None:
            u = u + (e1 * e1) * vn
        u = unit(u)
        val = float(w[phat @ u >= -DEFAULT_TOL].sum())
        if abs(val - target) <= 1e-12:
            return u
        e1 /= 8.0
    return base


# ---------------------------------------------------------------------------
# flats, profiles, line search


def flat_depth(m: DiscreteMeasure, f: Flat) -> DepthResult:
    """Depth of a k-flat: project the measure along it and take the depth of
    the projected anchor point (the image of the flat), exact where the
    exact mode takes the projection and sampled otherwise."""
    if f.k >= m.dim:
        raise ValueError("flat dimension must be below the ambient dimension")
    proj = project_measure(m, f)
    anchor = complement_basis(f) @ f.base
    mode = "exact" if (proj.dim <= EXACT_MAX_DIM and proj.n <= EXACT_MAX_N) else "sampled"
    return point_depth(proj, anchor, mode=mode)


def direction_profile(m: DiscreteMeasure, direction, budget: dict | None = None):
    """Best median depth in the projection of m along a line direction.

    Returns (a, median_point), the median being expressed in the projected
    coordinates.  ``budget`` is forwarded to the median search.
    """
    a, med = direction_profiles(m, [direction], budget)
    return a[0], med[0]


def direction_profiles(m: DiscreteMeasure, directions, budget: dict | None = None):
    """``direction_profile`` of each direction: one stack of projections with
    the bits of ``project_measure(m, line(u))``, from one stacked QR and one
    matmul, whose median ascents step in lockstep (``tukey_medians``).

    Returns (a (D,), median points (D, dim - 1)); no directions give empty
    arrays and no median search.  Raises ValueError unless the directions
    are an array (D, dim) of finite nonzero rows.
    """
    if m.dim < 2:
        raise ValueError("need ambient dimension >= 2")
    from . import median as _median

    u = np.asarray(directions, dtype=float)
    if not u.size:
        return np.empty(0), np.empty((0, m.dim - 1))
    if u.ndim != 2 or u.shape[1] != m.dim:
        raise ValueError(f"directions must have shape (D, {m.dim}), got {u.shape}")
    norms = np.sqrt(np.matmul(u[:, None, :], u[:, :, None])[:, 0])  # the bits of ``unit``'s norm
    if not (np.isfinite(u).all() and norms.all()):
        raise ValueError("directions must be finite and nonzero")
    comp = complement_bases((u / norms)[:, None, :])
    res = _median.tukey_medians(np.matmul(m.points, comp.transpose(0, 2, 1)), m.weights, **(budget or {}))
    return np.array([r.depth for r in res]), np.array([r.point for r in res])


def _subsampled(m: DiscreteMeasure, count: int, seed: int) -> DiscreteMeasure:
    if m.n <= count:
        return m
    rng = np.random.default_rng(seed)
    idx = rng.choice(m.n, size=count, replace=False, p=m.weights)
    return make_measure(m.points[idx])


def _cap_samples(center: np.ndarray, angle: float, count: int, seed: int) -> np.ndarray:
    """Directions within the given angle of ``center``, deterministic in seed."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((count, center.size))
    g -= np.outer(g @ center, center)
    lens = np.linalg.norm(g, axis=1)
    lens[lens == 0] = 1.0
    t = angle * rng.random(count)
    out = np.cos(t)[:, None] * center + np.sin(t)[:, None] * (g / lens[:, None])
    return out / np.linalg.norm(out, axis=1)[:, None]


def deep_line_search(
    m: DiscreteMeasure,
    grid_count: int = 512,
    refine_iters: int = 3,
    seed: int = 0,
    top_k: int = 6,
) -> LineSearchResult:
    """Search for a deep line: scan a projective direction grid (on a
    160-point subsample of the measure), re-rank the best directions on the full
    measure, then refine by shrinking-cap sampling.  Each phase profiles all
    its directions in one lockstep batch (``direction_profiles``).

    Heuristic maximizer over directions: the depth guarantee promises
    existence, not constructibility, so the direction is best-found.  The
    scan, re-rank and refine phases run the multistart ascent; only the
    final profile takes ``tukey_medians``' default mode, which in R^3 is the
    exact planar median, so the reported depth is the exact a(u) of the
    chosen direction.
    """
    if m.dim < 3:
        raise ValueError("line search needs ambient dimension >= 3")
    grid = np.array([canonical_direction(u) for u in sample_directions(m.dim, grid_count, mode="grid")])
    scan_m = _subsampled(m, 160, seed)
    cheap = {"mode": "multistart", "starts": 4, "iters": 4, "seed": seed}
    mid = {"mode": "multistart", "starts": 10, "iters": 16, "seed": seed}

    scores, _ = direction_profiles(scan_m, grid, cheap)
    evals = grid.shape[0]
    order = np.argsort(-scores)[: max(1, top_k)]

    best_a, best_u, best_med = -1.0, None, None
    cap = 2.0 * np.sqrt(4.0 * np.pi / max(grid_count, 1))
    cands = grid[order]  # the re-rank, then each refine step's cap samples
    for it in range(refine_iters + 1):
        if it:
            cands = [canonical_direction(u) for u in _cap_samples(best_u, cap, 24, seed + 1000 + it - 1)]
            cap *= 0.5
        a_s, meds = direction_profiles(m, cands, mid)
        evals += len(cands)
        for u, a, med in zip(cands, a_s, meds):  # in order: the first of tied profiles wins
            if a > best_a:
                best_a, best_u, best_med = a, u, med

    heavy = {"starts": 24, "iters": 40, "seed": seed}  # auto: exact in R^3, the heavy ascent above
    a_s, meds = direction_profiles(m, [best_u], heavy)
    a, med = a_s[0], meds[0]
    evals += 1
    if a < best_a:  # the final profile lost ground: keep the mid-budget median
        a, med = best_a, best_med
    anchor = complement_basis(line(best_u)).T @ med
    return LineSearchResult(best_u, anchor, float(a), evals)
