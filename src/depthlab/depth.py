"""Half-space depth of points and flats, depth landscapes, and deep-line search.

Depth of a query point q is the minimum, over unit directions u, of the mass
of the closed half-space {x : <u, x - q> >= 0}.  The exact algorithm projects
and sweeps (Rousseeuw & Struyf 1998; Dyckerhoff & Mozharovskyi 2016): the
minimum sits in a cell of the great-circle arrangement of the points p_i =
x_i - q, so depth is the minimum over i of the mass antiparallel to p_i plus
the depth of the other points projected onto p_i^perp, recursing down to an
exact O(n log n) planar sweep over a half-turn; cost O(n^(d-1) log n).
``_min_halfspace_mass`` is that recursion, the one exact kernel: every
pivot's image is solved one dimension down, once, and the least pivot's
direction lifted into the witness.  ``exact_depth_values`` runs it for a
stack of queries in any dimension up to 4, and ``_exact_affordable`` is
its one cost rule.  Every depth is a certified bracket (``DepthResult``),
and ``depth_bracket`` is the one rule that picks an evaluator for it.

Every evaluator sums the measure's integer mass units and divides by its
scale once (``DiscreteMeasure``, the one mass rule for every measure), so a
depth is an exact count over the scale in any order of the sums.  The
stacked evaluators take the images (M, n, k) of one measure's points, all
weighted by that measure's units.  ``depth_oracle`` is an independent
referee, the same recursion with every sign and sum exact in Python
integers on the raw weights; the two implementations share no code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    DEFAULT_TOL,
    Flat,
    _unit_rows,
    as_vector,
    canonical_direction,
    check_count,
    complement_basis,
    complement_bases,
    line,
    sample_directions,
    unit,
)
from .measures import DiscreteMeasure, make_measure, project_measure

EXACT_MAX_DIM = 4
EXACT_WORK = 5000**2 * math.log(5000)  # n^(d-1) ln n of d = 3 at n = 5,000, about 3 s
ORACLE_WORK = 20**4  # n^d of the largest depth_oracle instance: d = 4 at n = 20

_CHUNK = 16384
_BLOCK_ENTRIES = 2**17  # direction-by-point entries per mask-product block
_RING_ENTRIES = 2**15  # ring-by-point entries per block of the certified floor
# the last exact query and its result, keyed on the shape and bytes of
# (points - q) and of the weights; swapped as one reference
_last: tuple = (None, None)


@dataclass(frozen=True, eq=False)
class DepthResult:
    """A bracket [lower, upper] on the depth of a point: ``lower`` (read as
    ``depth``) never exceeds the true depth, ``upper`` is the closed mass of
    the half-space of ``witness``; exact when the two are equal.  Every
    producer divides an exact count by its scale, so 0 <= lower <= upper <=
    1 holds exactly; a bracket outside it raises ValueError."""

    lower: float
    upper: float
    witness: np.ndarray

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.upper <= 1.0):
            raise ValueError(f"depth bracket [{self.lower}, {self.upper}] not in [0, 1]")

    @property
    def depth(self) -> float:
        return self.lower

    @property
    def mode(self) -> str:
        return "exact" if self.lower == self.upper else "bracket"


@dataclass(frozen=True, eq=False)
class LineSearchResult:
    direction: np.ndarray
    anchor: np.ndarray
    depth: float
    iterations: int


def line_depth_thresholds(dim: int) -> dict:
    """Depth guarantees for a line in R^dim: the projection (centerpoint)
    bound 1/dim, and the improved bound 1/dim + 1/(3 dim^3) for dim >= 3."""
    return {"rado": 1.0 / dim, "improved": 1.0 / dim + 1.0 / (3.0 * dim**3)}


# ---------------------------------------------------------------------------
# exact closed-half-space minimization through the origin


def _sweep(x: np.ndarray, y: np.ndarray, w: np.ndarray, gap: float):
    """Exact planar minimization by a half-turn sweep (Rousseeuw & Ruts
    1996, Algorithm AS 307), one sort per row.

    x and y (R, m) are the coordinate planes of nonzero vectors and w (R,
    m) or (m,) their mass units.  The closed-half-plane mass of a normal at
    angle theta is piecewise constant: point j counts from its entry at
    angle alpha_j - pi/2 to its exit at alpha_j + pi/2.  The two are
    antipodal, so each point has one breakpoint in [0, pi): alpha_j + pi/2
    reduced by pi into it, its exit if no reduction was needed, else its
    entry.  Sorted, these cut the half-turn into m arcs, arc k ending where
    the next one begins (the last at the first plus pi).  Arc k holds A_k,
    the exiting units (the points counted at angle 0) plus the prefix sum
    through k of the signed units (+ entry, - exit), and its antipodal arc
    the total less A_k, since off the breakpoints every point lies on one
    side.  The mass at each arc's midpoint is the arc's mass.  Arcs no
    wider than 4 gap are skipped with their antipodes, so every point a
    midpoint leaves out lies more than 2 gap behind it: the attained mass
    check counts points within the tolerance (``gap`` at the top level) of
    the boundary, so a narrower arc's mass cannot be attained.  Rounding
    also splits a breakpoint shared by collinear points into such slivers.
    Returns each row's minimum mass and the midpoint angle of its first
    minimizing arc, the first half-turn before the second: the least wide
    A_i, unless the total less the greatest wide A_k (k its first index) is
    strictly smaller.

    The exiting units are summed once, then one cumsum runs over the signed
    units in the order of one sort of packed keys: a breakpoint's float
    bits with the low (m - 1).bit_length() bits replaced by its index,
    sorted by numpy's vectorized sort as the nonnegative floats they are
    (b is never -0.0, so their order is their bits' unsigned order), the
    low bits giving the order.  Keys that agree above the index bits come
    out in index order, which can invert two breakpoints that close; a row
    whose gathered breakpoints so fall out of order is sorted again by
    argsort, so every row holds them in nondecreasing order, exact ties in
    any order.  Such a row has a decreasing pair, an arc of negative width,
    so only rows with an arc no wider than 4 gap are checked.
    Integer units make every partial sum exact in any order, so the order
    within a group of tied breakpoints moves no bit (the arcs inside it
    have width 0), and the total less A falls strictly as A grows, so the
    first greatest A_k is the first least antipodal arc.  A point of unit 0
    adds nothing, and one that copies another point's vector adds only a
    zero-width arc, so removing such points gives the same bits.
    """
    R, m = x.shape
    b = np.arctan2(y, x)
    b += 0.5 * np.pi
    up, down = b >= np.pi, b < 0.0
    b -= np.pi * (up.view(np.int8) - down.view(np.int8))  # b is never -0.0, so b - 0.0 is b
    exits = ~(up | down) * w
    index = np.uint64((1 << (m - 1).bit_length()) - 1)  # the low bits that hold a point's index
    key = b.view(np.uint64) & ~index
    key |= np.arange(m, dtype=np.uint64)
    key.view(np.float64).sort(axis=1)
    key &= index
    order = key.view(np.intp)
    order += np.arange(0, R * m, m)[:, None]  # flat indices
    sb = np.take(b, order)
    nxt, narrow = _arcs(sb, gap)
    near = np.flatnonzero(narrow.any(axis=1))  # a row out of order has a negative, so narrow, arc
    bad = near[(sb[near, 1:] < sb[near, :-1]).any(axis=1)]  # near-ties ordered by index
    if bad.size:
        order[bad] = np.argsort(b[bad], axis=1) + (m * bad)[:, None]
        sb[bad] = np.take(b, order[bad])
        nxt[bad], narrow[bad] = _arcs(sb[bad], gap)
    b = sb
    s0 = exits.sum(axis=1)
    a = np.take(w - 2.0 * exits, order)  # the signed units, sorted
    np.cumsum(a, axis=1, out=a)
    a += s0[:, None]
    total = a[:, -1] + s0
    high = np.where(narrow, -np.inf, a)
    np.putmask(a, narrow, np.inf)
    rows = np.arange(R)
    i, k = np.argmin(a, axis=1), np.argmax(high, axis=1)
    low, anti = a[rows, i], total - high[rows, k]
    flip = anti < low
    j = np.where(flip, k, i)
    return np.where(flip, anti, low), 0.5 * (b[rows, j] + nxt[rows, j]) + np.pi * flip


def _arcs(b: np.ndarray, gap: float):
    """The ends nxt of the arcs that start at the gathered breakpoints b
    (R, m) of ``_sweep``, the last at the first plus pi, and the mask of
    the arcs no wider than 4 gap."""
    nxt = np.empty_like(b)
    nxt[:, :-1] = b[:, 1:]
    nxt[:, -1] = b[:, 0] + np.pi
    return nxt, nxt - b <= 4.0 * gap


def _min_halfspace_mass(phat: np.ndarray, w: np.ndarray, gap: float):
    """min over unit u of sum_j w_j [<u, p_j> >= 0] and an attaining u, row
    by row: phat (R, m, k), k >= 2, nonzero rows (unit for k >= 3), and w
    (R, m) their mass units, or (m,) shared by the rows.  The one exact
    kernel: k = 2 is the sweep.

    k >= 3 takes the least pivot mass (``_pivot_solutions``), the first on
    a tie.  The witness lifts that pivot's direction v through the
    pivot's reflection rows (``_pivot_images``, the screen's product) and
    tilts it to v - eps p_i, eps half the smallest |<v, p_j>| over the kept
    points, so every kept point keeps its side and the parallel class drops
    behind.  The tilt halves the margin by which the witness clears the
    points, so the pivots are solved with twice the ``gap`` asked of this
    level.
    """
    R, m, k = phat.shape
    if k == 2:
        val, phi = _sweep(phat[..., 0], phat[..., 1], w, gap)
        return val, np.column_stack([np.cos(phi), np.sin(phi)])
    w = np.broadcast_to(w, (R, m))
    vals, dirs = _pivot_solutions(phat, w, 2.0 * gap)
    rows = np.arange(R)
    best = np.argmin(vals, axis=1)
    piv = phat[rows, best]
    _, units, _, basis = _pivot_images(piv[:, None], phat, w)
    v = np.einsum("rj,rjk->rk", dirs[rows, best], basis[:, 1:, 0])
    gaps = np.where(units[:, 0] > 0, np.abs(np.einsum("bmk,bk->bm", phat, v)), np.inf).min(axis=1)
    eps = np.where(np.isfinite(gaps), 0.5 * gaps, 0.5)
    u = v - eps[:, None] * piv
    return vals[rows, best], u / np.linalg.norm(u, axis=1)[:, None]


def _pivot_solutions(phat: np.ndarray, w: np.ndarray, gap: float):
    """Every pivot p_i of the rows of ``_min_halfspace_mass``, k >= 3,
    solved (Dyckerhoff & Mozharovskyi 2016): (masses (R, m), directions (R,
    m, k - 1)), the mass the units antiparallel to p_i plus the least mass
    of the other points' images on p_i^perp (``_pivot_images``), which
    ``_min_halfspace_mass`` finds one dimension down at ``gap``, with its
    direction there.  A row's pivots go in blocks of at most _CHUNK points
    of dimension k - 1.
    """
    R, m, k = phat.shape
    step = max(1, _CHUNK // m)
    vals, dirs = np.empty((R, m)), np.empty((R, m, k - 1))
    for r in range(R):
        for s in range(0, m, step):
            img, units, anti, _ = _pivot_images(phat[r : r + 1, s : s + step], phat[r : r + 1], w[r : r + 1])
            val, x = _min_halfspace_mass(img[0], units[0], gap)
            vals[r, s : s + step], dirs[r, s : s + step] = anti[0] + val, x
    return vals, dirs


def _pivot_images(piv: np.ndarray, pts: np.ndarray, w: np.ndarray):
    """The images of the points pts (R, m, k), k >= 3, with mass units w
    (R, m) on the complements of the unit pivots piv (R, b, k).  A pivot's
    basis rows are the pivot, then rows 1 to k - 1 of the Householder
    reflection that swaps it with -+e_0; stacked basis-major (k b, k) and
    times the row's points (k, m), they give cos and the coordinates of
    every point in one product.  Returns the images (R, b, m, k - 1), unit
    for k - 1 >= 3 and unnormalized in the plane, where the sweep reads
    them as contiguous (b, m) rows; the units with each pivot's parallel
    class (squared image norm <= tol^2) zeroed; the units of that class
    antiparallel to the pivot (cos < 0), (R, b); and the basis rows (R, k,
    b, k).  The class's images are filled in place with the pivot's first
    kept image, so they add no breakpoint.
    """
    R, b, k = piv.shape
    t = piv.copy()  # (p + sign e_0) / (1 + |p_0|): entry 0 is the sign exactly
    t[..., 0] += np.where(piv[..., 0] >= 0.0, 1.0, -1.0)
    t /= 1.0 + np.abs(piv[..., :1])
    basis = np.empty((R, k, b, k))
    basis[:, 0] = piv
    basis[:, 1:] = np.eye(k)[1:, None, :] - piv.transpose(0, 2, 1)[:, 1:, :, None] * t[:, None]
    prod = np.matmul(basis.reshape(R, k * b, k), pts.transpose(0, 2, 1)).reshape(R, k, b, -1)
    cos, img = prod[:, 0], prod[:, 1:]
    sq = (img * img).sum(axis=1)
    kept = sq > DEFAULT_TOL * DEFAULT_TOL
    anti = np.where(~kept & (cos < 0.0), w[:, None], 0.0).sum(axis=2)
    if k > 3:
        img /= np.where(kept, np.sqrt(sq), 1.0)[:, None]
    fill = np.take_along_axis(img, np.argmax(kept, axis=2)[:, None, :, None], axis=3)
    np.copyto(img, fill, where=~kept[:, None])
    return img.transpose(0, 2, 3, 1), np.where(kept, w[:, None], 0.0), anti, basis


def exact_depth_value_2d(m: DiscreteMeasure, q) -> DepthResult:
    """Exact planar depth [v, v] with an unresolved witness candidate: the
    one-row case of ``exact_depth_values``, for callers that only need the
    number and a descent direction."""
    (v,), (u,) = exact_depth_values(m.points[None], m, [0], np.asarray(q, dtype=float)[None])
    return DepthResult(float(v), float(v), u)


def exact_depth_values(points, m: DiscreteMeasure, which, q):
    """Exact depth of many queries at once: row r is the query q[r] (R, k)
    among the points points[which[r]], points being a stack (M, n, k), k <=
    4, of images of the points of m, each weighted by m's mass units, stored
    point-major or coordinate-major (a transposed view), with the same bits.
    Rows go to the kernel in blocks of at most _CHUNK points, centred one
    coordinate plane at a time into (rows, k, n).  A point within
    ``DEFAULT_TOL`` of the query (squared distance, summed over the planes
    in coordinate order, at most its square) counts under every direction:
    its units are summed over the full mask in point order, and in the
    kernel it is a copy of the row's first other point with unit 0, which
    moves no bit.  k = 1 counts the two sides; every k >= 2 goes to
    ``_min_halfspace_mass``, the plane as its two coordinate planes,
    unnormalized, and above it unit rows, point-major as the pivot
    products read them.  Each row's value is (the units at the query +
    the kernel's minimum) / scale, an exact count over the scale; a row
    whose points all lie at the query has depth 1 and direction e_0.
    Returns (values (R,), directions (R, k)); beyond general position a
    direction may miss its row's minimum (``point_depth`` checks it).
    """
    points, units = np.asarray(points), m.units
    R, n, k = len(which), len(units), points.shape[2]
    vals, dirs = np.empty(R), np.empty((R, k))
    step = max(1, _CHUNK // n)
    for s in range(0, R, step):
        rows = which[s : s + step]
        c = np.empty((len(rows), k, n))  # coordinate planes of the rows, each (rows, n) contiguous
        for i in range(k):
            np.subtract(points[rows, :, i], q[s : s + step, i, None], out=c[:, i])
        sq = (c * c).sum(axis=1)  # the bits of the sum over each point's coordinates in order
        at = sq <= DEFAULT_TOL**2
        w, w0, empty = units, 0.0, np.zeros(len(rows), dtype=bool)
        if at.any():
            w0, empty = np.where(at, w, 0.0).sum(axis=1), at.all(axis=1)
            fill = c[np.arange(len(rows)), :, np.argmax(~at, axis=1)]
            fill[empty] = 1.0  # no other point: any nonzero row
            np.copyto(c, fill[..., None], where=at[:, None])
            w = np.where(at, 0.0, w)
        if k == 1:
            pos, neg = (np.where(side, w, 0.0).sum(axis=1) for side in (c[:, 0] > 0.0, c[:, 0] < 0.0))
            val, u = np.minimum(pos, neg), np.where(pos <= neg, 1.0, -1.0)[:, None]
        elif k == 2:
            val, u = _min_halfspace_mass(c.transpose(0, 2, 1), w, DEFAULT_TOL)
        else:
            p = np.ascontiguousarray(c.transpose(0, 2, 1))  # point-major, as the pivot products read it
            val, u = _min_halfspace_mass(p / np.linalg.norm(p, axis=2)[..., None], w, DEFAULT_TOL)
        vals[s : s + step] = np.where(empty, 1.0, (w0 + val) / m.scale)
        dirs[s : s + step] = np.where(empty[:, None], np.eye(k)[0], u)
    return vals, dirs


def sampled_depth_values(points, m: DiscreteMeasure, which, q, directions):
    """``point_depth(mode="sampled")`` of many queries at once: row r is the
    query q[r] (R, d) among the images points[which[r]] of the points of m,
    stacked as there, minimized over its own unit directions directions[r]
    (R, count, d).  The rows are centred and normalized in blocks of at most
    _CHUNK points; a point within ``DEFAULT_TOL`` of the query (squared
    distance at most its square, as in ``exact_depth_values``) counts under
    every direction.  Each row then takes its direction and
    mask products in cache-sized blocks of directions (``_row_blocks``),
    which give the bits of one product over all of them.  The masks' units
    are summed by m's rule (``DiscreteMeasure.unit_sums``: integer counts,
    with no float copy of a mask, if m is uniform) and divided by its scale
    once.  Returns (values (R,), minimizing directions (R, d)).
    """
    points = np.asarray(points)
    R, n = len(which), m.n
    vals, wits = np.empty(R), np.empty((R, directions.shape[2]))
    step = max(1, _CHUNK // n)
    for lo in range(0, R, step):
        k = which[lo : lo + step]
        p = points[k] - q[lo : lo + step, None, :]
        sq = (p * p).sum(axis=2)
        norms = np.sqrt(sq)  # the bits of np.linalg.norm
        norms[sq <= DEFAULT_TOL**2] = np.inf  # at the query: counted under every direction
        phat = (p / norms[..., None]).transpose(0, 2, 1)
        for b in range(len(k)):
            u = directions[lo + b]
            masses = np.concatenate([m.unit_sums(u[blk] @ phat[b] >= -DEFAULT_TOL) for blk in _row_blocks(len(u), n)])
            j = int(np.argmin(masses))
            vals[lo + b], wits[lo + b] = masses[j] / m.scale, u[j]
    return vals, wits


def closed_mass_bounds(points, m: DiscreteMeasure):
    """The rule that bounds from above the planar values of
    ``exact_depth_values`` (from any unit directions) and those of
    ``sampled_depth_values`` (from directions among the row's own) in the
    images points (M, n, d) of the points of m, set up once for them.
    Returns bound(which, q, directions): row r gets the least, over its unit
    directions u in directions[r] (R, D, d), of the mass of the points p of
    image k = which[r] whose float32 test <(u, s'_r - <u, q[r] - z_k>), (p -
    z_k, 1)> >= 0 holds, where

        s_r = max(eta reach_r, 2 tol) + 1e-14 (|z_k|_1 + |h_k|_1 + |q[r]|_1),
        s'_r = s_r + c (|h_k|_1 + |q[r] - z_k|_1 + s_r),  c = (d + 4) 2^-23,

    eta = 3 (n + 1) tol, tol being ``DEFAULT_TOL``, z_k and h_k the centre
    and half-widths of the bounding box of image k, and reach_r = |h_k| +
    |q[r] - z_k|.  So, up to rounding, reach_r >= |p - q[r]| and |h_k|_1 >=
    |p - z_k|_1 for each point p of the image.  Every point with <u, p -
    q[r]> >= -s_r passes the test, so the bound is at least the mass of
    those points.

    The slack eta makes that mass bound the planar sweep although it skips
    arcs no wider than 4 tol: at most n breakpoints fall within angle eta of
    u, so one of the pieces they cut that span into is wider than 2 eta /
    (n + 1) = 6 tol.  The arc holding it is swept, and its mass counts no
    point p but those within 2 tol of the query or with <u, p - q> >= -eta
    |p - q| >= -eta reach_r.  The sampled value is the mass at one of its
    directions, which counts fewer points, with slack tol, and its points
    within tol of the query are within 2 tol.  Both margins dwarf the
    rounding of the evaluators' own norms and products.  The 1e-14 term
    covers the float64 rounding of p - z_k, q - z_k (which may leave |p -
    z_k|_1 above |h_k|_1 by about 2^-52 |z_k|_1), <u, q - z_k> and s'_r -
    <u, q - z_k>.  The c term covers the float32 test, whose terms are the
    images' points less their box centres, stored once in float32 and
    augmented by a 1 (M, d + 1, n), and the row's (u, s'_r - <u, q - z_k>)
    rounded to float32: with e = 2^-24 and H = |h_k|_1 + |q[r] - z_k|_1,
    rounding u and p - z_k moves <u, p - z_k> by at most 2 e |h_k|_1 (|u_i|
    <= 1), rounding the last entry t moves it by e |t| <= e (s'_r + |q[r] -
    z_k|_1), and the (d + 1)-term product, summed in any order, adds at
    most (d + 1) e (1 + O(e)) times the sum of its terms' magnitudes, at
    most H + s'_r up to O(e).  That is at most (d + 3) e (1 + O(e)) (H +
    s'_r), under half of c (H + s_r), the margin by which s'_r exceeds s_r.
    Centred, the test's rounding scales with the image's spread and the
    query's offset from it, not with their distance from the origin.

    The tests run as stacked float32 matmuls in blocks of about 4 _CHUNK
    direction-by-point entries and count m's mass units by its rule
    (``DiscreteMeasure.unit_sums``), divided by its scale once, so a bound
    and an evaluator's value are exact counts over the same scale and the
    bound is at least the value exactly, not only up to rounding.
    """
    points = np.asarray(points)
    M, n, d = points.shape
    low, high = points.min(axis=1), points.max(axis=1)
    centre, half = 0.5 * (low + high), 0.5 * (high - low)
    aug = np.ones((M, d + 1, n), dtype=np.float32)
    aug[:, :d] = (points - centre[:, None]).transpose(0, 2, 1)
    rad = np.sqrt((half * half).sum(axis=1))
    top = (np.abs(centre) + half).sum(axis=1)  # the box's farthest corner: at least every |p|_1
    spread = half.sum(axis=1)  # up to rounding, at least every |p - centre|_1
    eta = 3.0 * (n + 1) * DEFAULT_TOL
    c = (d + 4) * 2.0**-23

    def bound(which, q, directions):
        R, D, _ = directions.shape
        off = q - centre[which]
        reach = rad[which] + np.sqrt((off * off).sum(axis=1))
        s = np.maximum(eta * reach, 2.0 * DEFAULT_TOL) + 1e-14 * (top[which] + np.abs(q).sum(axis=1))
        s += c * (spread[which] + np.abs(off).sum(axis=1) + s)
        a = np.empty((R, D, d + 1), dtype=np.float32)
        a[..., :d] = directions
        a[..., d] = s[:, None] - np.matmul(directions, off[:, :, None])[..., 0]
        out = np.empty(R)
        step = max(1, 4 * _CHUNK // (n * D))
        for lo in range(0, R, step):
            k = which[lo : lo + step]
            hit = np.matmul(a[lo : lo + step], aug[k]) >= 0.0
            out[lo : lo + step] = m.unit_sums(hit).min(axis=1) / m.scale
        return out

    return bound


def point_depth(
    m: DiscreteMeasure,
    q,
    mode: str = "exact",
    sample_count: int = 512,
    seed: int = 0,
) -> DepthResult:
    """Half-space depth of a point, as a bracket (``DepthResult``).

    exact    project and sweep (see the module docstring): one row of
             ``exact_depth_values``, where ``_exact_affordable`` allows it
             (``ValueError`` elsewhere).  The upper end is the closed mass
             of its direction, the witness (``sampled_depth_values`` at
             that direction alone): an exact count over the scale.  It is
             the lower end too, unless it misses the computed minimum
             (beyond general position): there the lower end is
             ``certified_depth_floor``.  The last query's result is kept
             (its witness read-only), keyed on the bytes of (points - q)
             and the weights, so asking again returns the same result.
    sampled  [0, the least closed mass over ``sample_count`` seeded sphere
             directions]; the direction stream is prefix-stable in the
             count, so a larger sample with the same seed can only lower the
             upper end.  This is the one-row case of
             ``sampled_depth_values``, whose cache-sized blocks of
             directions give the bits of one product over all of them.
    """
    global _last
    q = as_vector(q)
    if q.size != m.dim:
        raise ValueError(f"query dim {q.size} != measure dim {m.dim}")
    if mode == "exact":
        if not _exact_affordable(m):
            raise ValueError(f"exact mode limited to dim <= {EXACT_MAX_DIM} and n^(d-1) ln n <= EXACT_WORK "
                             f"(n = 5000 in dim 3, 332 in dim 4), got dim {m.dim}, n = {m.n}")
        p = m.points - q
        key, last = (p.shape, p.tobytes(), m.weights.tobytes()), _last
        if last[0] == key:
            return last[1]
        (val,), (u,) = exact_depth_values(m.points[None], m, [0], q[None])
        upper = float(sampled_depth_values(m.points[None], m, [0], q[None], u[None, None])[0][0])
        # beyond general position the minimum may be unattainable at the
        # witness; its attained mass, a count over the same scale, is then
        # only an upper bound
        res = DepthResult(upper if upper == val else certified_depth_floor(m, q), upper, u)
        res.witness.setflags(write=False)
        _last = (key, res)
        return res
    if mode == "sampled":
        u = sample_directions(m.dim, sample_count, seed=seed, mode="sphere")
        vals, us = sampled_depth_values(m.points[None], m, [0], q[None], u[None])
        return DepthResult(0.0, float(vals[0]), us[0])
    raise ValueError(f"unknown mode {mode!r}")


def _exact_affordable(m: DiscreteMeasure) -> bool:
    """The one cost rule of exact depth: dim <= EXACT_MAX_DIM (the highest
    dimension in which the tests check the kernel against ``depth_oracle``)
    and the kernel's work n^(d-1) ln n at most EXACT_WORK, that of d = 3 at
    n = 5,000 (about 3 s): every n in d = 1, up to about 13 million points
    in d = 2 and 332 in d = 4."""
    return m.dim <= EXACT_MAX_DIM and m.n ** (m.dim - 1) * math.log(m.n) <= EXACT_WORK


def depth_bracket(m: DiscreteMeasure, q, seed: int = 0, upper: DepthResult | None = None) -> DepthResult:
    """The depth of q in m by the one rule that picks an evaluator: exact
    (``point_depth``) where ``_exact_affordable`` allows it; elsewhere from
    ``certified_depth_floor`` at gamma 0.1 (0 outside dim 2 to 4) to the
    sampled bound over 8,192 directions of ``seed``, or to the upper end and
    witness of ``upper``, a caller's own bracket at q."""
    q = as_vector(q)
    if _exact_affordable(m):
        return point_depth(m, q)
    upper = upper or point_depth(m, q, mode="sampled", sample_count=8192, seed=seed)
    return DepthResult(certified_depth_floor(m, q) if 2 <= m.dim <= 4 else 0.0, upper.upper, upper.witness)


def certified_depth_floor(m: DiscreteMeasure, q, gamma: float = 0.1) -> float:
    """Certified lower bound on the exact depth of q.

    Uses a deterministic angle-grid net with covering radius <= gamma on the
    unit sphere: for every direction u there is a net point u0 within angle
    gamma, and {x : <u, x - q> >= 0} contains {x : <u0, x - q> >= sin(gamma)
    |x - q|}, which needs 0 < gamma <= pi / 2 (``ValueError`` otherwise).
    The net's rows come in rings, d - 2 polar angles fixed and the azimuth
    turning (``_net_rows``), and ``_ring_brackets`` counts, row by row with
    the circular sweep of Rousseeuw & Ruts (1996), the mass units
    of the points p = x - q with <u0, p> >= t, t = sin(gamma)
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
    if q.size != d:
        raise ValueError(f"query dim {q.size} != measure dim {d}")
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
    return float(_ring_brackets(p, m.units, _net_rows(polar, d), step, count, t).min()) / m.scale


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
    go in blocks of about _RING_ENTRIES (2^15) ring-by-point entries, 65
    rings at n = 500, whose coordinates and arc temporaries stay in cache
    (at n = 500 in d = 4, blocks of 2^14 or 2^16 entries ran 3-8% slower
    and of 2^17 12-17%); a ring's brackets do not depend on the other rings
    in its block.  A and the
    whole-ring sums are ``np.einsum`` loops, not BLAS products.  On integer
    mass units every partial sum that reaches a bracket stays
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
    rb = max(1, _RING_ENTRIES // n)
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
    integer mass units, so each row's mass has the bits of one
    product over all the rows, however the blocks and the BLAS threads
    split them."""
    step = max(1, _BLOCK_ENTRIES // n)
    return [slice(a, min(a + step, rows)) for a in range(0, rows, step)]


# ---------------------------------------------------------------------------
# independent exact oracle


def depth_oracle(m: DiscreteMeasure, q) -> DepthResult:
    """Ground-truth depth [v, v] of an instance with n^d <= ORACLE_WORK (d
    = 3 up to n = 54, d = 4 up to n = 20), exact in Python integers on the
    raw weights: Dyckerhoff & Mozharovskyi's recursion (2016), every sign
    exact as in Yap (1997).  Shares no code with ``point_depth``.

    Every float is a dyadic rational, so one common denominator turns the
    points, the query and the weights into integers.  With P the nonzero x_i
    - q, the depth is (weight at q + open_min(P)) / total weight, open_min
    being the least weight with <u, p> > 0 over generic u (no <u, p> = 0).
    That is the least closed mass: on an open cell of the arrangement
    {p^perp} the two agree, and a u on a face, moved by a small generic
    vector, keeps its nonzero signs, so its closed mass is at least the
    open mass of that neighbouring cell.  Every open cell has a facet on
    some p_j^perp, so open_min(P) is the least over j of open_min of the
    images of P on p_j^perp plus the lesser of the weights parallel and
    antiparallel to p_j (``_open_min``).  The final division of two
    integers is correctly rounded, so a uniform measure reads count / n.
    The witness, the least cell's integer direction, is rounded once to a
    float unit vector.
    """
    q, d = as_vector(q), m.dim
    if q.size != d or m.n**d > ORACLE_WORK:
        raise ValueError(f"oracle needs a query of dim {d} and n^d <= {ORACLE_WORK}, got {q.size} and {m.n}^{d}")
    ratios = [v.as_integer_ratio() for v in [*q.tolist(), *m.points.ravel().tolist(), *m.weights.tolist()]]
    den = math.lcm(*(b for _, b in ratios))
    c = [a * (den // b) for a, b in ratios]
    cells = {}
    for i, wi in enumerate(c[d * (m.n + 1) :]):
        key = _primitive([a - b for a, b in zip(c[d * (i + 1) : d * (i + 2)], c[:d])])
        cells[key] = cells.get(key, 0) + wi
    at = cells.pop(None, 0)  # at the query: counted under every direction
    if not cells:
        return DepthResult(1.0, 1.0, np.eye(d)[0])
    val, u = _open_min(cells, d)
    depth = (at + val) / (at + sum(cells.values()))
    top = max(abs(x) for x in u)
    return DepthResult(depth, depth, unit([x / top for x in u]))


def _primitive(p):
    """The integer vector p over the gcd of its entries, None if p is zero."""
    g = math.gcd(*p)
    return tuple(x // g for x in p) if g else None


def _open_min(cells: dict, k: int):
    """(open_min, u) of ``depth_oracle`` for the primitive vectors p (keys,
    weights as values) in a span of at most k dimensions: u is an integer
    direction in that span, with no <u, p> = 0, whose open mass is least.
    In dimension 1 the vectors are +-e, e the first.  Above it, the image
    |p_j|^2 p - <p_j, p> p_j keeps the signs of p's projection on p_j^perp,
    and the least pivot's image direction v is lifted to K v +- p_j, the
    sign taking the lesser of the parallel and antiparallel weight and K >
    |<p_j, p>| / |<v, p>| for every other p, so that no other sign moves."""
    if k == 1:
        e = next(iter(cells))
        f = tuple(-x for x in e)
        return min((cells[e], e), (cells.get(f, 0), f))
    best = None
    for pj in cells:
        nj, sub = sum(a * a for a in pj), {}
        for p, w in cells.items():
            c = sum(a * b for a, b in zip(pj, p))
            key = _primitive([nj * a - c * b for a, b in zip(p, pj)]) or c > 0  # True: parallel, False: antiparallel
            sub[key] = sub.get(key, 0) + w
        par, anti = sub.pop(True, 0), sub.pop(False, 0)
        val, v = _open_min(sub, k - 1) if sub else (0, (0,) * len(pj))
        if best is None or val + min(par, anti) < best[0]:
            best = (val + min(par, anti), v, pj, 1 if par <= anti else -1)
    val, v, pj, sign = best
    dots = [(abs(sum(a * b for a, b in zip(v, p))), abs(sum(a * b for a, b in zip(pj, p)))) for p in cells]
    big = max((b // a + 1 for a, b in dots if a), default=1)
    return val, _primitive([big * a + sign * b for a, b in zip(v, pj)])


# ---------------------------------------------------------------------------
# flats, profiles, line search


def flat_depth(m: DiscreteMeasure, f: Flat) -> DepthResult:
    """Depth of a k-flat: project the measure along it and take the
    ``depth_bracket`` of the projected anchor point (the image of the flat),
    whose lower end never overstates the depth."""
    if f.k >= m.dim:
        raise ValueError("flat dimension must be below the ambient dimension")
    return depth_bracket(project_measure(m, f), complement_basis(f) @ f.base)


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
    comp = complement_bases(_unit_rows(u)[:, None, :])
    res = _median.tukey_medians(np.matmul(m.points, comp.transpose(0, 2, 1)), m, **(budget or {}))
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
    chosen direction.  ``grid_count`` >= 1, ``refine_iters`` >= 0 and
    ``top_k`` >= 1 must be integers (``ValueError`` before any work).
    """
    if m.dim < 3:
        raise ValueError("line search needs ambient dimension >= 3")
    for name, value, least in (("grid_count", grid_count, 1), ("refine_iters", refine_iters, 0), ("top_k", top_k, 1)):
        check_count(name, value, least)
    grid = canonical_direction(sample_directions(m.dim, grid_count, mode="grid"))
    scan_m = _subsampled(m, 160, seed)
    cheap = {"mode": "multistart", "starts": 4, "iters": 4, "seed": seed}
    mid = {"mode": "multistart", "starts": 10, "iters": 16, "seed": seed}

    scores, _ = direction_profiles(scan_m, grid, cheap)
    evals = grid.shape[0]
    order = np.argsort(-scores)[:top_k]

    best_a, best_u, best_med = -1.0, None, None
    cap = 2.0 * np.sqrt(4.0 * np.pi / grid_count)
    cands = grid[order]  # the re-rank, then each refine step's cap samples
    for it in range(refine_iters + 1):
        if it:
            cands = canonical_direction(_cap_samples(best_u, cap, 24, seed + 1000 + it - 1))
            cap *= 0.5
        a_s, meds = direction_profiles(m, cands, mid)
        evals += len(cands)
        j = int(np.argmax(a_s))  # the first of tied profiles wins
        if a_s[j] > best_a:
            best_a, best_u, best_med = a_s[j], cands[j], meds[j]

    heavy = {"starts": 24, "iters": 40, "seed": seed}  # auto: exact in R^3, the heavy ascent above
    a_s, meds = direction_profiles(m, [best_u], heavy)
    a, med = a_s[0], meds[0]
    evals += 1
    if a < best_a:  # the final profile lost ground: keep the mid-budget median
        a, med = best_a, best_med
    anchor = complement_basis(line(best_u)).T @ med
    return LineSearchResult(best_u, anchor, float(a), evals)
