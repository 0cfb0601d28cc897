"""Central cones, central vectors, containment checks, and the structural map.

The central cone of a simplicial cone B (under a measure) is the part of B
kept by every origin half-space that captures at least a d/(d+1) fraction of
B's mass.  Its unit-sphere patch has a well-defined mean direction, the
central vector e(B).  The cone is approximated by a finite constraint pool
(an outer approximation that shrinks as the pool grows); the patch of that
polyhedral cone is then exact.  In d = 2 it is an arc, whose mean direction
is its midpoint.  In d = 3 it is a convex spherical polygon, clipped from B's
triangle in a gnomonic chart (Sutherland-Hodgman), whose first moment is, by
Stokes' theorem,

    int_P x dA = 1/2 sum_i theta_i (v_i x v_{i+1}) / |v_i x v_{i+1}|

over its edges, theta_i being the arc length of edge i.  Patches are clipped
in lockstep, many cones at once on padded arrays, with the bits of one clip
per cone.

A constraint's capture runs over the points inside B only, the ones that
carry B's mass: an exact count of B's mass units (``depth._units``).

The structural map sends a recentered measure to an unordered tuple of d + 1
vectors, one per matched-cone slot, by integrating (a - weight) e(B_i) over
normal tuples; the origin ends up strictly inside their convex hull.  It
screens every tuple sample first against the reference tuple's weight and
cone masks, computed once, then builds the central cones of ``MAP_BLOCK``
family members at a time (their pools drawn seed by seed, then stacked
and counted together), clips all their patches together
and adds the contributions in sample order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    DEFAULT_TOL,
    SimplicialCone,
    cone_contains_many,
    hull_interior_margin,
    sample_directions,
    unit,
)
from .measures import DiscreteMeasure, cone_mass
from .cones import (
    GeneratingTuple,
    canonical_labeling,
    cones_of,
    family_level_cap,
    family_member_order,
    family_overlap_floor,
    is_generating,
    TupleMasses,
    tuple_masses,
    tuple_weight,
)
from .median import witness_tuple
from .depth import _BLOCK_ENTRIES, _units, point_depth

# the structural map's Monte Carlo proposal: the constraint pool of each
# central cone, the angular scale of the witness perturbations and the share
# of uniformly drawn tuples
MAP_CONSTRAINT_SAMPLES = 384
MAP_PERTURB_ANGLE = 0.1
MAP_UNIFORM_SHARE = 0.1
# tuple samples whose central cones are built and clipped together
MAP_BLOCK = 8


@dataclass(frozen=True, eq=False)
class CentralConeApprox:
    """Outer approximation of a central cone: the base cone intersected with
    finitely many sampled qualifying half-spaces."""

    base: SimplicialCone
    constraints: np.ndarray  # (k, d) outer normals of origin half-spaces

    def patch(self) -> tuple[np.ndarray, np.ndarray]:
        """The exact sphere patch: its vertices (unit rows, in order) and its
        unit mean direction, the central vector.  One clip of
        ``_clip_patches``; raises RuntimeError when the patch has no
        interior, and ValueError in a dimension other than 2 and 3.
        """
        return _nonempty(_clip_patches([self])[0])


def _nonempty(patch):
    if patch is None:
        raise RuntimeError("the central-cone sphere patch is empty")
    return patch


def _clip_patches(approxes) -> list:
    """Exact sphere patches of central-cone approximations of one dimension,
    clipped in lockstep: per approximation (vertices, central vector), or
    None when its patch has no interior.

    B's rays -inv(normals) all lie in the plane <c, x> = 1 for
    c = -(sum of B's normals), so B's section there is a segment (d = 2) or
    a triangle (d = 3), and each constraint cuts it along a line.  The
    sections and constraint sets are padded arrays, and every value is the
    one a clip of that approximation alone computes, bit for bit.  Raises
    ValueError in a dimension other than 2 and 3.
    """
    if not approxes:
        return []
    d = approxes[0].base.dim
    if d not in (2, 3):
        raise ValueError(f"exact central-cone patches need d = 2 or 3, got d = {d}")
    v = -np.linalg.inv(np.stack([a.base.normals for a in approxes])).transpose(0, 2, 1)
    nk = np.array([a.constraints.shape[0] for a in approxes])
    cons, _ = _pack(np.arange(nk.max(initial=0)) < nk[:, None], np.vstack([a.constraints for a in approxes]))
    return (_clip_arcs if d == 2 else _clip_polygons)(v, cons, nk)


def _products(v: np.ndarray, cons: np.ndarray, nk: np.ndarray, held=None) -> np.ndarray:
    """(P, M, K) products of each padded section with its constraints, each
    value as the one-approximation product ``v @ cons.T`` gives it: a matrix
    product per slice, but for a set of one constraint a matrix-vector
    product, whose bits also depend on the memory layout of the section;
    ``held`` (default ``v``) holds each section in the layout that a clip of
    its approximation alone holds it in."""
    f = v @ cons.transpose(0, 2, 1)
    held = v if held is None else held
    for i in np.flatnonzero(nk == 1):
        f[i, :, 0] = held[i] @ cons[i, 0]
    return f


def _pack(mask: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``values``, one per True entry of ``mask`` in row-major order, moved
    to the front of each row of a zero-padded (rows, width, d) array; and
    the row lengths."""
    lengths = mask.sum(axis=tuple(range(1, mask.ndim)))
    width = max(int(lengths.max(initial=0)), 1)
    out = np.zeros((mask.shape[0], width, values.shape[-1]))
    out[np.arange(width) < lengths[:, None]] = values
    return out, lengths


def _clip_arcs(v: np.ndarray, cons: np.ndarray, nk: np.ndarray) -> list:
    """d = 2: each segment v0 + t (v1 - v0), t in [0, 1], clipped by all of
    its constraints at once (a padding constraint is 0 at both ends, so it
    never cuts); the central vector is the arc's midpoint."""
    f = _products(v, cons, nk)
    f0, f1 = f[:, 0], f[:, 1]  # each constraint at both ends of the segment
    g = f1 - f0
    with np.errstate(divide="ignore", invalid="ignore"):
        t = -f0 / g  # where it crosses the segment
    lo = t.max(axis=1, where=g < 0, initial=0.0)
    hi = t.min(axis=1, where=g > 0, initial=1.0)
    empty = np.any((g == 0) & (f0 > 0), axis=1) | ~(lo < hi)
    u = v[:, :1] + np.stack([lo, hi], axis=1)[:, :, None] * (v[:, 1:] - v[:, :1])
    u /= np.linalg.norm(u, axis=2)[:, :, None]
    return [None if bad else (ui, unit(ui.sum(axis=0))) for ui, bad in zip(u, empty)]


def _clip_polygons(v: np.ndarray, cons: np.ndarray, nk: np.ndarray) -> list:
    """d = 3: each step clips every unfinished triangle-section polygon by
    its deepest cut (the first of equal ones, in the constraints' order),
    each edge crossing placed between the edge's two vertices (a
    Sutherland-Hodgman step).  A constraint counts as met once every vertex
    meets it within DEFAULT_TOL on the unit sphere, and then leaves its
    polygon's active set for good; a polygon is done when none is left, and
    empty when a cut keeps none of its vertices."""
    # counterclockwise seen from outside the sphere, as views of B's rays
    held = [r[::-1] if flip else r for r, flip in zip(v, np.linalg.det(v) < 0)]
    v = np.stack(held)
    out = [None] * v.shape[0]
    ids = np.arange(v.shape[0])
    nv = np.full(v.shape[0], 3)
    done_ids, done_v, done_n = [], [], []
    with np.errstate(divide="ignore", invalid="ignore"):  # padding rows are zero
        while ids.size:
            f = _products(v, cons, nk, held)
            held = None  # from the first cut on, each section is a new row-major array
            rows = np.arange(v.shape[1]) < nv[:, None]
            # 0 / 0 on a padding row, which fmax passes over; a padding
            # constraint gives 0 and never cuts
            worst = np.fmax.reduce(f / np.linalg.norm(v, axis=2)[:, :, None], axis=1)
            cut = worst > DEFAULT_TOL
            more = cut.any(axis=1)
            done_ids.append(ids[~more])
            done_v.append(v[~more][rows[~more]])
            done_n.append(nv[~more])
            fj = f[np.arange(len(ids)), :, np.argmax(worst, axis=1)]  # the deepest cut
            keep = (fj <= 0) & rows
            go = more & keep.any(axis=1)
            cons = cons[cut & go[:, None]]
            v, nv, fj, keep, cut, ids = (x[go] for x in (v, nv, fj, keep, cut, ids))
            nxt = np.arange(1, v.shape[1] + 1)
            nxt = np.where(nxt < nv[:, None], nxt, 0)  # vertex i + 1 around each polygon
            fn = np.take_along_axis(fj, nxt, axis=1)
            pe, e = np.nonzero(np.sign(fj) * np.sign(fn) < 0)  # edges i -> i + 1 that cross
            t = fj[pe, e] / (fj[pe, e] - fn[pe, e])
            slots = np.zeros(v.shape[:2] + (2,), dtype=bool)  # vertex i, then edge i's crossing
            slots[:, :, 0] = keep
            slots[pe, e, 1] = True
            points = np.stack([v, np.zeros_like(v)], axis=2)
            points[pe, e, 1] = v[pe, e] + t[:, None] * (v[pe, nxt[pe, e]] - v[pe, e])
            v, nv = _pack(slots, points[slots])
            cons, nk = _pack(cut, cons)  # a constraint met by every vertex stays met
    for i, patch in zip(np.concatenate(done_ids), _polygon_patches(np.concatenate(done_v), np.concatenate(done_n))):
        out[i] = patch
    return out


def _polygon_patches(v: np.ndarray, lengths: np.ndarray) -> list:
    """(unit vertices, central vector) of each clipped d = 3 section, or None
    when its sphere polygon has no interior; ``v`` holds the sections'
    vertices one section after another, ``lengths`` their counts."""
    u = v / np.linalg.norm(v, axis=1)[:, None]
    polygons = np.split(u, np.cumsum(lengths)[:-1])
    moments, perimeters = _sphere_moments(u, lengths)
    return [(ui, unit(mo)) if np.linalg.norm(mo) > DEFAULT_TOL * per else None
            for ui, mo, per in zip(polygons, moments, perimeters)]


def _sphere_moments(u: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(int_P x dA, perimeter) of each spherical polygon P, its unit vertices
    counterclockwise seen from outside: ``u`` holds the polygons' vertices
    one polygon after another, ``lengths`` their counts.  Repeated vertices
    are harmless.  Each polygon's sums are taken over its own rows."""
    ends = np.cumsum(lengths)
    nxt = np.arange(1, len(u) + 1)
    nxt[ends - 1] = ends - lengths  # each polygon's last vertex is followed by its first
    cr = np.cross(u, u[nxt])
    s = np.linalg.norm(cr, axis=1)
    theta = np.arctan2(s, np.sum(u * u[nxt], axis=1))  # arc length of each edge
    w = np.divide(theta, s, out=np.ones_like(s), where=s > 0)
    spans = [slice(b - n, b) for b, n in zip(ends, lengths)]
    return (0.5 * np.array([w[sp] @ cr[sp] for sp in spans]).reshape(-1, 3),
            np.array([theta[sp].sum() for sp in spans]))


@dataclass(frozen=True, eq=False)
class StructuralTuple:
    vectors: np.ndarray  # (d+1, d), unordered
    margin: float  # interior margin of 0 in conv(vectors)


def _exact_constraint_candidates(m: DiscreteMeasure, cap: int, seed: int) -> np.ndarray:
    """Hyperplane normals through the origin spanned by measure points."""
    d = m.dim
    norms = np.linalg.norm(m.points, axis=1)
    keep = norms > DEFAULT_TOL
    phat = m.points[keep] / norms[keep][:, None]
    rng = np.random.default_rng(seed)
    if d == 2:
        cand = np.column_stack([-phat[:, 1], phat[:, 0]])
    elif d == 3:
        # the drawn pairs p of the row-major upper triangle i < j, as (i, j)
        n = phat.shape[0]
        pairs = n * (n - 1) // 2
        p = rng.choice(pairs, size=cap, replace=False) if pairs > cap else np.arange(pairs)
        rows = np.arange(n)
        start = rows * (2 * n - rows - 1) // 2  # where row i begins
        ii = np.searchsorted(start, p, side="right") - 1
        jj = p - start[ii] + ii + 1
        # phat_i x phat_j and its length, with the bits of np.cross and norm
        x, y, z = phat.T
        xi, yi, zi, xj, yj, zj = x[ii], y[ii], z[ii], x[jj], y[jj], z[jj]
        cr = np.stack([yi * zj - zi * yj, zi * xj - xi * zj, xi * yj - yi * xj])
        lens = np.sqrt(cr[0] * cr[0] + cr[1] * cr[1] + cr[2] * cr[2])
        cand = (cr[:, lens > 1e-9] / lens[lens > 1e-9]).T
    else:
        return np.empty((0, d))
    cand = np.vstack([cand, -cand])
    if cand.shape[0] > cap:
        cand = cand[rng.choice(cand.shape[0], size=cap, replace=False)]
    return cand


def _constraint_pools(m: DiscreteMeasure, samples: int, seeds) -> tuple[np.ndarray, np.ndarray]:
    """The constraint pool of each seed, zero-padded (len(seeds), width, d)
    (a zero row captures every point), and the pool sizes: ``samples``
    sphere directions of the seed, then the exact candidates of seed + 1."""
    built = [np.vstack([sample_directions(m.dim, samples, seed=s, mode="sphere"),
                        _exact_constraint_candidates(m, 1024, s + 1)]) for s in seeds]
    sizes = np.array([len(p) for p in built])
    pools = np.zeros((len(seeds), sizes.max(initial=0), m.dim))
    for pool, p in zip(pools, built):
        pool[: len(p)] = p
    return pools, sizes


def _capture_blocks(cones: int, rows: int, width: int) -> list:
    """The (cone slice, pool-row slice) blocks of a capture of ``cones``
    pools of ``rows`` rows against ``width`` points each, about
    ``_BLOCK_ENTRIES`` entries a block: the whole pools of several cones
    when they fit, else one cone's pool rows in runs."""
    per = max(1, _BLOCK_ENTRIES // max(1, rows * width))
    step = rows if per > 1 else max(1, _BLOCK_ENTRIES // width)
    return [(slice(c, c + per), slice(r, r + step)) for c in range(0, cones, per) for r in range(0, rows, step)]


def _central_cones(m: DiscreteMeasure, cones, seeds, samples: int, max_constraints: int | None = None) -> list:
    """The sampled outer approximations of the central cones of ``cones``
    under m, cone i from the constraint pool of seed seeds[i]: per cone its
    ``CentralConeApprox``, or None when the cone carries no mass.

    Each seed's pool (``_constraint_pools``) is drawn once, however many
    cones share it; its exact block does not depend on ``samples``, so pools
    nest across sample counts and the approximation shrinks monotonically
    toward the true central cone.  A constraint is kept when its half-space
    captures at least the fraction d/(d+1) of B's mass.  Only the points
    inside B carry that mass, so the capture runs over them alone, on
    stacked zero-padded arrays, in ``_capture_blocks`` blocks: one product
    of the hit mask with the cone's mass units (``depth._units``), padding
    points weighing 0.  Its sums are integers, exact in any order, in the
    narrowest dtype that holds the measure's scale exactly: float32 below
    2^24 (a uniform measure's n), float64 above.  A constraint capturing k
    of B's K units is kept when (d+1) k >= d K, compared in int64, since
    (d+1) K can pass 2^53.  ``max_constraints`` keeps the most binding
    constraints (capture closest to the threshold cuts deepest into the
    cone) in the stable order of their captures; any subset still yields a
    valid outer approximation.
    """
    d = m.dim
    normals = np.stack([b.normals for b in cones])
    apexes = np.stack([b.apex for b in cones])
    inside = np.all((m.points[None] - apexes[:, None, :]) @ normals.transpose(0, 2, 1) <= DEFAULT_TOL, axis=2)
    counts = inside.sum(axis=1)
    keys, pick = np.unique(np.asarray(seeds), return_inverse=True)
    pools, sizes = _constraint_pools(m, samples, keys)
    # each cone's points, then zero rows, which every constraint captures
    width = max(int(counts.max(initial=0)), 1)
    slots, idx = np.arange(width) < counts[:, None], np.nonzero(inside)[1]
    pts = np.zeros((len(cones), width, d))
    pts[slots] = m.points[idx]
    units, scale = _units(m.weights)
    w = np.zeros((len(cones), width, 1), dtype=np.float32 if scale < 2**24 else np.float64)
    w[slots, 0] = units[idx]
    captured = np.empty((len(cones), pools.shape[1]))
    for cs, rs in _capture_blocks(len(cones), pools.shape[1], width):
        hit = np.matmul(pools[pick[cs], rs], pts[cs].transpose(0, 2, 1)) <= DEFAULT_TOL
        captured[cs, rs] = np.matmul(hit.astype(w.dtype), w[cs])[..., 0]
    keep = (d + 1) * captured.astype(np.int64) >= d * w[..., 0].sum(axis=1, dtype=np.int64)[:, None]
    keep &= np.arange(pools.shape[1]) < sizes[pick][:, None]
    nkeep = keep.sum(axis=1)
    if max_constraints is not None and (nkeep > max_constraints).any():
        binding = np.argsort(np.where(keep, captured, np.inf), axis=1, kind="stable")[:, :max_constraints]
    out = []
    for i, b in enumerate(cones):
        if counts[i] == 0:
            out.append(None)
        elif max_constraints is not None and nkeep[i] > max_constraints:
            out.append(CentralConeApprox(b, pools[pick[i], binding[i]]))
        else:
            out.append(CentralConeApprox(b, pools[pick[i], keep[i]]))
    return out


def central_cone(
    m: DiscreteMeasure,
    b: SimplicialCone,
    samples: int = 1024,
    seed: int = 0,
    max_constraints: int | None = None,
) -> CentralConeApprox:
    """Sampled outer approximation of the central cone of B: the one-cone
    case of ``_central_cones``, whose docstring gives the candidate pool and
    the capture rule.  Raises ValueError when B carries no mass."""
    approx = _central_cones(m, [b], [seed], samples, max_constraints)[0]
    if approx is None:
        raise ValueError("cone carries no mass")
    return approx


def central_patch(
    m: DiscreteMeasure,
    b: SimplicialCone,
    seed: int = 0,
    constraint_samples: int = 1024,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact sphere patch of the central cone of B (its 320 most binding
    constraints of a ``constraint_samples`` pool): (vertices, central
    vector).  See ``CentralConeApprox.patch``."""
    return central_cone(m, b, samples=constraint_samples, seed=seed, max_constraints=320).patch()


# the benchmark's tracer hooks this name (its ray counter now counts patch
# vertices); it goes with the benchmark change of ROADMAP item 8
sample_central_rays = central_patch


def containment_check(
    m: DiscreteMeasure,
    b1: SimplicialCone,
    b2: SimplicialCone,
    ray_samples: int = 10_000,
    seed: int = 0,
) -> bool:
    """Cross-containment of central cones for heavily overlapping cone pairs.

    Requires max(mass(B1), mass(B2)) <= 1/(d+1) + 1/(3(d+1)^3) and
    mass(B1 and B2) >= 1/(d+1) - (3d+2)/(3(d+1)^3); then the central-cone
    patch of each cone and its central vector must lie in the partner cone
    (within 1e-7).  The patch is convex, so it lies in a cone exactly when
    its vertices do.  ``ray_samples`` is unused: it is kept only for the
    benchmark's call and goes with the benchmark change of ROADMAP item 8.
    """
    d = m.dim
    cap = family_level_cap(d)
    floor = family_overlap_floor(d)
    m1, m2 = cone_mass(m, b1), cone_mass(m, b2)
    if max(m1, m2) > cap + 1e-12:
        raise ValueError(f"cone masses ({m1}, {m2}) exceed the cap {cap}")
    both = cone_contains_many(b1, m.points) & cone_contains_many(b2, m.points)
    inter = float(m.weights[both].sum())
    if inter < floor - 1e-12:
        raise ValueError(f"intersection mass {inter} below the floor {floor}")
    ok = True
    approxes = _central_cones(m, [b1, b2], [seed, seed], 1024, 320)  # both carry mass: inter > 0
    for patch, other in zip(_clip_patches(approxes), (b2, b1)):
        verts, e = _nonempty(patch)
        ok &= bool(np.all(cone_contains_many(other, np.vstack([verts, e]), 1e-7)))
    return ok


def _family_member(m: DiscreteMeasure, a: float, ref: GeneratingTuple | TupleMasses, normals: np.ndarray):
    """(tuple, weight, order) when ``normals`` form a generating tuple of
    weight at most a whose cones match those of the reference tuple (or of
    its ``tuple_masses``, computed once for many calls), with the
    permutation that labels it by the reference; else None."""
    flag, _ = is_generating(normals)
    if not flag:
        return None
    t = GeneratingTuple(normals)
    w = tuple_weight(m, t)
    if w > a:
        return None
    order = family_member_order(m, ref, tuple_masses(m, t, w))
    return None if order is None else (t, w, order)


def _perturbed_normals(rng: np.random.Generator, base: np.ndarray, angle: float) -> np.ndarray:
    g = rng.standard_normal(base.shape) * angle
    out = base + g - (np.sum(g * base, axis=1))[:, None] * base
    return out / np.linalg.norm(out, axis=1)[:, None]


def structural_map(
    m: DiscreteMeasure,
    a: float,
    tuple_samples: int = 240,
    seed: int = 0,
) -> StructuralTuple:
    """Monte Carlo estimate of the structural tuple of a recentered measure.

    The integrand over normal-tuple space vanishes off the small-weight
    family region, so uniform sampling alone contributes almost nothing; the
    estimator mixes uniform tuples (share ``MAP_UNIFORM_SHARE``) with
    angular perturbations (scale ``MAP_PERTURB_ANGLE``) of the witness tuple
    at the origin, the reference tuple.  The resulting overall positive
    scale is proposal-dependent; validity is asserted through the interior
    margin and the vector directions, which a common positive scale does
    not affect.  Each qualifying tuple is labelled by matching it to the
    reference tuple, and its contributions are attached to that labeling,
    which realizes the unordered-tuple integral because the proposal treats
    the d + 1 slots symmetrically.

    Requires d = 2 or 3, where central-cone patches exist (``ValueError``
    otherwise, before any work), and the measure to be recentered (median
    at the origin) with exact depth there below a < 1/(d+1) +
    1/(3(d+1)^3); deterministic in the seed.  A sample
    with an empty central-cone patch contributes nothing; a cone without
    mass raises the ValueError of ``central_cone``, unless an earlier cone of
    its sample has an empty patch.  The reference tuple's weight and cone
    masks are computed once (``tuple_masses``), and the central cones of
    ``MAP_BLOCK`` family members are built together (``_central_cones``).
    """
    d = m.dim
    if d not in (2, 3):
        raise ValueError(f"structural maps need d = 2 or 3, got d = {d}")
    cap = family_level_cap(d)
    if not (1.0 / (d + 1) < a < cap):
        raise ValueError(f"a must lie in (1/(d+1), {cap!r}), got {a}")
    origin = np.zeros(d)
    depth0 = point_depth(m, origin, mode="exact").depth
    if depth0 >= a:
        raise RuntimeError(
            f"depth at the origin ({depth0}) is not below a = {a}; "
            "recenter the measure or raise a"
        )
    # anchor tuples only need weight below a, so the witness may use the
    # whole slack; a tolerance wider than the cluster imbalance keeps the
    # minimizing set spread around the origin
    wtol = max(1e-6, 0.9 * (a - depth0))
    wt, _ = witness_tuple(m, origin, tol=wtol, seed=seed)
    base_weight = tuple_weight(m, wt)
    if base_weight > a:
        raise RuntimeError(
            f"tuple weight at the origin ({base_weight}) is not below a = {a}"
        )
    ref = tuple_masses(m, canonical_labeling(wt))

    rng = np.random.default_rng(seed)
    n_uniform = int(round(MAP_UNIFORM_SHARE * tuple_samples))
    n_perturb = tuple_samples - n_uniform

    members = []  # (sample, weight, matched cones) of each tuple in the family
    for s in range(tuple_samples):
        if s < n_perturb:
            nrm = _perturbed_normals(rng, ref.tuple.normals, MAP_PERTURB_ANGLE)
        else:
            g = rng.standard_normal((d + 1, d))
            nrm = g / np.linalg.norm(g, axis=1)[:, None]
        member = _family_member(m, a, ref, nrm)
        if member is not None:
            t, w, order = member
            members.append((s, w, cones_of(t.reordered(order)).cones))

    sums = np.zeros((d + 1, d))
    nonzero = 0
    for lo in range(0, len(members), MAP_BLOCK):
        block = members[lo : lo + MAP_BLOCK]
        # cone j of sample s from the pool of seed + 31 s + j; a sample's
        # cones count up to the first that has no mass
        built = iter(_central_cones(m, [b for _, _, cones in block for b in cones],
                                    [seed + 31 * s + j for s, _, cones in block for j in range(len(cones))],
                                    MAP_CONSTRAINT_SAMPLES, 320))
        rows = []
        for _, _, cones in block:
            approxes = [next(built) for _ in cones]
            rows.append(approxes[: approxes.index(None)] if None in approxes else approxes)
        patches = iter(_clip_patches([c for approxes in rows for c in approxes]))
        for (_, w, cones), approxes in zip(block, rows):
            clipped = [next(patches) for _ in approxes]
            if any(p is None for p in clipped):
                continue  # an empty patch comes before any later cone's error
            if len(approxes) < len(cones):
                raise ValueError("cone carries no mass")
            sums += (a - w) * np.array([e for _, e in clipped])
            nonzero += 1
    if nonzero == 0:
        raise RuntimeError(
            "no tuple sample produced a nonzero contribution: either the "
            "depth at the origin is not below a, or the proposal is too coarse"
        )
    vectors = sums / tuple_samples
    margin = hull_interior_margin(vectors)
    return StructuralTuple(vectors, float(margin))
