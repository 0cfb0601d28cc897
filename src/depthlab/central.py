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

over its edges, theta_i being the arc length of edge i.

The structural map sends a recentered measure to an unordered tuple of d + 1
vectors, one per matched-cone slot, by integrating (a - weight) e(B_i) over
normal tuples; the origin ends up strictly inside their convex hull.
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
    tuple_weight,
)
from .median import witness_tuple
from .depth import _row_blocks, exact_affordable, point_depth

# the structural map's Monte Carlo proposal: the constraint pool of each
# central cone, the angular scale of the witness perturbations and the share
# of uniformly drawn tuples
MAP_CONSTRAINT_SAMPLES = 384
MAP_PERTURB_ANGLE = 0.1
MAP_UNIFORM_SHARE = 0.1


def default_capture_fraction(d: int) -> float:
    """The capture fraction d/(d+1) of every central cone; any value above
    (d-1)/d works, smaller values only help marginally."""
    return d / (d + 1.0)


@dataclass(frozen=True, eq=False)
class CentralConeApprox:
    """Outer approximation of a central cone: the base cone intersected with
    finitely many sampled qualifying half-spaces."""

    base: SimplicialCone
    constraints: np.ndarray  # (k, d) outer normals of origin half-spaces

    def patch(self) -> tuple[np.ndarray, np.ndarray]:
        """The exact sphere patch: its vertices (unit rows, in order) and its
        unit mean direction, the central vector.

        B's rays -inv(normals) all lie in the plane <c, x> = 1 for
        c = -(sum of B's normals), so B's section there is a segment (d = 2)
        or a triangle (d = 3), and each constraint cuts it along a line.  In
        d = 3 a constraint counts as met once every vertex meets it within
        DEFAULT_TOL on the unit sphere.  Raises RuntimeError when the patch
        has no interior, and ValueError in a dimension other than 2 and 3.
        """
        d = self.base.dim
        if d not in (2, 3):
            raise ValueError(f"exact central-cone patches need d = 2 or 3, got d = {d}")
        v = -np.linalg.inv(self.base.normals).T  # rows: B's rays, at height 1 on c
        cons = self.constraints
        if d == 2:
            f0, f1 = v @ cons.T  # each constraint at both ends of the segment
            g = f1 - f0
            with np.errstate(divide="ignore", invalid="ignore"):
                t = -f0 / g  # where it crosses the segment v0 + t (v1 - v0)
            lo, hi = t[g < 0].max(initial=0.0), t[g > 0].min(initial=1.0)
            if np.any((g == 0) & (f0 > 0)) or not lo < hi:
                raise RuntimeError("the central-cone sphere patch is empty")
            u = v[0] + np.array([[lo], [hi]]) * (v[1] - v[0])
            u /= np.linalg.norm(u, axis=1)[:, None]
            return u, unit(u.sum(axis=0))
        if np.linalg.det(v) < 0:
            v = v[::-1]  # counterclockwise seen from outside the sphere
        while True:
            f = v @ cons.T
            worst = (f / np.linalg.norm(v, axis=1)[:, None]).max(axis=0)
            cut = worst > DEFAULT_TOL
            if not cut.any():
                break
            fj = f[:, np.argmax(worst)]  # clip by the deepest cut
            cons = cons[cut]  # a constraint met by every vertex stays met
            keep = fj <= 0
            if not keep.any():
                raise RuntimeError("the central-cone sphere patch is empty")
            fn = np.roll(fj, -1)
            e = np.flatnonzero(np.sign(fj) * np.sign(fn) < 0)  # edges i -> i + 1 that cross
            t = fj[e] / (fj[e] - fn[e])
            crossings = v[e] + t[:, None] * (np.roll(v, -1, axis=0)[e] - v[e])
            order = np.argsort(np.concatenate([2 * np.flatnonzero(keep), 2 * e + 1]))
            v = np.vstack([v[keep], crossings])[order]
        u = v / np.linalg.norm(v, axis=1)[:, None]
        moment, perimeter = _sphere_moment(u)
        if not np.linalg.norm(moment) > DEFAULT_TOL * perimeter:
            raise RuntimeError("the central-cone sphere patch is empty")
        return u, unit(moment)


def _sphere_moment(u: np.ndarray) -> tuple[np.ndarray, float]:
    """(int_P x dA, perimeter) of the spherical polygon P with unit vertices
    ``u``, counterclockwise seen from outside; repeated vertices are harmless."""
    nxt = np.roll(u, -1, axis=0)
    cr = np.cross(u, nxt)
    s = np.linalg.norm(cr, axis=1)
    theta = np.arctan2(s, np.sum(u * nxt, axis=1))  # arc length of each edge
    return 0.5 * (np.divide(theta, s, out=np.ones_like(s), where=s > 0) @ cr), float(theta.sum())


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
        n = phat.shape[0]
        ii, jj = np.triu_indices(n, k=1)
        if ii.size > cap:
            sel = rng.choice(ii.size, size=cap, replace=False)
            ii, jj = ii[sel], jj[sel]
        cr = np.cross(phat[ii], phat[jj])
        lens = np.linalg.norm(cr, axis=1)
        cand = cr[lens > 1e-9] / lens[lens > 1e-9][:, None]
    else:
        return np.empty((0, d))
    cand = np.vstack([cand, -cand])
    if cand.shape[0] > cap:
        cand = cand[rng.choice(cand.shape[0], size=cap, replace=False)]
    return cand


def central_cone(
    m: DiscreteMeasure,
    b: SimplicialCone,
    samples: int = 1024,
    seed: int = 0,
    max_constraints: int | None = None,
) -> CentralConeApprox:
    """Sampled outer approximation of the central cone of B.

    Candidate half-space normals come from a prefix-stable sphere stream plus
    exact candidates through measure points; a candidate is kept when its
    half-space captures at least the fraction d/(d+1) of the mass inside B.
    A larger ``samples`` extends the candidate stream, so the approximation
    shrinks monotonically toward the true central cone.
    """
    d = m.dim
    inside = cone_contains_many(b, m.points)
    mass_b = float(m.weights[inside].sum())  # ``cone_mass``, from the one membership test
    if mass_b <= 0:
        raise ValueError("cone carries no mass")
    # the exact-candidate block is independent of ``samples`` so that pools
    # nest across sample counts (monotone refinement)
    pool = np.vstack(
        [
            sample_directions(d, samples, seed=seed, mode="sphere"),
            _exact_constraint_candidates(m, 1024, seed + 1),
        ]
    )
    wb = m.weights * inside
    # in cache-sized blocks, with the bits of one product over the pool
    captured = np.concatenate(
        [(pool[blk] @ m.points.T <= DEFAULT_TOL) @ wb for blk in _row_blocks(pool.shape[0], m.n)]
    )
    keep = captured >= default_capture_fraction(d) * mass_b - 1e-12
    retained = pool[keep]
    if max_constraints is not None and retained.shape[0] > max_constraints:
        # keep the most binding constraints (capture closest to the
        # threshold cuts deepest into the cone); any subset still yields a
        # valid outer approximation
        order = np.argsort(captured[keep], kind="stable")
        retained = retained[order[:max_constraints]]
    return CentralConeApprox(b, retained)


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
    for this, other in ((b1, b2), (b2, b1)):
        verts, e = central_patch(m, this, seed=seed)
        ok &= bool(np.all(cone_contains_many(other, np.vstack([verts, e]), 1e-7)))
    return ok


def _family_member(m: DiscreteMeasure, a: float, ref: GeneratingTuple, normals: np.ndarray):
    """(tuple, weight, order) when ``normals`` form a generating tuple of
    weight at most a whose cones match those of the reference tuple, with
    the permutation that labels it by the reference; else None."""
    flag, _ = is_generating(normals)
    if not flag:
        return None
    t = GeneratingTuple(normals)
    w = tuple_weight(m, t)
    if w > a:
        return None
    order = family_member_order(m, ref, t)
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

    Requires the measure to be recentered (median at the origin) with depth
    below a < 1/(d+1) + 1/(3(d+1)^3); deterministic in the seed.
    """
    d = m.dim
    cap = family_level_cap(d)
    if not (1.0 / (d + 1) < a < cap):
        raise ValueError(f"a must lie in (1/(d+1), {cap!r}), got {a}")
    origin = np.zeros(d)
    if exact_affordable(m):
        depth0 = point_depth(m, origin, mode="exact").depth
    else:
        depth0 = point_depth(m, origin, mode="sampled", sample_count=4096, seed=seed).depth
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
    ref = canonical_labeling(wt)

    rng = np.random.default_rng(seed)
    n_uniform = int(round(MAP_UNIFORM_SHARE * tuple_samples))
    n_perturb = tuple_samples - n_uniform

    sums = np.zeros((d + 1, d))
    nonzero = 0
    for s in range(tuple_samples):
        if s < n_perturb:
            nrm = _perturbed_normals(rng, ref.normals, MAP_PERTURB_ANGLE)
        else:
            g = rng.standard_normal((d + 1, d))
            nrm = g / np.linalg.norm(g, axis=1)[:, None]
        member = _family_member(m, a, ref, nrm)
        if member is None:
            continue
        t, w, order = member
        t_ord = t.reordered(order)
        cones = cones_of(t_ord).cones
        contrib = np.zeros((d + 1, d))
        ok = True
        for j in range(d + 1):
            try:
                _, e = central_patch(m, cones[j], seed=seed + 31 * s + j,
                                     constraint_samples=MAP_CONSTRAINT_SAMPLES)
            except RuntimeError:
                ok = False
                break
            contrib[j] = (a - w) * e
        if not ok:
            continue
        sums += contrib
        nonzero += 1
    if nonzero == 0:
        raise RuntimeError(
            "no tuple sample produced a nonzero contribution: either the "
            "depth at the origin is not below a, or the proposal is too coarse"
        )
    vectors = sums / tuple_samples
    margin = hull_interior_margin(vectors)
    return StructuralTuple(vectors, float(margin))
