"""Central cones, central vectors, containment checks, and the structural map.

The central cone of a simplicial cone B (under a measure) is the part of B
kept by every origin half-space that captures at least a d/(d+1) fraction of
B's mass.  Its unit-sphere patch has a well-defined mean direction, the
central vector e(B).  Both are approximated by sampling: a finite constraint
pool for the cone (an outer approximation that shrinks as the pool grows) and
uniform sampling of the sphere patch for the vector.

The patch can be extremely narrow (tightly clustered measures), so uniform
rays are drawn from an adaptively sized spherical cap around the cone's mass
direction; conditioning a cap-uniform sample on the patch is still uniform on
the patch whenever the cap covers it, which the adaptation enforces.

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

# the structural map's Monte Carlo proposal: central rays per cone slot, the
# constraint pool of each central cone, the angular scale of the witness
# perturbations and the share of uniformly drawn tuples
MAP_SPHERE_SAMPLES = 1200
MAP_CONSTRAINT_SAMPLES = 384
MAP_PERTURB_ANGLE = 0.1
MAP_UNIFORM_SHARE = 0.1
# central-cone membership: rays per block, and the leading (most binding)
# constraints every ray in the base cone meets before the rest
MEMBER_BLOCK = 1024
MEMBER_HEAD = 16


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

    def contains_many(self, pts: np.ndarray) -> np.ndarray:
        """Membership of an (n, d) array of points: in the base cone and
        within DEFAULT_TOL of every constraint half-space.

        Tests the rays in blocks of MEMBER_BLOCK; the rays of a block that
        lie in the base cone meet the first MEMBER_HEAD constraints, and only
        those that pass them meet the rest.  ``central_cone`` puts the most
        binding constraints first whenever it truncates the pool, so most
        misses exit after the head.  The decisions are those of one full
        product, ``np.all(pts @ constraints.T <= DEFAULT_TOL, axis=1)``: a
        block product may differ from it in the last bit of an entry, which
        could only flip a ray within an ulp of a tolerance plane.
        """
        pts = np.asarray(pts, dtype=float)
        inside = cone_contains_many(self.base, pts)
        head = self.constraints[:MEMBER_HEAD]
        rest = self.constraints[MEMBER_HEAD:]
        for lo in range(0, len(pts), MEMBER_BLOCK):
            keep = inside[lo : lo + MEMBER_BLOCK]  # a view: updates land in ``inside``
            cols = pts[lo : lo + MEMBER_BLOCK][keep].T
            for c in (head, rest):
                if not (cols.shape[1] and len(c)):
                    break
                ok = (c @ cols).max(axis=0) <= DEFAULT_TOL
                keep[keep] = ok
                cols = cols[:, ok]
        return inside


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


def _uniform_cap(center: np.ndarray, theta: float, count: int, seed: int) -> np.ndarray:
    """Uniform sample of the spherical cap of angular radius theta."""
    d = center.size
    rng = np.random.default_rng(seed)
    if theta >= np.pi - 1e-9:
        g = rng.standard_normal((count, d))
        return g / np.linalg.norm(g, axis=1)[:, None]
    if d == 2:
        ang = theta * (2.0 * rng.random(count) - 1.0)
        tang = np.array([-center[1], center[0]])
        return np.cos(ang)[:, None] * center + np.sin(ang)[:, None] * tang
    # polar angle density on S^(d-1) is proportional to sin(t)^(d-2)
    if d == 3:
        ct = 1.0 - rng.random(count) * (1.0 - np.cos(theta))
        tt = np.arccos(np.clip(ct, -1.0, 1.0))
    else:
        grid = np.linspace(0.0, theta, 512)
        pdf = np.sin(grid) ** (d - 2)
        cdf = np.cumsum(pdf)
        cdf /= cdf[-1]
        tt = np.interp(rng.random(count), cdf, grid)
    g = rng.standard_normal((count, d))
    g -= np.outer(g @ center, center)
    lens = np.linalg.norm(g, axis=1)
    lens[lens == 0] = 1.0
    tang = g / lens[:, None]
    return np.cos(tt)[:, None] * center + np.sin(tt)[:, None] * tang


def _mass_direction(m: DiscreteMeasure, b: SimplicialCone, inb: np.ndarray) -> np.ndarray:
    """Unit mean direction of the mass in B (``inb`` marks the measure points
    in B), or of B's generating rays when that mass has no direction."""
    if inb.any():
        v = (m.weights[inb])[:, None] * m.points[inb]
        s = v.sum(axis=0)
        if np.linalg.norm(s) > 1e-12:
            return unit(s)
    rays = -np.linalg.inv(b.normals)  # columns generate the cone
    return unit(rays.sum(axis=1))


def sample_central_rays(
    m: DiscreteMeasure,
    b: SimplicialCone,
    count: int,
    seed: int = 0,
    constraint_samples: int = 1024,
    cap_state: tuple[np.ndarray, float] | None = None,
):
    """Uniformly distributed rays of the central-cone sphere patch.

    Draws from a spherical cap that adapts until it strictly covers the patch
    (all hits at most 0.85 of the cap angle, and enough of them), then keeps
    batching until ``count`` rays are collected.  Returns
    (rays, (cap_center, cap_angle)).
    """
    approx = central_cone(m, b, samples=constraint_samples, seed=seed, max_constraints=320)
    if cap_state is None:
        inb = cone_contains_many(b, m.points)
        center = _mass_direction(m, b, inb)
        if inb.any():
            norms = np.linalg.norm(m.points[inb], axis=1)
            ok = norms > DEFAULT_TOL
            cosang = (m.points[inb][ok] / norms[ok][:, None]) @ center
            spread = float(np.arccos(np.clip(cosang.min(), -1.0, 1.0)))
        else:
            spread = 0.3
        theta = max(0.02, 1.5 * spread)
    else:
        center, theta = cap_state
    adapt_batch = 4000
    hit = None
    for attempt in range(48):
        pts = _uniform_cap(center, theta, adapt_batch, seed + 101 * attempt)
        hit = pts[approx.contains_many(pts)]
        nh = hit.shape[0]
        if nh == 0:
            theta = min(np.pi, theta * 1.9)
            continue
        max_ang = float(np.arccos(np.clip((hit @ center).min(), -1.0, 1.0)))
        covered = max_ang <= 0.85 * theta or theta >= np.pi - 1e-9
        snug = covered and (max_ang >= 0.45 * theta or nh >= adapt_batch // 4)
        if snug and nh >= 20:
            break  # cap covers the patch and fits it snugly
        center = unit(hit.mean(axis=0))
        if not covered:
            theta = min(np.pi, 2.5 * max_ang + 0.01)  # expand around the hits
        elif nh >= 20:
            theta = max(1e-4, 1.35 * max_ang)  # tighten a loose cap
        else:
            theta = max(1e-4, 0.7 * theta)  # too few hits to trust max_ang
    else:
        raise RuntimeError("could not locate the central-cone sphere patch")
    rays = [hit]
    total = hit.shape[0]
    rate = max(total / adapt_batch, 1e-3)
    extra = 0
    while total < count and extra < 60:
        extra += 1
        need = int(min(400_000, 1.2 * (count - total) / rate)) + 64
        pts = _uniform_cap(center, theta, need, seed + 101 * 40 + extra)
        hit = pts[approx.contains_many(pts)]
        rays.append(hit)
        total += hit.shape[0]
    return np.vstack(rays)[:count], (center, theta)


def central_vector(
    m: DiscreteMeasure,
    b: SimplicialCone,
    sphere_samples: int = 100_000,
    seed: int = 0,
):
    """Monte Carlo central vector of B: normalized mean of uniform samples of
    the central-cone sphere patch.

    Returns (unit_vector, stderr, hits); deterministic in the seed; raises
    when no sample lands in the patch.
    """
    rays, _ = sample_central_rays(m, b, count=sphere_samples, seed=seed)
    mean = rays.mean(axis=0)
    e = unit(mean)
    spread = float(np.mean(np.sum((rays - mean) ** 2, axis=1)))
    stderr = np.sqrt(spread / rays.shape[0]) / max(float(np.linalg.norm(mean)), 1e-12)
    return e, float(stderr), int(rays.shape[0])


def containment_check(
    m: DiscreteMeasure,
    b1: SimplicialCone,
    b2: SimplicialCone,
    ray_samples: int = 10_000,
    seed: int = 0,
) -> bool:
    """Cross-containment of central cones for heavily overlapping cone pairs.

    Requires max(mass(B1), mass(B2)) <= 1/(d+1) + 1/(3(d+1)^3) and
    mass(B1 and B2) >= 1/(d+1) - (3d+2)/(3(d+1)^3); then every sampled
    central-cone ray of each cone must lie in the partner cone, and the two
    central vectors must lie in the partner cones (within 1e-7).
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
        rays, _ = sample_central_rays(m, this, count=ray_samples, seed=seed)
        ok &= bool(np.all(cone_contains_many(other, rays, 1e-7)))
        e = unit(rays.mean(axis=0))
        ok &= bool(cone_contains_many(other, e[None, :], 1e-7)[0])
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
    cap_states: dict[int, tuple] = {}
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
                rays, cs = sample_central_rays(
                    m,
                    cones[j],
                    count=MAP_SPHERE_SAMPLES,
                    seed=seed + 31 * s + j,
                    constraint_samples=MAP_CONSTRAINT_SAMPLES,
                    cap_state=cap_states.get(j),
                )
            except RuntimeError:
                ok = False
                break
            contrib[j] = (a - w) * unit(rays.mean(axis=0))
            # warm-start the next sample's cap search; coverage is re-checked
            cap_states[j] = (cs[0], min(np.pi, cs[1] * 1.25))
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
