"""Referees for the exact central-cone patch and the structural map.

``sample_central_rays`` is the Monte Carlo sampler of central rays that the
package used before the patch was computed in closed form.  It draws uniform
rays from a spherical cap around the mass direction of B, adapts the cap
until it covers the central-cone patch, and keeps the rays that fall in the
patch.  Membership is one plain product of the rays with the base normals and
with the constraints (taken in row chunks to bound memory), within
DEFAULT_TOL.  The tests require the exact central vector to agree with the
mean of many of these rays.

``patch`` clips one approximation at a time, a Python loop of small numpy
calls, and ``structural_map`` draws, screens, builds and clips the central
cones of one tuple sample after another (``draw_tuple_samples``,
``family_member``): the package's code before the samples of a map were
drawn and screened at once and its cones clipped in lockstep.  ``exact_constraint_candidates`` draws its point pairs
from the full ``np.triu_indices`` list.  The tests require the package's
lockstep clip, map and pair draw to give the same bits.
"""

import numpy as np

from depthlab.central import (
    MAP_CONSTRAINT_SAMPLES,
    MAP_PERTURB_ANGLE,
    MAP_UNIFORM_SHARE,
    CentralConeApprox,
    StructuralTuple,
    _central_cones,
    central_cone,
)
from depthlab.cones import (
    GeneratingTuple,
    TupleMasses,
    canonical_labeling,
    cones_of,
    family_member_order,
    is_generating,
    tuple_weight,
)
from depthlab.depth import point_depth
from depthlab.geometry import DEFAULT_TOL, SimplicialCone, cone_contains_many, hull_interior_margin, unit
from depthlab.measures import DiscreteMeasure
from depthlab.median import witness_tuple

_ROWS = 8192


def contains(approx: CentralConeApprox, pts: np.ndarray) -> np.ndarray:
    """Full-product membership of an (n, d) array of rays in the approximation."""
    pts = np.asarray(pts, dtype=float)
    out = cone_contains_many(approx.base, pts)
    for lo in range(0, len(pts), _ROWS):
        blk = pts[lo : lo + _ROWS]
        out[lo : lo + _ROWS] &= np.all(blk @ approx.constraints.T <= DEFAULT_TOL, axis=1)
    return out


def orthant_on(p: np.ndarray) -> SimplicialCone:
    """The orthant at the origin with one edge on the ray through p; a point
    near that ray may fall on either side of the orthant's faces."""
    q, _ = np.linalg.qr(np.column_stack([p, np.eye(len(p))[:, :-1]]))
    return SimplicialCone(-(q * np.sign(q[:, 0] @ p)).T)


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
):
    """Uniformly distributed rays of the central-cone sphere patch.

    Draws from a spherical cap that adapts until it strictly covers the patch
    (all hits at most 0.85 of the cap angle, and enough of them), then keeps
    batching until ``count`` rays are collected.  Returns
    (rays, (cap_center, cap_angle)).
    """
    approx = central_cone(m, b, seed=seed)
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
    adapt_batch = 4000
    hit = None
    for attempt in range(48):
        pts = _uniform_cap(center, theta, adapt_batch, seed + 101 * attempt)
        hit = pts[contains(approx, pts)]
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
        hit = pts[contains(approx, pts)]
        rays.append(hit)
        total += hit.shape[0]
    return np.vstack(rays)[:count], (center, theta)


def _sphere_moment(u: np.ndarray) -> tuple[np.ndarray, float]:
    """(int_P x dA, perimeter) of the spherical polygon P with unit vertices
    ``u``, counterclockwise seen from outside; repeated vertices are harmless."""
    nxt = np.roll(u, -1, axis=0)
    cr = np.cross(u, nxt)
    s = np.linalg.norm(cr, axis=1)
    theta = np.arctan2(s, np.sum(u * nxt, axis=1))  # arc length of each edge
    return 0.5 * (np.divide(theta, s, out=np.ones_like(s), where=s > 0) @ cr), float(theta.sum())


def patch(approx: CentralConeApprox) -> tuple[np.ndarray, np.ndarray]:
    """The exact sphere patch of one approximation, (vertices, central
    vector); RuntimeError when it has no interior."""
    d = approx.base.dim
    if d not in (2, 3):
        raise ValueError(f"exact central-cone patches need d = 2 or 3, got d = {d}")
    v = -np.linalg.inv(approx.base.normals).T  # rows: B's rays, at height 1 on c
    cons = approx.constraints
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


def family_member(m: DiscreteMeasure, a: float, ref: GeneratingTuple | TupleMasses, normals: np.ndarray):
    """(tuple, weight, order) when ``normals`` form a generating tuple of
    weight at most a whose cones match those of the reference tuple, with
    the permutation that labels it by the reference; else None.  One tuple
    sample at a time."""
    flag, _ = is_generating(normals)
    if not flag:
        return None
    t = GeneratingTuple(normals)
    w = tuple_weight(m, t)
    if w > a:
        return None
    order = family_member_order(m, ref, t)
    return None if order is None else (t, w, order)


def perturbed_normals(rng: np.random.Generator, base: np.ndarray, angle: float) -> np.ndarray:
    """One perturbed tuple sample: a tangent gaussian step of scale angle
    from each base normal, normalized."""
    g = rng.standard_normal(base.shape) * angle
    out = base + g - (np.sum(g * base, axis=1))[:, None] * base
    return out / np.linalg.norm(out, axis=1)[:, None]


def draw_tuple_samples(m: DiscreteMeasure, a: float, tuple_samples: int, seed: int):
    """(reference tuple, [normals of each sample]) of the structural map,
    drawn one sample at a time."""
    d = m.dim
    origin = np.zeros(d)
    depth0 = point_depth(m, origin, mode="exact").depth
    wt, _ = witness_tuple(m, origin, tol=max(1e-6, 0.9 * (a - depth0)), seed=seed)
    assert tuple_weight(m, wt) <= a
    ref = canonical_labeling(wt)
    rng = np.random.default_rng(seed)
    n_uniform = int(round(MAP_UNIFORM_SHARE * tuple_samples))
    out = []
    for s in range(tuple_samples):
        if s < tuple_samples - n_uniform:
            out.append(perturbed_normals(rng, ref.normals, MAP_PERTURB_ANGLE))
        else:
            g = rng.standard_normal((d + 1, d))
            out.append(g / np.linalg.norm(g, axis=1)[:, None])
    return ref, out


def structural_map(m: DiscreteMeasure, a: float, tuple_samples: int = 240, seed: int = 0,
                   clip=patch) -> StructuralTuple:
    """The structural map, one tuple sample and one cone at a time; each
    approximation is clipped by ``clip``."""
    d = m.dim
    ref, samples = draw_tuple_samples(m, a, tuple_samples, seed)
    sums = np.zeros((d + 1, d))
    nonzero = 0
    for s, nrm in enumerate(samples):
        member = family_member(m, a, ref, nrm)
        if member is None:
            continue
        t, w, order = member
        cones = cones_of(t.reordered(order)).cones
        contrib = np.zeros((d + 1, d))
        ok = True
        for j in range(d + 1):
            cons, kept = _central_cones(m, cones[j].normals[None], [seed + 31 * s + j], MAP_CONSTRAINT_SAMPLES)
            try:
                _, e = clip(CentralConeApprox(cones[j], cons[0, : kept[0]]))
            except RuntimeError:
                ok = False
                break
            contrib[j] = (a - w) * e
        if not ok:
            continue
        sums += contrib
        nonzero += 1
    if nonzero == 0:
        raise RuntimeError("no tuple sample produced a nonzero contribution")
    vectors = sums / tuple_samples
    return StructuralTuple(vectors, float(hull_interior_margin(vectors)))


def exact_constraint_candidates(m: DiscreteMeasure, cap: int, seed: int) -> np.ndarray:
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
