"""Referee for the exact central-cone patch: the Monte Carlo sampler of
central rays that the package used before the patch was computed in closed
form, kept for the tests.

``sample_central_rays`` draws uniform rays from a spherical cap around the
mass direction of B, adapts the cap until it covers the central-cone patch,
and keeps the rays that fall in the patch.  Membership is one plain product
of the rays with the base normals and with the constraints (taken in row
chunks to bound memory), within DEFAULT_TOL.  The tests require the exact
central vector to agree with the mean of many of these rays.
"""

import numpy as np

from depthlab.central import CentralConeApprox, central_cone
from depthlab.geometry import DEFAULT_TOL, SimplicialCone, cone_contains_many, unit
from depthlab.measures import DiscreteMeasure

_ROWS = 8192


def contains(approx: CentralConeApprox, pts: np.ndarray) -> np.ndarray:
    """Full-product membership of an (n, d) array of rays in the approximation."""
    pts = np.asarray(pts, dtype=float)
    out = cone_contains_many(approx.base, pts)
    for lo in range(0, len(pts), _ROWS):
        blk = pts[lo : lo + _ROWS]
        out[lo : lo + _ROWS] &= np.all(blk @ approx.constraints.T <= DEFAULT_TOL, axis=1)
    return out


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
):
    """Uniformly distributed rays of the central-cone sphere patch.

    Draws from a spherical cap that adapts until it strictly covers the patch
    (all hits at most 0.85 of the cap angle, and enough of them), then keeps
    batching until ``count`` rays are collected.  Returns
    (rays, (cap_center, cap_angle)).
    """
    approx = central_cone(m, b, samples=constraint_samples, seed=seed, max_constraints=320)
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
