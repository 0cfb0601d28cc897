"""Referee for the lockstep median ascent: the planar sweep, the
single-query planar depth, the one-query sampled depth, the certified
floor in 16,384-row net chunks, the one-direction projection and the
sequential multistart ascent that the package used before the ascents of
all starts and directions were batched.  Masses count mass units built here
with exact rationals (``mass_units``), by the rule the package states for
``depth._units``, and divide by their sum once at the end.

``_sweep`` is the full-turn sweep: it sorts every row's angles stably,
reduces its 2m breakpoints with ``np.mod`` and finds the prefix sums at
both ends of each arc's semicircle by search.  The tests require the
package's half-turn sweep to give its value exactly on integer units and
within 1e-12 on arbitrary weights, whose sums run in another order.
``exact_depth_value_2d`` splits off the points at the query and sweeps the
rest alone with the package's one-row sweep, so the sequential ascent
gives the bits of the batched one; ``sampled_depth`` draws its directions
on every call and takes one product with them; ``certified_depth_floor``
sweeps its whole net in float32 products, and bounds the package's
one-stage floor (``assert_valid_floor``: the same bits), which the tests
check against it and against its definition, so ``_final_depth`` calls the
package floor;
``project_line`` takes one QR per
direction and fixes its signs row by row; ``_start_points`` draws one
measure's starts; ``_multistart_endpoints`` climbs one start after
another.  The tests require the batched path to give the same bits.
"""

from fractions import Fraction
from functools import lru_cache

import numpy as np

import depthlab.depth
from depthlab.depth import DepthResult, _split_query, exact_affordable, point_depth
from depthlab.geometry import DEFAULT_TOL, as_vector, sample_directions, unit
from depthlab.measures import DiscreteMeasure
from depthlab.median import MedianResult

_CHUNK = 16384


def mass_units(w):
    """Mass units of the weights w (n,) and their sum, the scale: 1.0 per
    point and n if the weights are equal, else u_i = max(1, rint(2^52 w_i /
    S)), S being the weights' sum rounded once to float64 and the quotient
    rounded once before rint, as float64 division rounds it.  Built from
    Python integers and ``Fraction``s, not from the package."""
    units = _mass_units(np.asarray(w, dtype=float).tobytes())
    return np.array(units, dtype=float), float(sum(units))


@lru_cache(maxsize=256)
def _mass_units(raw: bytes) -> tuple:
    w = [Fraction(x) for x in np.frombuffer(raw)]
    if all(x == w[0] for x in w):
        return (1,) * len(w)
    total = Fraction(float(sum(w)))
    return tuple(max(1, round(float(x * 2**52 / total))) for x in w)


def _sweep(phat: np.ndarray, w: np.ndarray, gap: float):
    """Exact planar minimization by a rotating sweep, O(m log m) per row.

    phat (R, m, 2) holds nonzero vectors and w (R, m) their mass units.  The
    closed-semicircle mass as a function of the normal's angle is piecewise
    constant with breakpoints at the point angles +- 90 degrees, so
    evaluating it at the midpoint of each arc between consecutive distinct
    breakpoints is exact.  Arcs no wider than 4 gap are skipped, so every
    point a midpoint leaves out lies more than 2 gap behind it: the attained
    mass check counts points within the tolerance (``gap`` at the top level)
    of the boundary, so a narrower arc's mass cannot be attained.  Rounding
    also splits a breakpoint shared by collinear points into such slivers.
    Returns each row's minimum mass and the midpoint angle of its first
    minimizing arc.
    """
    two_pi = 2.0 * np.pi
    R, m = w.shape
    rows = np.arange(R)[:, None]
    ang = np.mod(np.arctan2(phat[..., 1], phat[..., 0]), two_pi)
    order = np.argsort(ang, axis=1, kind="stable")
    sa = ang[rows, order]
    cw = np.zeros((R, m + 1))
    np.cumsum(w[rows, order], axis=1, out=cw[:, 1:])
    total = cw[:, -1:]
    bps = np.sort(np.mod(np.concatenate([sa - 0.5 * np.pi, sa + 0.5 * np.pi], axis=1), two_pi), axis=1)
    nxt = np.concatenate([bps[:, 1:], bps[:, :1] + two_pi], axis=1)
    mids = np.mod(0.5 * (bps + nxt), two_pi)
    lo = np.mod(mids - 0.5 * np.pi, two_pi)
    hi = np.mod(mids + 0.5 * np.pi, two_pi)
    cl = cw[rows, np.array([np.searchsorted(a, x, side="left") for a, x in zip(sa, lo)])]
    ch = cw[rows, np.array([np.searchsorted(a, x, side="right") for a, x in zip(sa, hi)])]
    masses = np.where(lo <= hi, ch - cl, (total - cl) + ch)
    masses[nxt - bps <= 4.0 * gap] = np.inf
    j = np.argmin(masses, axis=1)
    return masses[rows[:, 0], j], mids[rows[:, 0], j]


def exact_depth_value_2d(m, q):
    units, scale = mass_units(m.weights)
    P, w, w0 = _split_query(m.points - np.asarray(q, dtype=float), units)
    if P.shape[0] == 0:
        return 1.0, np.eye(2)[0]
    val, phi = depthlab.depth._sweep(P[None], w[None], DEFAULT_TOL)
    return (w0 + float(val[0])) / scale, np.array([np.cos(phi[0]), np.sin(phi[0])])


def sampled_depth(m, q, sample_count: int = 512, seed: int = 0, tol: float = DEFAULT_TOL):
    """``point_depth(m, q, mode="sampled", ...)``."""
    q = as_vector(q)
    u = sample_directions(m.dim, sample_count, seed=seed, mode="sphere")
    p = m.points - q
    norms = np.linalg.norm(p, axis=1)
    norms[(p * p).sum(axis=1) <= tol**2] = np.inf  # at the query: counted under every direction
    s = u @ (p / norms[:, None]).T
    units, scale = mass_units(m.weights)
    masses = (s >= -tol) @ units
    j = int(np.argmin(masses))
    return DepthResult(float(masses[j] / scale), u[j], "sampled")


def certified_depth_floor(m, q, gamma: float = 0.1) -> float:
    q = as_vector(q)
    d = m.dim
    if d not in (2, 3, 4):
        raise ValueError("certified floor supported for dim in {2, 3, 4}")
    # hyperspherical angles: d - 2 polar ones in [0, pi], an azimuth in [0, 2 pi]
    step = 2.0 * gamma / (d - 1)
    polar = np.arange(0.0, np.pi + step, step)
    grid = np.meshgrid(*[polar] * (d - 2), np.arange(0.0, 2.0 * np.pi + step, step), indexing="ij")
    net = np.empty((grid[0].size, d))
    scale = 1.0
    for k, ang in enumerate(grid):
        net[:, k] = scale * np.cos(ang).ravel()
        scale = scale * np.sin(ang).ravel()
    net[:, -1] = scale
    p = m.points - q
    norms = np.linalg.norm(p, axis=1)
    # float32 with a safety inflation of the margin keeps the bound valid:
    # every counted point certainly satisfies <u0, p> >= sin(gamma) |p|
    margin32 = (np.sin(gamma) * norms + 1e-5 * (norms + 1.0)).astype(np.float32)
    p32 = p.astype(np.float32)
    units, scale = mass_units(m.weights)
    best = np.inf
    for lo in range(0, net.shape[0], _CHUNK):
        s = net[lo : lo + _CHUNK].astype(np.float32) @ p32.T
        vals = (s >= margin32) @ units
        best = min(best, float(vals.min()))
    return best / scale


def assert_valid_floor(m, q, gamma: float = 0.1):
    """The package floor against ``certified_depth_floor``: its bits, for
    every measure, since both count integer mass units exactly."""
    assert depthlab.depth.certified_depth_floor(m, q, gamma) == certified_depth_floor(m, q, gamma)


def _final_depth(m, x: np.ndarray) -> float:
    if m.dim == 2:
        return exact_depth_value_2d(m, x)[0]
    if exact_affordable(m):
        return point_depth(m, x, mode="exact").depth
    return depthlab.depth.certified_depth_floor(m, x, gamma=0.1)


def project_line(m, direction):
    """``project_measure(m, line(direction))``."""
    u = unit(direction)
    q, _ = np.linalg.qr(u[:, None], mode="complete")
    comp = q[:, 1:].T.copy()
    for row in comp:
        j = int(np.argmax(np.abs(row)))
        if row[j] < 0:
            row *= -1.0
    return DiscreteMeasure(m.dim - 1, m.points @ comp.T, m.weights)


def _start_points(m, starts: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    out = [m.weights @ m.points, np.median(m.points, axis=0)]
    k = max(0, starts - len(out))
    if k:
        idx = rng.integers(0, m.n, size=k)
        out.extend(m.points[i] for i in idx)
    return out[:starts]


def _cheap_depth(m, x: np.ndarray, seed: int):
    if m.dim == 2:
        return exact_depth_value_2d(m, x)
    r = sampled_depth(m, x, sample_count=192, seed=seed)
    return r.depth, r.witness


def _multistart_endpoints(m, starts: int, iters: int, seed: int):
    evals = 0
    scale = float(np.mean(np.linalg.norm(m.points - m.weights @ m.points, axis=1))) or 1.0
    endpoints = []
    for s_i, x0 in enumerate(_start_points(m, starts, seed)):
        x = np.asarray(x0, dtype=float).copy()
        d_cur, wit = _cheap_depth(m, x, seed + 7 * s_i)
        evals += 1
        step = scale / 3.0
        for _ in range(iters):
            moved = False
            for eta in (step, step / 4.0):
                cand = x - eta * wit
                d_new, wit_new = _cheap_depth(m, cand, seed + 7 * s_i)
                evals += 1
                if d_new > d_cur:
                    x, d_cur, wit = cand, d_new, wit_new
                    moved = True
                    break
            if not moved:
                step *= 0.5
                if step < 1e-4 * scale:
                    break
        endpoints.append((d_cur, x))
    endpoints.sort(key=lambda t: -t[0])
    return endpoints, evals


def tukey_median(m, starts: int = 16, iters: int = 30, seed: int = 0) -> MedianResult:
    """``tukey_median(mode="multistart")`` for dim >= 2: the first endpoint,
    the best cheap depth with the earlier start winning a tie, its depth
    re-evaluated once."""
    endpoints, evals = _multistart_endpoints(m, starts, iters, seed)
    _, x = endpoints[0]
    return MedianResult(x, float(_final_depth(m, x)), evals + 1)


def balanced_median(m, starts: int = 16, iters: int = 30, seed: int = 0) -> MedianResult:
    endpoints, evals = _multistart_endpoints(m, starts, iters, seed)
    finals = min(len(endpoints), 6 if m.dim <= 2 else 3)
    scored = []
    for _, x in endpoints[:finals]:
        scored.append((_final_depth(m, x), x))
        evals += 1
    best = max(s for s, _ in scored)
    ties = [x for s, x in scored if s >= best - 1e-9]
    center = np.mean(ties, axis=0)
    dep = _final_depth(m, center)
    evals += 1
    if dep >= best - 1e-12:
        return MedianResult(center, float(dep), evals)
    s, x = max(scored, key=lambda t: t[0])
    return MedianResult(x, float(s), evals)
