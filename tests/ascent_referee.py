"""Referee for the lockstep median ascent: the single-query planar depth and
the sequential multistart ascent that the package used before the ascents
of all starts and directions were batched, kept verbatim for the tests.

``exact_depth_value_2d`` splits off the points at the query and sweeps the
rest alone; ``_multistart_endpoints`` climbs one start after another.  The
tests require the batched path to give the same bits.
"""

import numpy as np

from depthlab.depth import _split_query, _sweep, certified_depth_floor, exact_affordable, point_depth
from depthlab.geometry import DEFAULT_TOL
from depthlab.median import MedianResult, _lex_less, _start_points


def exact_depth_value_2d(m, q, tol: float = DEFAULT_TOL):
    q = np.asarray(q, dtype=float)
    P, w, w0 = _split_query(m, q, tol)
    if P.shape[0] == 0:
        return 1.0, np.eye(2)[0]
    val, phi = _sweep((P / np.linalg.norm(P, axis=1)[:, None])[None], w[None], tol)
    return w0 + float(val[0]), np.array([np.cos(phi[0]), np.sin(phi[0])])


def _final_depth(m, x: np.ndarray) -> float:
    if m.dim == 2:
        return exact_depth_value_2d(m, x)[0]
    if exact_affordable(m):
        return point_depth(m, x, mode="exact").depth
    return certified_depth_floor(m, x, gamma=0.1)


def _cheap_depth(m, x: np.ndarray, seed: int):
    if m.dim == 2:
        return exact_depth_value_2d(m, x)
    r = point_depth(m, x, mode="sampled", sample_count=192, seed=seed)
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
    """``tukey_median(mode="multistart")`` for dim >= 2."""
    endpoints, evals = _multistart_endpoints(m, starts, iters, seed)
    finals = 3 if m.dim <= 2 else 1
    best_x, best_d = None, -1.0
    for _, x in endpoints[: min(finals, len(endpoints))]:
        dep = _final_depth(m, x)
        evals += 1
        if dep > best_d + 1e-12 or (
            abs(dep - best_d) <= 1e-12 and best_x is not None and _lex_less(x, best_x)
        ):
            best_x, best_d = x, dep
    return MedianResult(best_x, float(best_d), evals)


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
