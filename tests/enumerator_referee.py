"""Referee for exact depth: the candidate-normal enumerator that the package
used before project-and-sweep, kept verbatim for the tests.

``_halfdepth`` enumerates unit normals to spans of (d-1)-subsets of the
recentered points, resolving boundary ties by recursion on the boundary set;
it shares no code with ``depthlab.depth.point_depth``.  Cost O(n^d), so the
tests keep n small.
"""

import itertools

import numpy as np

from depthlab.geometry import DEFAULT_TOL, unit

_CHUNK = 16384


def enumerator_depth(m, q, tol: float = DEFAULT_TOL) -> float:
    """Exact depth of q by candidate-normal enumeration (its resolved value)."""
    P = m.points - np.asarray(q, dtype=float)
    far = np.linalg.norm(P, axis=1) > tol
    if not far.any():
        return 1.0
    return float(m.weights[~far].sum()) + _halfdepth(P[far], m.weights[far], tol)[0]


def _default_unit(k: int) -> np.ndarray:
    e = np.zeros(k)
    e[0] = 1.0
    return e


def _orth_complement_of_vector(u: np.ndarray) -> np.ndarray:
    """Orthonormal basis (k-1, k) of the hyperplane orthogonal to unit u."""
    k = u.size
    q, _ = np.linalg.qr(np.column_stack([u, np.eye(k)]))
    return q[:, 1:k].T


def _halfdepth_1d(p: np.ndarray, w: np.ndarray):
    pos = float(w[p > 0].sum())
    neg = float(w[p < 0].sum())
    return (pos, np.array([1.0])) if pos <= neg else (neg, np.array([-1.0]))


def _halfdepth_2d(phat: np.ndarray, w: np.ndarray, tol: float):
    """Exact 2-d minimization with explicit tolerance-based tie handling.

    Candidates are the perpendiculars of each point (both signs); the
    boundary set of a candidate is its collinear class (within tol), and a
    reachable tie resolution keeps exactly one side of that line.  Used for
    boundary subproblems inside the recursion, where points cluster by
    construction; the rotating sweep covers the general-position hot path.
    """
    perp = np.column_stack([-phat[:, 1], phat[:, 0]])
    s = perp @ phat.T
    bnd = np.abs(s) <= tol
    cnt = bnd.sum(axis=1)
    strict_pos = (s > tol) @ w
    bnd_mass = bnd @ w
    strict_neg = float(w.sum()) - strict_pos - bnd_mass
    res = np.zeros(phat.shape[0])
    for i in np.nonzero(cnt > 1)[0]:
        msk = bnd[i]
        t = phat[msk] @ phat[i]
        res[i] = min(float(w[msk][t > 0].sum()), float(w[msk][t < 0].sum()))
    vplus = strict_pos + res
    vminus = strict_neg + res
    ip, im = int(np.argmin(vplus)), int(np.argmin(vminus))
    if vplus[ip] <= vminus[im]:
        return float(vplus[ip]), perp[ip]
    return float(vminus[im]), -perp[im]


def _subset_normals(phat: np.ndarray, k: int):
    """Unit normals to spans of independent (k-1)-subsets of the rows."""
    n = phat.shape[0]
    idx = np.array(list(itertools.combinations(range(n), k - 1)), dtype=int)
    if k == 3:
        nrm = np.cross(phat[idx[:, 0]], phat[idx[:, 1]])
    elif k == 4:
        m = np.stack([phat[idx[:, 0]], phat[idx[:, 1]], phat[idx[:, 2]]], axis=1)
        nrm = np.empty((idx.shape[0], 4))
        cols = np.arange(4)
        for j in range(4):
            nrm[:, j] = ((-1.0) ** j) * np.linalg.det(m[:, :, cols != j])
    else:
        raise ValueError(f"unsupported dimension {k}")
    lens = np.linalg.norm(nrm, axis=1)
    keep = lens > 1e-9
    return nrm[keep] / lens[keep][:, None]


def _halfdepth(P: np.ndarray, w: np.ndarray, tol: float):
    """min over unit u of sum w_i [<u, p_i> >= 0], plus an attaining direction.

    P holds nonzero points; handles any dimension by rank reduction, and
    resolves candidate boundary ties by recursion on the boundary set.
    """
    n, k = P.shape
    if n == 0:
        return 0.0, _default_unit(k)
    norms = np.linalg.norm(P, axis=1)
    phat = P / norms[:, None]
    if k == 1:
        return _halfdepth_1d(phat[:, 0], w)
    rank = np.linalg.matrix_rank(phat, tol=1e-10)
    if rank < k:
        _, _, vt = np.linalg.svd(phat, full_matrices=False)
        v = vt[:rank]
        val, usub = _halfdepth(phat @ v.T, w, tol)
        return val, unit(v.T @ usub)
    if k == 2:
        val, u0 = _halfdepth_2d(phat, w, tol)
        return val, _resolved_witness(phat, w, tol, u0, val)

    cand = _subset_normals(phat, k)
    best_val, best_u = np.inf, None
    total_w = float(w.sum())
    uniform = bool(np.all(np.abs(w - w[0]) <= 1e-15))
    wc = np.column_stack([w, np.ones_like(w)])
    # float32 prefilter: dot products certainly clear of the tolerance are
    # classified in single precision (error << band); entries inside the
    # band are recomputed exactly in double precision
    band = 1e-4
    phat32 = phat.astype(np.float32)
    for lo in range(0, cand.shape[0], _CHUNK):
        u_blk = cand[lo : lo + _CHUNK]
        s32 = u_blk.astype(np.float32) @ phat32.T
        sure_pos = s32 > band
        sure_neg = s32 < -band
        unc_r, unc_c = np.nonzero(np.abs(s32) <= band)
        if unc_r.size:
            s_exact = np.einsum("ij,ij->i", u_blk[unc_r], phat[unc_c])
            upos = s_exact > tol
            uneg = s_exact < -tol
        else:
            upos = uneg = np.zeros(0, dtype=bool)
        if uniform:
            pos_cnt = sure_pos.sum(axis=1).astype(float)
            neg_cnt = sure_neg.sum(axis=1).astype(float)
            if unc_r.size:
                np.add.at(pos_cnt, unc_r[upos], 1.0)
                np.add.at(neg_cnt, unc_r[uneg], 1.0)
            pos_mass = pos_cnt * w[0]
            neg_mass = neg_cnt * w[0]
            bnd_cnt = n - pos_cnt - neg_cnt
        else:
            pos_res = sure_pos @ wc
            neg_res = sure_neg @ wc
            if unc_r.size:
                np.add.at(pos_res[:, 0], unc_r[upos], w[unc_c[upos]])
                np.add.at(pos_res[:, 1], unc_r[upos], 1.0)
                np.add.at(neg_res[:, 0], unc_r[uneg], w[unc_c[uneg]])
                np.add.at(neg_res[:, 1], unc_r[uneg], 1.0)
            pos_mass, neg_mass = pos_res[:, 0], neg_res[:, 0]
            bnd_cnt = n - pos_res[:, 1] - neg_res[:, 1]
        generic = bnd_cnt == (k - 1)
        # generic rows: the k-1 independent boundary points admit a strictly
        # separating rotation, so the tie resolution contributes nothing
        vals = np.where(generic, np.minimum(pos_mass, neg_mass), np.inf)
        j = int(np.argmin(vals))
        if vals[j] < best_val:
            best_val = float(vals[j])
            best_u = u_blk[j] if pos_mass[j] <= neg_mass[j] else -u_blk[j]
        for j in np.nonzero(~generic)[0]:
            u = u_blk[j]
            b = np.abs(phat @ u) <= tol
            comp = _orth_complement_of_vector(u)
            subval, _ = _halfdepth(phat[b] @ comp.T, w[b], tol)
            for sgn, base in ((1.0, float(pos_mass[j])), (-1.0, float(neg_mass[j]))):
                if base + subval < best_val:
                    best_val, best_u = base + subval, sgn * u
    if best_u is None:
        raise RuntimeError("no candidate normals; degenerate input")
    return best_val, _resolved_witness(phat, w, tol, best_u, best_val)


def _resolved_witness(phat, w, tol, u, target):
    """Concrete unit direction near u attaining the resolved value ``target``."""
    s = phat @ u
    b = np.abs(s) <= tol
    if not b.any():
        return unit(u)
    comp = _orth_complement_of_vector(unit(u))
    _, usub = _halfdepth(phat[b] @ comp.T, w[b], tol)
    w_emb = comp.T @ usub
    gaps = np.abs(s[~b])
    eps = 0.49 * float(gaps.min()) if gaps.size else 0.5
    for _ in range(10):
        cand = unit(u + eps * w_emb)
        val = float(w[phat @ cand >= -tol].sum())
        if abs(val - target) <= 1e-9:
            return cand
        eps /= 16.0
    # unrealizable beyond general position; the caller detects the mismatch
    # and degrades to a certified upper bound
    return unit(u)
