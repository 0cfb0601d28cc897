"""Referee for the exact kernel's pivot masses: the k = 3 pivot masses as
the package computed them before they came from one product per pivot
block, and the k = 4 pair screen the package ran before its screen
recursed.

``pivot_masses`` projects every point onto each pivot's complement with
its own ``project`` (the Householder reflection that swaps the pivot with
-+e_0, applied elementwise, its results normalized, the parallel class
replaced by a copy), not with the package's reflection rows, and sweeps
each block with ``depthlab.depth._sweep``.  The tests require the
package's pivot masses to be the same, and the exact mode of
``point_depth`` in d = 3 to give the least of them, exactly.

``pair_masses`` is the retired k = 4 screen: the subproblem of pivot i
takes only the pivots j > i, so a pivot's mass may come out too high, but
the minimum over i stays exact: near the plane span(p_i, p_j) an optimal
direction lies in a wedge bounded by the lines of two points c, d of that
plane which it leaves out, and the pivot orders (c, d) and (d, c) both
reach that wedge.  The tests require its minimum over pivots to equal that
of the package's pivots.
"""

import numpy as np

from depthlab.depth import _sweep
from depthlab.geometry import DEFAULT_TOL

_CHUNK = 16384


def project(pts: np.ndarray, w: np.ndarray, piv: np.ndarray):
    """Project rows pts (B, m, k) onto piv^perp (B, k) in (k-1)-coordinates:
    entries 1..k-1 of the image under the Householder reflection that swaps
    the unit pivot with -+e_0.  Returns the unit projections, the mass units
    w with the parallel class (within ``DEFAULT_TOL`` of the pivot's line)
    zeroed and the units antiparallel to each pivot.  Parallel rows are
    replaced by a copy of the row's first kept point, so they add no
    breakpoint."""
    sign = np.where(piv[:, 0] >= 0.0, 1.0, -1.0)
    cos = np.einsum("bmk,bk->bm", pts, piv)
    coef = (cos + sign[:, None] * pts[..., 0]) / (1.0 + np.abs(piv[:, :1]))
    sub = pts[..., 1:] - coef[..., None] * piv[:, None, 1:]
    norms = np.linalg.norm(sub, axis=2)
    kept = norms > DEFAULT_TOL
    anti = np.where(~kept & (cos < 0), w, 0.0).sum(axis=1)
    sub /= np.where(kept, norms, 1.0)[..., None]
    fill = sub[np.arange(sub.shape[0]), np.argmax(kept, axis=1)]
    sub = np.where(kept[..., None], sub, fill[:, None, :])
    return sub, np.where(kept, w, 0.0), anti


def pivot_masses(phat: np.ndarray, w: np.ndarray, gap: float) -> np.ndarray:
    """(R, m) mass of each pivot of the unit rows phat (R, m, 3) with mass
    units w (R, m), in blocks of at most 4 * _CHUNK planar points."""
    R, m, _ = phat.shape
    rr, ii = np.divmod(np.arange(R * m), m)
    tot = np.empty(R * m)
    step = max(1, 4 * _CHUNK // m)
    for s in range(0, R * m, step):
        r, i = rr[s : s + step], ii[s : s + step]
        sub, ws, anti = project(phat[r], w[r], phat[r, i])
        tot[s : s + step] = anti + _sweep(sub[..., 0], sub[..., 1], ws, gap)[0]
    return tot.reshape(R, m)


def pair_masses(phat: np.ndarray, w: np.ndarray, gap: float) -> np.ndarray:
    """(R, m) mass of each pivot of the unit rows phat (R, m, 4) with mass
    units w (R, m) over the pivot pairs (i, j > i) only, their planes swept
    with twice ``gap``, in blocks of at most 4 * _CHUNK planar points."""
    R, m, _ = phat.shape
    rr, ii = np.divmod(np.arange(R * m), m)
    tot = np.empty(R * m)
    step = max(1, 4 * _CHUNK // m**2)
    for s in range(0, R * m, step):
        r, i = rr[s : s + step], ii[s : s + step]
        sub, ws, anti = project(phat[r], w[r], phat[r, i])
        b, j = np.nonzero(np.arange(m) > i[:, None])
        val = np.full((len(r), m), np.inf)
        if len(b):
            sub, ws2, anti2 = project(sub[b], ws[b], sub[b, j])
            val[b, j] = anti2 + _sweep(sub[..., 0], sub[..., 1], ws2, 2.0 * gap)[0]
        tot[s : s + step] = anti + val.min(axis=1)
    return tot.reshape(R, m)
