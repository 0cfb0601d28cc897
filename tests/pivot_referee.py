"""Referee for the exact screens: the k = 3 pivot masses as the package
computed them before they came from one product per pivot block, and the
k = 4 pair screen the package ran before its screen recursed.

``pivot_masses`` projects every point onto each pivot's complement with
``depthlab.depth._project`` (the Householder reflection applied
elementwise, its results normalized, the parallel class replaced by a
copy) and sweeps each block with ``depthlab.depth._sweep``.  The tests
require the package's screen to give the same masses, and the exact mode
of ``point_depth`` in d = 3 the same depth, witness bytes and mode as with
this screen in its place.

``pair_masses`` is the retired k = 4 screen: the subproblem of pivot i
takes only the pivots j > i, so a pivot's mass may come out too high, but
the minimum over i stays exact: near the plane span(p_i, p_j) an optimal
direction lies in a wedge bounded by the lines of two points c, d of that
plane which it leaves out, and the pivot orders (c, d) and (d, c) both
reach that wedge.  The tests require its minimum over pivots to equal that
of the package's screen.
"""

import numpy as np

from depthlab.depth import _project, _sweep

_CHUNK = 16384


def pivot_masses(phat: np.ndarray, w: np.ndarray, gap: float) -> np.ndarray:
    """(R, m) mass of each pivot of the unit rows phat (R, m, 3) with mass
    units w (R, m), in blocks of at most 4 * _CHUNK planar points."""
    R, m, _ = phat.shape
    rr, ii = np.divmod(np.arange(R * m), m)
    tot = np.empty(R * m)
    step = max(1, 4 * _CHUNK // m)
    for s in range(0, R * m, step):
        r, i = rr[s : s + step], ii[s : s + step]
        sub, ws, anti = _project(phat[r], w[r], phat[r, i])
        tot[s : s + step] = anti + _sweep(sub, ws, gap)[0]
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
        sub, ws, anti = _project(phat[r], w[r], phat[r, i])
        b, j = np.nonzero(np.arange(m) > i[:, None])
        val = np.full((len(r), m), np.inf)
        if len(b):
            sub, ws2, anti2 = _project(sub[b], ws[b], sub[b, j])
            val[b, j] = anti2 + _sweep(sub, ws2, 2.0 * gap)[0]
        tot[s : s + step] = anti + val.min(axis=1)
    return tot.reshape(R, m)
