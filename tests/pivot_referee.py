"""Referee for the exact d = 3 screen: the k = 3 pivot masses as the
package computed them before they came from one product per pivot block.

``pivot_masses`` projects every point onto each pivot's complement with
``depthlab.depth._project`` (the Householder reflection applied
elementwise, its results normalized, the parallel class replaced by a
copy) and sweeps each block with ``depthlab.depth._sweep``.  The tests
require the package's screen to give the same masses, and the exact mode
of ``point_depth`` in d = 3 the same depth, witness bytes and mode as with
this screen in its place.
"""

import numpy as np

from depthlab.depth import _project, _sweep

_CHUNK = 16384


def pivot_masses(phat: np.ndarray, w: np.ndarray, tol: float, gap: float) -> np.ndarray:
    """(R, m) mass of each pivot of the unit rows phat (R, m, 3) with mass
    units w (R, m), in blocks of at most 4 * _CHUNK planar points."""
    R, m, _ = phat.shape
    rr, ii = np.divmod(np.arange(R * m), m)
    tot = np.empty(R * m)
    step = max(1, 4 * _CHUNK // m)
    for s in range(0, R * m, step):
        r, i = rr[s : s + step], ii[s : s + step]
        sub, ws, anti = _project(phat[r], w[r], phat[r, i], tol)
        tot[s : s + step] = anti + _sweep(sub, ws, gap)[0]
    return tot.reshape(R, m)
