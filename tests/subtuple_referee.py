"""Referee for the witness subtuple: the (d+1)-subset of candidate normals
whose hull holds the origin by the widest margin, found as the package found
it before the minors table, by one LAPACK determinant and one LAPACK solve
of the (d+1) x (d+1) system [v_0 ... v_d; 1 ... 1] lambda = e_d per subset.
"""

import itertools

import numpy as np


def best_subtuple(normals: np.ndarray, d: int):
    """(d+1)-subset of rows maximizing the interior margin of 0 in its hull."""
    k = normals.shape[0]
    idx = np.array(list(itertools.combinations(range(k), d + 1)), dtype=int)
    mats = np.empty((idx.shape[0], d + 1, d + 1))
    mats[:, :d, :] = np.transpose(normals[idx], (0, 2, 1))
    mats[:, d, :] = 1.0
    rhs = np.zeros(d + 1)
    rhs[d] = 1.0
    dets = np.linalg.det(mats)
    ok = np.abs(dets) > 1e-12
    lams = np.full((idx.shape[0], d + 1), -np.inf)
    if ok.any():
        nb = int(ok.sum())
        rhs_b = np.broadcast_to(rhs[:, None], (nb, d + 1, 1)).copy()
        lams[ok] = np.linalg.solve(mats[ok], rhs_b)[:, :, 0]
    margins = lams.min(axis=1)
    j = int(np.argmax(margins))
    return idx[j], float(margins[j])
