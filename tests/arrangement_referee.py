"""Referee for the exact planar median: the arrangement scan that the
package used before the median came from lazy depth-region cuts, changed
in two ways, both so that it stays exact on data far from the origin: it
centres the data first, and it dedupes on a grid scaled by the data's
span instead of a fixed 1e-9 grid.

``_arrangement_median`` centres the data at its bounding box's centre,
builds the lines through data-point pairs and their intersections in
nested loops, dedupes the candidates on the grid of 1e-9 of the data's
span with a set and calls ``point_depth`` of the centred measure once per
candidate, the first of the deepest (within 1e-12) lexicographically
smallest candidates winning.  Centred, the vertices of data far from the
origin keep their digits: uncentred, the test grid ``_grid_measure(9)``
scaled by 1e3 and shifted by 1e12 loses about 1e-4 to cancellation and
its deepest vertex with it (13/37 instead of 14/37).
The tests require the package's exact median to reach the same depth: bit
for bit on uniform measures, at least it and within 1e-12 of it on
weighted ones.
"""

import itertools

import numpy as np

from depthlab.depth import point_depth
from depthlab.geometry import DEFAULT_TOL
from depthlab.measures import DiscreteMeasure
from depthlab.median import MedianResult


def _lex_less(a: np.ndarray, b: np.ndarray) -> bool:
    for x, y in zip(a, b):
        if x != y:
            return x < y
    return False


def _arrangement_median(m: DiscreteMeasure):
    """Exact planar median: evaluate depth at every intersection of lines
    through data-point pairs, plus the data points themselves, in
    coordinates centred at the data's bounding box."""
    c = 0.5 * (m.points.min(axis=0) + m.points.max(axis=0))
    m = DiscreteMeasure(m.dim, m.points - c, m.weights)
    pts = m.points
    n = pts.shape[0]
    grid = 1e-9 * (float(np.abs(pts).max()) or 1.0)
    cands = [pts[i] for i in range(n)]
    lines = []
    for i, j in itertools.combinations(range(n), 2):
        d = pts[j] - pts[i]
        nr = float(np.linalg.norm(d))
        if nr > DEFAULT_TOL:
            nvec = np.array([-d[1], d[0]]) / nr
            lines.append((nvec, float(nvec @ pts[i])))
    for (n1, c1), (n2, c2) in itertools.combinations(lines, 2):
        det = n1[0] * n2[1] - n1[1] * n2[0]
        if abs(det) < 1e-12:
            continue
        x = np.array([(c1 * n2[1] - c2 * n1[1]) / det, (n1[0] * c2 - n2[0] * c1) / det])
        cands.append(x)
    # dedupe on a fine grid to avoid re-evaluating coincident vertices
    seen = set()
    uniq = []
    for x in cands:
        key = (round(x[0] / grid), round(x[1] / grid))
        if key not in seen:
            seen.add(key)
            uniq.append(x)
    best_x, best_d, best = None, -1.0, None
    for x in uniq:
        r = point_depth(m, x, mode="exact")
        if r.depth > best_d + 1e-12 or (
            abs(r.depth - best_d) <= 1e-12 and best_x is not None and _lex_less(x, best_x)
        ):
            best_x, best_d, best = x, r.depth, r
    return MedianResult(best_x + c, best, len(uniq))
