"""Referee for the exact planar median: the arrangement scan that the
package used before the median came from lazy depth-region cuts, kept
verbatim for the tests.

``_arrangement_median`` builds the lines through data-point pairs and
their intersections in nested loops, dedupes the candidates on the 1e-9
grid with a set and calls ``point_depth`` once per candidate, the first of
the deepest (within 1e-12) lexicographically smallest candidates winning.
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
    through data-point pairs, plus the data points themselves."""
    pts = m.points
    n = pts.shape[0]
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
        key = (round(x[0] / 1e-9), round(x[1] / 1e-9))
        if key not in seen:
            seen.add(key)
            uniq.append(x)
    best_x, best_d = None, -1.0
    for x in uniq:
        dep = point_depth(m, x, mode="exact").depth
        if dep > best_d + 1e-12 or (
            abs(dep - best_d) <= 1e-12 and best_x is not None and _lex_less(x, best_x)
        ):
            best_x, best_d = x, dep
    return MedianResult(best_x, best_d, len(uniq))
