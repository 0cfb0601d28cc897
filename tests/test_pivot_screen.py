"""The exact kernel's d = 3 pivot masses, one product per pivot block,
are those of the elementwise projection in ``pivot_referee`` bit for bit,
and exact ``point_depth`` in d = 3 is the least of the referee's masses,
exactly.  In d = 4, where each pivot's image is solved by the d = 3 level,
the least pivot mass is the retired pair screen's, and exact
``point_depth`` the enumerator's depth."""

import numpy as np
import pytest

import depthlab.depth
import pivot_referee as ref
from enumerator_referee import enumerator_depth
from depthlab.depth import _pivot_images, _pivot_solutions, depth_oracle, point_depth
from depthlab.geometry import DEFAULT_TOL
from depthlab.measures import DiscreteMeasure, MeasureSpec, generate_measure, make_measure
from depthlab.median import tukey_median
from depthlab.suites import _rado_spec


def _rado_cases() -> list:
    """The four rado families at n = 240 and 500, each at its median and at
    a data point."""
    out = []
    for n in (240, 500):
        for s in range(4):
            spec = _rado_spec(3, n, s)
            m = generate_measure(spec)
            med = tukey_median(m, mode="multistart", starts=10, iters=25, seed=s).point
            out += [(f"{spec.kind}-n{n}-median", m, med), (f"{spec.kind}-n{n}-point", m, m.points[s])]
    return out


def _grid_cases(rng) -> list:
    """Integer grids with duplicates, some with a collinear run through the
    query, the query on a grid point or a data point."""
    out = []
    for t in range(60):
        n = int(rng.integers(20, 160))
        pts = rng.integers(-3, 4, (n, 3)).astype(float)
        q = pts[0].copy() if t % 3 == 0 else rng.integers(-2, 3, 3).astype(float)
        if t % 2:
            g = rng.integers(-2, 3, 3).astype(float)
            g[0] = g[0] or 1.0
            ks = rng.integers(-4, 5, int(rng.integers(3, 9)))
            pts[-len(ks):] = q + ks[:, None] * g
        out.append((f"grid{t}", make_measure(pts), q))
    return out


def _signed_zero_cases(rng) -> list:
    """Coordinates in {-1, -0.0, 0.0, 1, 2}, so that pivots and projections
    carry both zeros, queried at (0.0, -0.0, 0.0) and at -0.0 in each
    coordinate."""
    out = []
    for t in range(16):
        n = int(rng.integers(20, 80))
        pts = rng.choice([-1.0, -0.0, 0.0, 1.0, 2.0], (n, 3))
        q = np.array([0.0, -0.0, 0.0]) if t % 2 else np.array([-0.0, -0.0, -0.0])
        out.append((f"signed_zero{t}", make_measure(pts), q))
    return out


def _weighted_cases(rng) -> list:
    """Dirichlet weights (integer units of about 2^52) on gaussian points
    and on grids with duplicates."""
    out = []
    for t in range(24):
        n = int(rng.integers(40, 300))
        pts = rng.standard_normal((n, 3)) if t % 2 else rng.integers(-3, 4, (n, 3)).astype(float)
        m = DiscreteMeasure(3, pts, rng.dirichlet(np.ones(n)))
        out.append((f"dirichlet{t}", m, pts[1] if t % 3 == 0 else 0.1 * rng.standard_normal(3)))
    return out


def _narrow_arc_cases(rng) -> list:
    """The pivot (1, 0, 0) projects the other points onto their last two
    coordinates exactly.  Two of them, at angles -delta and pi + delta
    there, and the rest in the lower half-plane, leave its subproblem one
    minimizing arc of width 2 delta = 12e-9, just above the screen's 8e-9.
    The pivot's own point projects to (0, 0), whose breakpoint would split
    that arc into two skipped slivers, so the pivot's mass holds only if
    the parallel class is filled with a kept point."""
    delta = 6e-9
    out = []
    for t in range(4):
        lower = -np.pi + 0.3 + (np.pi - 0.6) * rng.random(8)
        side = np.array([-delta, np.pi + delta, *lower])
        pts = np.column_stack([rng.random(side.size), np.cos(side), np.sin(side)])
        pts = np.vstack([[1.0 + t, 0.0, 0.0], pts])
        out.append((f"narrow_arc{t}", make_measure(pts), np.zeros(3)))
    return out


@pytest.fixture(scope="module")
def battery() -> list:
    rng = np.random.default_rng(23)
    return (_rado_cases() + _grid_cases(rng) + _signed_zero_cases(rng) + _weighted_cases(rng)
            + _narrow_arc_cases(rng))


def _rows(m, q):
    """The unit rows and mass units of the points away from the query."""
    p = m.points - q
    far = (p * p).sum(axis=1) > DEFAULT_TOL**2
    return (p[far] / np.linalg.norm(p[far], axis=1)[:, None])[None], m.units[far][None]


def test_screen_matches_project_referee(battery):
    for name, m, q in battery:
        phat, w = _rows(m, q)
        for gap in (DEFAULT_TOL, 2.0 * DEFAULT_TOL):
            assert np.array_equal(_pivot_solutions(phat, w, gap)[0], ref.pivot_masses(phat, w, gap)), name


def test_exact_d3_depth_matches_referee_path(battery):
    # the kernel sweeps its pivots' images at twice the top-level gap; the
    # witness attains the least mass, so the bracket is exact
    for name, m, q in battery:
        phat, w = _rows(m, q)
        at = m.units.sum() - w.sum()
        want = (at + ref.pivot_masses(phat, w, 2.0 * DEFAULT_TOL).min()) / m.scale
        r = point_depth(m, q, mode="exact")
        assert r.lower == r.upper == want, name


def _near_parallel_cases() -> list:
    """A point at image norm s (0.5, 1.5 and 3 tol) from the line of the
    pivot (1, 0, 0), beside it or opposite, and six points whose images on
    that pivot's plane lie below the near point's, so that the pivot's
    least arcs count the near point when it is kept."""
    rest = [[0, -1, 0.3], [0, -1, -0.3], [0.2, -1, 0], [-0.2, -1, 0.1], [-1, 0.5, 0.5], [-1, 0.5, -0.5]]
    return [(s, side, make_measure(np.array([[1.0, 0.0, 0.0], [side, s, 0.0], *rest])))
            for s in (0.5e-9, 1.5e-9, 3e-9) for side in (1.0, -1.0)]


def test_parallel_class_is_the_images_within_tol():
    # a point is in a pivot's parallel class when its image is within tol
    # of 0: then it drops out of the pivot's plane, counted only if it
    # points away from the pivot.  At 1.5 tol it stays in the plane, where
    # it raises the pivot's mass, as in the referee's own projection; the
    # bracket holds the oracle's depth either way
    for s, side, m in _near_parallel_cases():
        q = np.zeros(3)
        phat, w = _rows(m, q)
        _, units, anti, _ = _pivot_images(phat[:, :1], phat, w)
        parallel = s <= DEFAULT_TOL
        assert units[0, 0, 1] == float(not parallel) and anti[0, 0] == float(parallel and side < 0), (s, side)
        for gap in (DEFAULT_TOL, 2.0 * DEFAULT_TOL):
            masses = _pivot_solutions(phat, w, gap)[0]
            assert np.array_equal(masses, ref.pivot_masses(phat, w, gap)), (s, side)
        if s == 1.5e-9 and side > 0:
            assert masses[0, 0] == 2.0
        r, want = point_depth(m, q), depth_oracle(m, q).depth
        assert r.lower - 1e-12 <= want <= r.upper + 1e-12, (s, side)


@pytest.mark.parametrize("d, n", [(3, 240), (3, 500), (4, 60)])
def test_each_pivot_plane_is_swept_once(monkeypatch, d, n):
    # n planar rows in d = 3 and n^2 in d = 4, and no second solve of the
    # least pivot; a point at the query stays in the kernel as a copy of
    # another point with unit 0, so it is a pivot too
    rows = []
    real = depthlab.depth._sweep

    def counted(x, y, w, gap):
        rows.append(len(x))
        return real(x, y, w, gap)

    monkeypatch.setattr(depthlab.depth, "_sweep", counted)
    m = generate_measure(MeasureSpec("gaussian", d, n, {}, seed=d))
    for q in (np.full(d, 0.01), m.points[3]):
        rows.clear()
        monkeypatch.setattr(depthlab.depth, "_last", (None, None))
        assert point_depth(m, q).mode == "exact"
        assert sum(rows) == n ** (d - 2)


def _d4_cases() -> list:
    """40 seeded sets in R^4: gaussians, integer grids with duplicates, a
    collinear run through the query, weighted grids, and queries at a data
    point."""
    rng = np.random.default_rng(41)
    out = []
    for t in range(40):
        n = int(rng.integers(6, 16))
        pts = rng.standard_normal((n, 4)) if t % 4 == 0 else rng.integers(-2, 3, (n, 4)).astype(float)
        q = pts[1].copy() if t % 2 else 0.25 * rng.integers(-2, 3, 4)
        if t % 4 == 1:
            pts[2:4] = pts[1]
        elif t % 4 == 2:
            pts[-4:] = q + np.arange(-2, 2)[:, None] * rng.integers(1, 3, 4)
        out.append((f"d4_{t}", make_measure(pts, rng.dirichlet(np.ones(n)) if t % 8 == 3 else None), q))
    return out


def test_d4_screen_matches_pair_screen_and_enumerator():
    for name, m, q in _d4_cases():
        phat, w = _rows(m, q)
        for gap in (DEFAULT_TOL, 2.0 * DEFAULT_TOL):
            got, pairs = _pivot_solutions(phat, w, gap)[0], ref.pair_masses(phat, w, gap)
            assert np.array_equal(got.min(axis=1), pairs.min(axis=1)) and (got <= pairs).all(), name
        r = point_depth(m, q)
        assert r.mode == "exact" and abs(r.depth - enumerator_depth(m, q)) < 1e-9, name
