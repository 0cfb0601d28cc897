"""Certified early rejection in the lockstep median ascent: the bound that
lets a step go unswept never falls below the evaluator's value, and the
ascent with rejections gives the bits of the referee that sweeps every step.
"""

import numpy as np
import pytest

import ascent_referee as ref
import depthlab.median
from depthlab.depth import (
    _CHUNK,
    closed_mass_bounds,
    deep_line_search,
    exact_depth_values_2d,
    sampled_depth_values,
)
from depthlab.geometry import DEFAULT_TOL, sample_directions
from depthlab.measures import generate_measure, make_measure
from depthlab.median import balanced_median, tukey_median
from depthlab.suites import _rado_spec, line_search_suite_specs

# rows of exact_depth_values_2d in deep_line_search(grid_count=60,
# refine_iters=2) on the theorem1 measures 0 and 6 at n = 200 when every
# ascent step was swept
SWEPT_ROWS_BEFORE = {0: 18468, 6: 18620}
# rows of sampled_depth_values in the rado median of d = 3, seed 1 (n = 500,
# 10 starts, 25 iterations) when a uniform step was swept unless its bound
# lay more than 1e-12 below the start's depth
SAMPLED_ROWS_BEFORE = 263


def _unit(a):
    return a / np.linalg.norm(a, axis=-1, keepdims=True)


def _degenerate_planar(rng):
    """(measure, queries) pairs: integer grids with duplicates, collinear
    runs, queries on or within tol of data points, weights far from
    uniform."""
    out = []
    for _ in range(6):
        grid = rng.integers(-2, 3, (30, 2)).astype(float)  # 25 sites, so duplicates
        m = make_measure(grid, rng.random(30) ** 3 + 1e-3)
        near = grid[1] + [4e-10, -3e-10]  # a data point within tol of the query
        out.append((m, [grid[0], near, [0.0, 0.0], [0.5, 0.5], (grid[2] + grid[3]) / 2]))
        run = rng.standard_normal((30, 2))
        q = rng.standard_normal(2)
        run[:12] = q + np.arange(-6, 6)[:, None] * _unit(rng.standard_normal(2))  # through q
        run[12:16] = run[20]  # a crowd of duplicates
        m = make_measure(run, rng.random(30) ** 2 + 1e-3)
        out.append((m, [q, run[3], run[20], run[3] + [0.0, 1.0]]))
        n = int(rng.integers(1, 5))
        m = make_measure(rng.integers(-1, 2, (n, 2)).astype(float), rng.random(n) + 0.1)
        out.append((m, [m.points[0], [0.0, 0.0]]))
    return out


def _probe_directions(rng, p):
    """Random unit directions, the perpendiculars to each p_j and those
    perpendiculars rotated by 1e-10 either way."""
    p = p[np.linalg.norm(p, axis=1) > 0]
    perp = np.vstack([np.column_stack([-p[:, 1], p[:, 0]]), np.column_stack([p[:, 1], -p[:, 0]])])
    ang = np.arctan2(perp[:, 1], perp[:, 0])
    turned = [np.column_stack([np.cos(ang + t), np.sin(ang + t)]) for t in (-1e-10, 1e-10)]
    return np.vstack([_unit(rng.standard_normal((20, 2))), _unit(perp), *turned])


def _bounds(m, q, u):
    """closed_mass_bounds of the query q under each direction u[i] alone."""
    return closed_mass_bounds([m.points], [m.weights])(np.zeros(len(u), dtype=int),
                                                       np.tile(q, (len(u), 1)), u[:, None, :])


def test_planar_depth_never_exceeds_closed_mass_bound():
    rng = np.random.default_rng(11)
    checked = 0
    for weighted, queries in _degenerate_planar(rng):
        # the ascent rejects a weighted step when a bound lies 1e-12 below
        # its depth, a uniform one when a bound (a count) is at most it
        for m, slack in ((weighted, 1e-12), (make_measure(weighted.points), 0.0)):
            for q in np.asarray(queries, dtype=float):
                val = exact_depth_values_2d([m.points], [m.weights], [0], q[None])[0][0]
                b = _bounds(m, q, _probe_directions(rng, m.points - q))
                assert np.all(val <= b + slack), (m.points, q, val, b.min())
                checked += len(b)
    assert checked > 5000


def test_bound_slack_covers_skipped_slivers():
    # two nearly opposite points leave an arc 3e-9 wide between their
    # breakpoints, which the sweep skips: under the sweep's own tolerance
    # the mass at its midpoint is 0, below the reported 0.5
    gap = 3e-9
    pts = np.array([[1.0, 0.0], [np.cos(np.pi + gap), np.sin(np.pi + gap)]])
    m = make_measure(pts)
    val = exact_depth_values_2d([m.points], [m.weights], [0], np.zeros((1, 2)))[0][0]
    mid = 0.5 * np.pi + 0.5 * gap
    u = np.array([[np.cos(mid), np.sin(mid)]])
    assert val == 0.5
    assert float((pts @ u[0] >= -DEFAULT_TOL) @ m.weights) == 0.0
    assert _bounds(m, np.zeros(2), u)[0] >= val


@pytest.mark.parametrize("d", [3, 4])
def test_sampled_depth_never_exceeds_bound_at_own_directions(d):
    rng = np.random.default_rng(d)
    u = sample_directions(d, 192, seed=5, mode="sphere")
    for _ in range(8):
        pts = rng.integers(-2, 3, (60, d)).astype(float)  # duplicates and coplanar runs
        pts[:10] = pts[10] + np.arange(-5, 5)[:, None] * rng.integers(-1, 2, d)  # a collinear run
        for m, slack in ((make_measure(pts, rng.random(60) ** 3 + 1e-3), 1e-12), (make_measure(pts), 0.0)):
            for q in (pts[10], pts[0] + 4e-10, np.zeros(d), rng.standard_normal(d)):
                val = sampled_depth_values([m.points], [m.weights], [0], q[None], u[None])[0][0]
                assert np.all(val <= _bounds(m, q, u) + slack)


def _row_units(w):
    """Mass units and scale of one measure: 1.0 per point over n if its
    weights are equal, else the weights over 1.0."""
    return (np.ones(len(w)), len(w)) if (w == w[0]).all() else (w, 1.0)


def _slack_rule(points, weights, which, q, u):
    """The bound's rule, one row at a time: the least mass, over the row's
    directions u, of the points p with <u, p - q> >= -s, for the row's one
    slack s = max(3 (n + 1) tol reach, 2 tol) + 1e-14 (|c|_1 + |h|_1 +
    |q|_1), c and h being the centre and half-widths of the measure's
    bounding box and reach = |h| + |q - c|."""
    n = points.shape[1]
    out = []
    for r, k in enumerate(which):
        pts, (units, scale) = points[k], _row_units(weights[k])
        low, high = pts.min(axis=0), pts.max(axis=0)
        c, h = (low + high) / 2, (high - low) / 2
        reach = np.linalg.norm(h) + np.linalg.norm(q[r] - c)
        s = max(3.0 * (n + 1) * DEFAULT_TOL * reach, 2.0 * DEFAULT_TOL) + 1e-14 * (
            np.abs(c).sum() + h.sum() + np.abs(q[r]).sum())
        out.append(((u[r] @ (pts - q[r]).T >= -s) @ units).min() / scale)
    return np.array(out)


def _per_point_rule(points, weights, which, q, u):
    """The bound's earlier rule, kept as a reference: the least mass, over
    the row's directions u, of the points p within 2 tol of q or with
    <u, (p - q) / |p - q|> >= -3 (n + 1) tol."""
    eta = 3.0 * (points.shape[1] + 1) * DEFAULT_TOL
    out = []
    for r, k in enumerate(which):
        p, (units, scale) = points[k] - q[r], _row_units(weights[k])
        norms = np.linalg.norm(p, axis=1)
        norms[norms <= 2.0 * DEFAULT_TOL] = np.inf  # at the query: counted under every direction
        out.append(((u[r] @ (p / norms[:, None]).T >= -eta) @ units).min() / scale)
    return np.array(out)


def test_closed_mass_bounds_across_blocks():
    rng = np.random.default_rng(3)
    assert 40 * 300 * 30 > 4 * 4 * _CHUNK  # several blocks
    for d in (2, 3):
        pts = rng.standard_normal((3, 300, d))
        weighted = rng.random((3, 300)) ** 2
        weighted /= weighted.sum(axis=1, keepdims=True)
        mixed = weighted.copy()
        mixed[1] = 1.0 / 300
        which = rng.integers(0, 3, 40)
        q = rng.standard_normal((40, d))
        q[::5] = pts[which[::5], 7]  # queries on data points
        u = _unit(rng.standard_normal((40, 30, d)))
        for w in (weighted, np.full((3, 300), 1.0 / 300), mixed):
            got = closed_mass_bounds(pts, w)(which, q, u)
            # a uniform row is a count over n, exact in any order; a
            # weighted one is a sum whose order may differ
            slack = np.where((w[which] == w[which, :1]).all(axis=1), 0.0, 1e-12)
            assert np.all(np.abs(got - _slack_rule(pts, w, which, q, u)) <= slack)
            assert np.all(got >= _per_point_rule(pts, w, which, q, u) - slack)


@pytest.mark.parametrize("offset", [1e6, 1e9, 1e12])
def test_bound_holds_far_from_the_origin(offset):
    # <u, p> and <u, q> are rounded apart, to about 1e-16 of |p| and |q|:
    # the slack's absolute term keeps the bound above the evaluators, which
    # round p - q first
    rng = np.random.default_rng(11)
    shift = offset * np.array([1.0, -0.5])
    for weighted, queries in _degenerate_planar(rng):
        for m, slack in ((weighted, 1e-12), (make_measure(weighted.points), 0.0)):
            m = make_measure(m.points + shift, m.weights)
            for q in np.asarray(queries, dtype=float) + shift:
                val = exact_depth_values_2d([m.points], [m.weights], [0], q[None])[0][0]
                b = _bounds(m, q, _probe_directions(rng, m.points - q))
                assert np.all(val <= b + slack), (m.points, q, val, b.min())
    for d in (3, 4):
        rng = np.random.default_rng(d)
        u = sample_directions(d, 192, seed=5, mode="sphere")
        shift = offset * np.linspace(1.0, -0.5, d)
        for _ in range(8):
            pts = rng.integers(-2, 3, (60, d)).astype(float)
            pts[:10] = pts[10] + np.arange(-5, 5)[:, None] * rng.integers(-1, 2, d)
            pts += shift
            for m, slack in ((make_measure(pts, rng.random(60) ** 3 + 1e-3), 1e-12), (make_measure(pts), 0.0)):
                for q in (pts[10], pts[0], pts[25], shift + rng.standard_normal(d)):  # three on data points
                    val = sampled_depth_values([m.points], [m.weights], [0], q[None], u[None])[0][0]
                    assert np.all(val <= _bounds(m, q, u) + slack)


def _rows_of(monkeypatch, name):
    rows = []
    inner = getattr(depthlab.median, name)

    def counted(points, weights, which, *args, **kwargs):
        rows.append(len(which))
        return inner(points, weights, which, *args, **kwargs)

    monkeypatch.setattr(depthlab.median, name, counted)
    return rows


def _same(a, b):
    return np.array_equal(a.point, b.point) and a.depth == b.depth and (
        a.candidates_evaluated == b.candidates_evaluated)


def _weighted_cases():
    """Weighted degenerate measures, 40 points in the plane, 120 in R^3 and
    150 in R^4, as (measure, evaluator name)."""
    rng = np.random.default_rng(4)
    grid = rng.integers(-3, 4, (40, 2)).astype(float)
    crowd = rng.standard_normal((40, 2))
    crowd[rng.random(40) < 0.4] = [0.25, -0.5]
    line_pts = rng.standard_normal((40, 2))
    line_pts[:12] = np.arange(-6, 6)[:, None] * np.array([0.3, 0.1])
    cube = rng.integers(-2, 3, (120, 3)).astype(float) + 0.1 * rng.standard_normal((120, 3))
    cube[:20] = cube[20]
    g4 = rng.standard_normal((150, 4)) * [1.0, 0.7, 0.5, 0.3]
    return [(make_measure(p, rng.random(len(p)) ** 3 + 1e-3), name) for p, name in (
        (grid, "exact_depth_values_2d"), (crowd, "exact_depth_values_2d"),
        (line_pts, "exact_depth_values_2d"), (cube, "sampled_depth_values"),
        (g4, "sampled_depth_values"))]


def _uniform_cases():
    """Uniform measures, whose steps are rejected on exact counts: an
    integer grid with duplicates and a crowd in the plane, an integer grid
    with duplicates in R^3 and 150 points in R^4, as (measure, evaluator
    name)."""
    rng = np.random.default_rng(9)
    grid = rng.integers(-3, 4, (60, 2)).astype(float)  # 49 sites, so duplicates
    crowd = rng.standard_normal((50, 2))
    crowd[rng.random(50) < 0.4] = [0.25, -0.5]
    cube = rng.integers(-2, 3, (120, 3)).astype(float)
    cube[:20] = cube[20]
    g4 = rng.standard_normal((150, 4)) * [1.0, 0.7, 0.5, 0.3]
    return [(make_measure(p), name) for p, name in (
        (grid, "exact_depth_values_2d"), (crowd, "exact_depth_values_2d"),
        (cube, "sampled_depth_values"), (g4, "sampled_depth_values"))]


@pytest.mark.parametrize("case", range(9))
def test_medians_match_referee_where_rejections_fire(case, monkeypatch):
    m, name = (_weighted_cases() + _uniform_cases())[case]
    rows = _rows_of(monkeypatch, name)
    for seed in (0, 5):
        rows.clear()
        r = tukey_median(m, mode="multistart", starts=6, iters=12, seed=seed)
        assert sum(rows) <= 0.9 * r.candidates_evaluated  # some steps went unswept
        assert _same(r, ref.tukey_median(m, starts=6, iters=12, seed=seed))
        assert _same(balanced_median(m, starts=6, iters=12, seed=seed),
                     ref.balanced_median(m, starts=6, iters=12, seed=seed))


@pytest.mark.parametrize("i", sorted(SWEPT_ROWS_BEFORE))
def test_deep_line_search_sweeps_fewer_rows(i, monkeypatch):
    rows = _rows_of(monkeypatch, "exact_depth_values_2d")
    spec = line_search_suite_specs(200)[i]
    deep_line_search(generate_measure(spec), grid_count=60, refine_iters=2, seed=spec.seed)
    assert sum(rows) <= 0.75 * SWEPT_ROWS_BEFORE[i]


def test_rado_median_rejects_steps_that_can_only_tie(monkeypatch):
    # a uniform measure's bound and depths are counts over n: a bound equal
    # to the start's depth rejects the step
    rows = _rows_of(monkeypatch, "sampled_depth_values")
    m = generate_measure(_rado_spec(3, 500, 1))
    tukey_median(m, mode="multistart", starts=10, iters=25, seed=1)
    assert sum(rows) <= 0.6 * SAMPLED_ROWS_BEFORE
