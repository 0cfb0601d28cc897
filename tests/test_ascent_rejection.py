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
    exact_depth_values,
    sampled_depth_values,
)
from depthlab.geometry import DEFAULT_TOL, sample_directions
from depthlab.measures import DiscreteMeasure, MeasureSpec, generate_measure, make_measure
from depthlab.median import balanced_median, tukey_median
from depthlab.suites import _rado_spec, line_search_suite_specs

# rows of exact_depth_values in deep_line_search(grid_count=60,
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
    return closed_mass_bounds(m.points[None], m)(np.zeros(len(u), dtype=int), np.tile(q, (len(u), 1)),
                                                 u[:, None, :])


def test_planar_depth_never_exceeds_closed_mass_bound():
    rng = np.random.default_rng(11)
    checked = 0
    for weighted, queries in _degenerate_planar(rng):
        # the ascent rejects a step when a bound (a count of mass units) is
        # at most its depth, weighted or not
        for m in (weighted, make_measure(weighted.points)):
            for q in np.asarray(queries, dtype=float):
                val = exact_depth_values(m.points[None], m, [0], q[None])[0][0]
                b = _bounds(m, q, _probe_directions(rng, m.points - q))
                assert np.all(val <= b), (m.points, q, val, b.min())
                checked += len(b)
    assert checked > 5000


def test_bound_slack_covers_skipped_slivers():
    # two nearly opposite points leave an arc 3e-9 wide between their
    # breakpoints, which the sweep skips: under the sweep's own tolerance
    # the mass at its midpoint is 0, below the reported 0.5
    gap = 3e-9
    pts = np.array([[1.0, 0.0], [np.cos(np.pi + gap), np.sin(np.pi + gap)]])
    m = make_measure(pts)
    val = exact_depth_values(m.points[None], m, [0], np.zeros((1, 2)))[0][0]
    mid = 0.5 * np.pi + 0.5 * gap
    u = np.array([[np.cos(mid), np.sin(mid)]])
    assert val == 0.5
    assert float((pts @ u[0] >= -DEFAULT_TOL) @ m.weights) == 0.0
    assert _bounds(m, np.zeros(2), u)[0] >= val


@pytest.mark.parametrize("scale", [10.0, 1000.0])
@pytest.mark.parametrize("extra", [[], [[0.0, 5.0], [0.0, -5.0]]])
def test_bound_covers_a_skipped_sliver_far_from_the_query(scale, extra):
    # two far, nearly opposite points leave the sliver of the previous test;
    # with two more points it holds the row's only least mass (1 of 4 where
    # every wide arc has 2).  At the sliver's midpoint both far points lie
    # 1.5e-9 scale behind the direction, more than the 2 tol floor of the
    # slack, so only the eta term of the slack counts them
    gap = 3e-9
    pts = np.array([[scale, 0.0], [scale * np.cos(np.pi + gap), scale * np.sin(np.pi + gap)], *extra])
    m = make_measure(pts)
    q = np.array([0.0, 0.0])
    val = exact_depth_values(m.points[None], m, [0], q[None])[0][0]
    mid = 0.5 * np.pi + 0.5 * gap
    u = np.array([[np.cos(mid), np.sin(mid)]])
    assert val == 0.5
    assert sampled_depth_values(m.points[None], m, [0], q[None], u[None])[0][0] == len(extra) / 2 / m.n
    assert ((pts[:2] @ u[0]) < -2.0 * DEFAULT_TOL).all()
    assert _bounds(m, q, u)[0] >= val


@pytest.mark.parametrize("d", [3, 4])
def test_sampled_depth_never_exceeds_bound_at_own_directions(d):
    rng = np.random.default_rng(d)
    u = sample_directions(d, 192, seed=5, mode="sphere")
    for _ in range(8):
        pts = rng.integers(-2, 3, (60, d)).astype(float)  # duplicates and coplanar runs
        pts[:10] = pts[10] + np.arange(-5, 5)[:, None] * rng.integers(-1, 2, d)  # a collinear run
        for m in (make_measure(pts, rng.random(60) ** 3 + 1e-3), make_measure(pts)):
            for q in (pts[10], pts[0] + 4e-10, np.zeros(d), rng.standard_normal(d)):
                val = sampled_depth_values(m.points[None], m, [0], q[None], u[None])[0][0]
                assert np.all(val <= _bounds(m, q, u))


def _slacks(pts, q):
    """The bound's two slacks for the query q among the points pts (n, d):
    s = max(3 (n + 1) tol reach, 2 tol) + 1e-14 (|z|_1 + |h|_1 + |q|_1) and
    s' = s + c (|h|_1 + |q - z|_1 + s), c = (d + 4) 2^-23, z and h being
    the centre and half-widths of the points' bounding box and reach = |h|
    + |q - z|; and z."""
    n, d = pts.shape
    low, high = pts.min(axis=0), pts.max(axis=0)
    z, h = (low + high) / 2, (high - low) / 2
    reach = np.linalg.norm(h) + np.linalg.norm(q - z)
    s = max(3.0 * (n + 1) * DEFAULT_TOL * reach, 2.0 * DEFAULT_TOL) + 1e-14 * (
        np.abs(z).sum() + h.sum() + np.abs(q).sum())
    return s, s + (d + 4) * 2.0**-23 * (h.sum() + np.abs(q - z).sum() + s), z


def _slack_rule(points, w, which, q, u):
    """The bound's rule, one row at a time: the least mass, over the row's
    directions u, of the points p whose float32 test <(u, s' - <u, q - z>),
    (p - z, 1)> >= 0 holds, for the row's slack s' and the centre z of its
    image's bounding box (``_slacks``); every image weighs its points by
    w."""
    n = points.shape[1]
    units, scale = ref.mass_units(w)
    out = []
    for r, k in enumerate(which):
        _, s, z = _slacks(points[k], q[r])
        a = np.column_stack([u[r], s - u[r] @ (q[r] - z)]).astype(np.float32)
        aug = np.vstack([(points[k] - z).T, np.ones(n)]).astype(np.float32)
        out.append(((a @ aug >= 0.0) @ units).min() / scale)
    return np.array(out)


def _per_point_rule(points, w, which, q, u):
    """The bound's earlier rule, kept as a reference: the least mass, over
    the row's directions u, of the points p within 2 tol of q or with
    <u, (p - q) / |p - q|> >= -3 (n + 1) tol."""
    eta = 3.0 * (points.shape[1] + 1) * DEFAULT_TOL
    units, scale = ref.mass_units(w)
    out = []
    for r, k in enumerate(which):
        p = points[k] - q[r]
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
        which = rng.integers(0, 3, 40)
        q = rng.standard_normal((40, d))
        q[::5] = pts[which[::5], 7]  # queries on data points
        u = _unit(rng.standard_normal((40, 30, d)))
        # one stack per weighting: three random ones and the uniform one
        for w in (*weighted, np.full(300, 1.0 / 300)):
            got = closed_mass_bounds(pts, DiscreteMeasure(d, pts[0], w))(which, q, u)
            # every row is an exact count of mass units, in any order
            assert np.array_equal(got, _slack_rule(pts, w, which, q, u))
            assert np.all(got >= _per_point_rule(pts, w, which, q, u))


@pytest.mark.parametrize("offset", [1e6, 1e9, 1e12])
def test_bound_holds_far_from_the_origin(offset):
    # <u, p> and <u, q> are rounded apart, to about 1e-16 of |p| and |q|:
    # the slack's absolute term keeps the bound above the evaluators, which
    # round p - q first
    rng = np.random.default_rng(11)
    shift = offset * np.array([1.0, -0.5])
    for weighted, queries in _degenerate_planar(rng):
        for m in (weighted, make_measure(weighted.points)):
            m = make_measure(m.points + shift, m.weights)
            for q in np.asarray(queries, dtype=float) + shift:
                val = exact_depth_values(m.points[None], m, [0], q[None])[0][0]
                b = _bounds(m, q, _probe_directions(rng, m.points - q))
                assert np.all(val <= b), (m.points, q, val, b.min())
    for d in (3, 4):
        rng = np.random.default_rng(d)
        u = sample_directions(d, 192, seed=5, mode="sphere")
        shift = offset * np.linspace(1.0, -0.5, d)
        for _ in range(8):
            pts = rng.integers(-2, 3, (60, d)).astype(float)
            pts[:10] = pts[10] + np.arange(-5, 5)[:, None] * rng.integers(-1, 2, d)
            pts += shift
            for m in (make_measure(pts, rng.random(60) ** 3 + 1e-3), make_measure(pts)):
                for q in (pts[10], pts[0], pts[25], shift + rng.standard_normal(d)):  # three on data points
                    val = sampled_depth_values(m.points[None], m, [0], q[None], u[None])[0][0]
                    assert np.all(val <= _bounds(m, q, u))


def test_bound_does_not_loosen_far_from_the_origin():
    # the float32 test runs on the points less their box centre, so its
    # slack scales with the image's spread and the query's offset from it:
    # moved up to 1e6 from the origin, a gaussian's bounds (40 queries, 13
    # directions each) keep every count they have at the origin
    m0 = generate_measure(MeasureSpec("gaussian", 2, 420, {}, seed=1))
    rng = np.random.default_rng(0)
    u = _unit(rng.standard_normal((40, 13, 2)))
    q = 0.3 * rng.standard_normal((40, 2))
    which = np.zeros(40, dtype=int)
    near = closed_mass_bounds(m0.points[None], m0)(which, q, u)
    for offset in (1e3, 1e4, 1e5, 1e6):
        shift = offset * np.array([0.8, -0.6])
        m = make_measure(m0.points + shift)
        assert np.array_equal(closed_mass_bounds(m.points[None], m)(which, q + shift, u), near)


def _boundary_rows(rng, scale, d):
    """Points within the float32 rounding of the bound's test of its slack
    boundary <u, p - q> = -s under a unit u, at a query q 1e6 from the
    origin: 8 points at -(1 - 1e-3) s, spread over the hyperplane normal to
    u through q up to scale from it, one at scale on either side (s taken
    after the move, ``_slacks``): (points, q, u, s)."""
    u = _unit(rng.standard_normal(d))
    q = 1e6 * _unit(rng.standard_normal(d))
    v = scale * rng.uniform(-1.0, 1.0, (8, d))
    v -= (v @ u)[:, None] * u
    side = scale * np.vstack([u, -u])
    s = 0.0
    for _ in range(3):  # the move barely changes the bounding box, so s settles
        pts = np.vstack([q + v - (1.0 - 1e-3) * s * u, q + side])
        s = _slacks(pts, q)[0]
    return pts, q, u, s


def _window_rows(rng, scale, d):
    """Points on the hyperplane normal to a unit u through a query q 1e6
    from the origin, within about 1e-10 of it at 1, 0.61 and 0.37 scale
    from q, and one point on either side of it: (points, q, u)."""
    u = _unit(rng.standard_normal(d))
    q = 1e6 * _unit(rng.standard_normal(d))
    v = scale * np.array([[1.0], [0.61], [0.37]]) * _unit(rng.standard_normal((3, d)))
    v -= (v @ u)[:, None] * u
    side = scale * np.array([[0.8], [0.55]]) * _unit(u + 0.3 * rng.standard_normal((2, d)))
    side *= np.sign(side @ u)[:, None] * np.array([[1.0], [-1.0]])
    return q + np.vstack([v, side]), q, u


@pytest.mark.parametrize("scale", [1e3, 1e4, 1e5, 1e6])
def test_float32_bound_covers_its_rounding_window(scale):
    # the float32 test rounds the points less their box centre, u and the
    # product by about 2^-24 of their size, more than the slack s itself:
    # only the c term of s' keeps the promise that every point with <u, p
    # - q> >= -s counts, and with it the bound above the evaluators.  With
    # points up to 1e3 to 1e6 from a query 1e6 from the origin: points just
    # inside -s all count; the skipped sliver of
    # test_bound_covers_a_skipped_sliver_far_from_the_query, turned and
    # moved, whose far points lie 1.5e-9 of their distance behind the
    # sliver's midpoint, keeps the bound above the planar value; and points
    # on the hyperplane normal to a row's one direction, which the sampled
    # value counts, keep it above that value
    rng = np.random.default_rng(int(np.log10(scale)))
    for d in (2, 3, 4):
        for _ in range(8):
            pts, q, u, s = _boundary_rows(rng, scale, d)
            lean = (pts[:8] - q) @ u
            assert (lean >= -s).all() and (lean + s < 2.0**-24 * scale).all()
            m = make_measure(pts)
            assert _bounds(m, q, u[None])[0] == 9 / 10  # the 8 and the one in front
            if d == 2:
                val = exact_depth_values(m.points[None], m, [0], q[None])[0][0]
            else:
                val = sampled_depth_values(m.points[None], m, [0], q[None], u[None, None])[0][0]
            assert val <= 9 / 10
    gap, mid = 3e-9, 0.5 * np.pi + 1.5e-9
    sliver = scale * np.array([[1.0, 0.0], [np.cos(np.pi + gap), np.sin(np.pi + gap)], [0.0, 0.5], [0.0, -0.5]])
    for t in range(16):
        turn = np.array([[np.cos(t + 0.3), -np.sin(t + 0.3)], [np.sin(t + 0.3), np.cos(t + 0.3)]])
        u = np.array([[np.cos(mid), np.sin(mid)]]) @ turn.T  # both entries far from 0
        q = 1e6 * np.array([np.cos(1.7 * t), np.sin(1.7 * t)])
        m = make_measure(q + sliver @ turn.T)
        val = exact_depth_values(m.points[None], m, [0], q[None])[0][0]
        assert val == 0.5 and _bounds(m, q, u)[0] >= val
    for d in (3, 4):
        for _ in range(16):
            pts, q, u = _window_rows(rng, scale, d)
            for m in (make_measure(pts), make_measure(pts, rng.random(len(pts)) + 0.1)):
                val = sampled_depth_values(m.points[None], m, [0], q[None], u[None, None])[0][0]
                assert val == m.units[:4].sum() / m.scale  # the hyperplane and the side of u
                assert _bounds(m, q, u[None])[0] >= val


def _rows_of(monkeypatch, name):
    rows = []
    inner = getattr(depthlab.median, name)

    def counted(points, weights, which, *args, **kwargs):
        rows.append(len(which))
        return inner(points, weights, which, *args, **kwargs)

    monkeypatch.setattr(depthlab.median, name, counted)
    return rows


def _same(a, b):
    # the point, both ends of the depth bracket and its witness, bit for bit
    x, y = a.bracket, b.bracket
    return np.array_equal(a.point, b.point) and (x.lower, x.upper) == (y.lower, y.upper) and (
        x.witness.tobytes() == y.witness.tobytes() and a.candidates_evaluated == b.candidates_evaluated)


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
        (grid, "exact_depth_values"), (crowd, "exact_depth_values"),
        (line_pts, "exact_depth_values"), (cube, "sampled_depth_values"),
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
        (grid, "exact_depth_values"), (crowd, "exact_depth_values"),
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


@pytest.mark.parametrize("d", [2, 3, 4])
def test_a_step_is_bounded_by_its_own_ring(d, monkeypatch):
    # each bound call gets its rows' rings alone, (rows, _RING, d), and in
    # every dimension the rows (in start order) belong to distinct starts,
    # each row's directions among the witnesses its start's evaluations
    # have returned so far
    found = {}  # start -> bytes of the witnesses of its evaluations
    calls = []
    cheap, bounds = depthlab.median._cheap_depths, depthlab.median.closed_mass_bounds

    def cheap_spy(*args):
        evaluate = cheap(*args)

        def spy(rows, x):
            vals, wits = evaluate(rows, x)
            for r, u in zip(rows, wits, strict=True):
                found.setdefault(int(r), set()).add(u.tobytes())
            return vals, wits
        return spy

    def bounds_spy(*args):
        bound = bounds(*args)

        def spy(which, q, directions):
            calls.append(directions.shape)
            assert directions.shape == (len(q), depthlab.median._RING, d)
            start = -1
            for row in directions:
                start = next((s for s in sorted(found) if s > start and {u.tobytes() for u in row} <= found[s]), None)
                assert start is not None
            return bound(which, q, directions)
        return spy

    monkeypatch.setattr(depthlab.median, "_cheap_depths", cheap_spy)
    monkeypatch.setattr(depthlab.median, "closed_mass_bounds", bounds_spy)
    m = generate_measure(MeasureSpec("gaussian", d, 80, {}, seed=d))
    tukey_median(m, mode="multistart", starts=6, iters=12, seed=1)
    assert len(found) == 6 and calls


@pytest.mark.parametrize("i", sorted(SWEPT_ROWS_BEFORE))
def test_deep_line_search_sweeps_fewer_rows(i, monkeypatch):
    rows = _rows_of(monkeypatch, "exact_depth_values")
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
