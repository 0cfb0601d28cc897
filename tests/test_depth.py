from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import depthlab.central
import depthlab.depth
import depthlab.median
import ascent_referee as ref
from enumerator_referee import enumerator_depth
from depthlab.geometry import Flat, complement_basis, line, random_rotation, sample_directions
from depthlab.measures import DiscreteMeasure, MeasureSpec, generate_measure, make_measure, project_measure
from depthlab.depth import (
    DepthResult,
    certified_depth_floor,
    deep_line_search,
    depth_bracket,
    depth_oracle,
    direction_profile,
    exact_depth_value_2d,
    exact_depth_values,
    flat_depth,
    line_depth_thresholds,
    point_depth,
)


@pytest.mark.parametrize("lower, upper", [(-1e-13, 0.5), (0.5, 1 + 1e-13)])
def test_depth_bracket_outside_the_unit_interval_is_refused(lower, upper):
    # every producer divides an exact count by its scale, so no rounding
    # slack is allowed at either end
    with pytest.raises(ValueError, match="not in"):
        DepthResult(lower, upper, np.array([1.0, 0.0]))
    DepthResult(0.0, 1.0, np.array([1.0, 0.0]))


def test_triangle_centroid_depth(triangle):
    # independent referee first, then the exact algorithm must agree
    oracle = depth_oracle(triangle, [0, 0])
    assert oracle.depth == 1 / 3
    assert point_depth(triangle, [0, 0]).depth == pytest.approx(oracle.depth, abs=1e-12)


def test_square_center_depth(square):
    oracle = depth_oracle(square, [0, 0])
    assert oracle.depth == 1 / 2
    assert point_depth(square, [0, 0]).depth == pytest.approx(1 / 2, abs=1e-12)


def test_outside_hull_depth_zero(square):
    assert point_depth(square, [5, 5]).depth == 0.0
    assert depth_oracle(square, [5, 5]).depth == 0.0


def test_single_point_mass():
    m = make_measure([[2.0, 3.0]])
    assert depth_oracle(m, [2, 3]).depth == 1.0
    assert depth_oracle(m, [0, 0]).depth == 0.0
    assert point_depth(m, [2, 3]).depth == 1.0


def test_witness_attains_depth(square):
    r = point_depth(square, [0, 0])
    u = r.witness
    mass = float(square.weights[(square.points @ u) >= -1e-9].sum())
    assert mass == pytest.approx(r.depth, abs=1e-12)


def _oracle_battery():
    """40 seeded integer instances per dimension, incl. duplicates/collinearity."""
    for d in (2, 3):
        for i in range(40):
            rng = np.random.default_rng(31_000 + 997 * d + i)
            n = int(rng.integers(5, 13))
            pts = rng.integers(-8, 9, size=(n, d)).astype(float)
            if i % 3 == 0:
                pts[1] = pts[0]
            if i % 5 == 0:
                pts[:, -1] = 0
            q = pts[0] if i % 2 else rng.integers(-4, 5, size=d).astype(float)
            yield make_measure(pts), q


def test_exact_matches_oracle_battery():
    for i, (m, q) in enumerate(_oracle_battery()):
        n = m.n
        e = point_depth(m, q).depth
        o = depth_oracle(m, q).depth
        assert e == o, (m.dim, i, e, o)


def _oracle_suite_instances():
    """The oracle suite's 200 seeded integer instances (``oracle_suite``)."""
    for d in (2, 3):
        for i in range(100):
            rng = np.random.default_rng(1000 * d + i)
            n = int(rng.integers(5, 13))
            pts = rng.integers(-8, 9, size=(n, d)).astype(float)
            if i % 3 == 0:
                pts[1] = pts[0]
            q = rng.integers(-4, 5, size=d).astype(float) if i % 2 else pts[0]
            yield DiscreteMeasure(d, pts, np.full(n, 1.0 / n)), q


def test_oracle_witness_attains_the_depth_exactly():
    # the float witness, its entries and the points taken as exact
    # rationals, holds exactly the depth's count in its closed half-space
    for m, q in _oracle_suite_instances():
        r = depth_oracle(m, q)
        u = [Fraction(x) for x in r.witness.tolist()]
        count = sum(sum(Fraction(a) * b for a, b in zip((x - q).tolist(), u)) >= 0 for x in m.points)
        assert r.lower == r.upper == count / m.n, (m.dim, m.points.tolist(), q)


def _scale_cases():
    """A seeded plane gaussian of 12 points queried at its coordinatewise
    median (true depth 4/12), gaussians in d = 3 and 4 queried the same
    way, and an integer grid with a duplicate queried at a data point."""
    out = []
    for d, n in ((2, 12), (3, 10), (4, 7)):
        m = generate_measure(MeasureSpec("gaussian", d, n, {}, seed=1))
        out.append((m.points, np.median(m.points, axis=0)))
    pts = np.random.default_rng(5).integers(-8, 9, (9, 3)).astype(float)
    pts[1] = pts[0]
    return out + [(pts, pts[2])]


@pytest.mark.parametrize("case", range(4))
def test_oracle_bits_do_not_depend_on_the_scale(case):
    # multiplying by 2^k is exact in floating point, and depth is affine
    # invariant, so the exact referee gives the same bits at every scale
    pts, q = _scale_cases()[case]
    base = depth_oracle(make_measure(pts), q)
    if case == 0:
        assert base.depth == 4 / 12
    for k in range(-60, 61):
        r = depth_oracle(make_measure(pts * 2.0**k), q * 2.0**k)
        assert (r.lower, r.upper, r.witness.tobytes()) == (base.lower, base.upper, base.witness.tobytes()), k


@st.composite
def wide_grids(draw):
    """An integer-grid measure in d = 2, 3 or 4 with coordinates up to 2^8:
    a duplicate, a collinear run of four points or neither, and an integer
    query that is a data point half of the time."""
    d = draw(st.integers(2, 4))
    n = draw(st.integers(4, (14, 11, 8)[d - 2]))
    coords = st.lists(st.integers(-(2**8), 2**8), min_size=d, max_size=d)
    pts = np.array(draw(st.lists(coords, min_size=n, max_size=n)), dtype=float)
    kind = draw(st.sampled_from(["duplicate", "collinear", "plain"]))
    if kind == "duplicate":
        pts[1] = pts[0]
    elif kind == "collinear":
        step = np.array(draw(st.lists(st.integers(-4, 4), min_size=d, max_size=d)), dtype=float)
        pts[1:4] = pts[0] + np.arange(1, 4)[:, None] * step
    q = pts[draw(st.integers(0, n - 1))].copy() if draw(st.booleans()) else np.array(draw(coords), dtype=float)
    return pts, q


@settings(max_examples=60, deadline=None)
@given(wide_grids())
def test_exact_depth_is_the_oracle_on_wide_grids(inst):
    # on integer grids no image norm or breakpoint gap falls within the
    # kernel's tolerance, so exact point_depth is the true depth, bit for bit
    pts, q = inst
    m = make_measure(pts)
    r = point_depth(m, q)
    assert r.mode == "exact" and r.depth == depth_oracle(m, q).depth


def test_exact_depth_is_attained_mass():
    # the reported depth is the witness's closed-half-space mass, a sum of
    # weights: never negative float noise
    for m, q in _oracle_battery():
        r = point_depth(m, q)
        p = m.points - q
        norms = np.linalg.norm(p, axis=1)
        near = norms <= 1e-9
        phat = p[~near] / norms[~near][:, None]
        mass = float(m.weights[near].sum()) + float(m.weights[~near][phat @ r.witness >= -1e-9].sum())
        assert r.mode == "exact"
        assert r.depth >= 0.0
        assert r.depth == mass


def _sliver_cases(off):
    """(-1, -off) lies ``off`` radians off the line through (1, 0), so the
    sweep sees a sliver arc between their breakpoints.  Its midpoint is
    within the tolerance of both points at 1e-10, and within the doubled
    margin of a lifted witness at 6e-9, so it cannot be the witness.  The
    lifts put the triple under a pivot of the d = 3 and d = 4 recursions."""
    tri = [(1.0, 0.0), (0.0, 1.0), (-1.0, -off)]
    return [
        (tri, 1 / 3),
        ([(x, y, 0.0) for x, y in tri], 1 / 3),
        ([(x, y, -1.0) for x, y in tri] + [(0, 0, 1), (0, 0, 2)], 1 / 5),
        ([(0, 0, 1, 0), (0, 0, -1, 0), (0, 0, 0, -1)] + [(x, y, 0, 0) for x, y in tri] + [(0, 0, 0, 1)], 3 / 7),
    ]


@pytest.mark.parametrize("pts, depth", _sliver_cases(1e-10) + _sliver_cases(6e-9))
def test_sliver_arc_is_not_a_witness(pts, depth):
    m = make_measure(np.array(pts, dtype=float))
    q = np.zeros(m.dim)
    r = point_depth(m, q)
    assert r.mode == "exact"
    assert r.depth == pytest.approx(depth, abs=1e-12)
    if m.dim == 2:
        r = exact_depth_value_2d(m, q)
        val, u = r.depth, r.witness
        assert r.mode == "exact" and val == pytest.approx(depth, abs=1e-12)
        assert float(m.weights[m.points @ u >= -1e-9].sum()) == pytest.approx(depth, abs=1e-12)


def test_sampled_mode_monotone_upper_bound(square):
    exact = point_depth(square, [0.2, 0.1]).depth
    d1 = point_depth(square, [0.2, 0.1], mode="sampled", sample_count=8, seed=5).upper
    d2 = point_depth(square, [0.2, 0.1], mode="sampled", sample_count=256, seed=5).upper
    assert d2 <= d1 + 1e-15  # superset of directions can only lower the bound
    assert exact <= d2 + 1e-15


def test_isometry_invariance():
    rng = np.random.default_rng(8)
    m = make_measure(rng.standard_normal((24, 3)))
    q = np.array([0.1, -0.2, 0.05])
    base = point_depth(m, q).depth
    for s in range(5):
        rot = random_rotation(3, 100 + s)
        shift = rng.standard_normal(3)
        m2 = make_measure(m.points @ rot.T + shift)
        assert point_depth(m2, rot @ q + shift).depth == pytest.approx(base, abs=1e-12)


def test_exact_mode_limits():
    m = make_measure(np.random.default_rng(0).standard_normal((10, 5)))
    with pytest.raises(ValueError):
        point_depth(m, np.zeros(5), mode="exact")
    assert depth_oracle(make_measure(np.zeros((20, 4))), np.zeros(4)).depth == 1.0  # 20^4 == ORACLE_WORK
    with pytest.raises(ValueError):  # 21^4 > ORACLE_WORK
        depth_oracle(make_measure(np.zeros((21, 4))), np.zeros(4))
    with pytest.raises(ValueError):
        depth_oracle(make_measure(np.zeros((3, 2))), np.zeros(3))


def test_exact_budget_edges(monkeypatch):
    # depth_bracket is exact exactly where n^(d-1) ln n fits EXACT_WORK: d =
    # 3 up to n = 5,000, d = 4 up to 332, d = 2 far above 5,000 and d = 1 at
    # any n; exact point_depth refuses elsewhere.  Spies stand in for the
    # evaluators, so no large kernel runs
    real, asked = point_depth, []

    def spy(m, q, mode="exact", **kw):
        asked.append(mode)
        return DepthResult(0.5, 0.5, np.eye(m.dim)[0])

    monkeypatch.setattr(depthlab.depth, "point_depth", spy)
    monkeypatch.setattr(depthlab.depth, "certified_depth_floor", lambda m, q: 0.25)
    for d, n, exact in [(3, 5000, True), (3, 5001, False), (4, 332, True), (4, 333, False),
                        (2, 200_000, True), (1, 200_000, True), (5, 2, False)]:
        m, q = make_measure(np.arange(n * d, dtype=float).reshape(n, d)), np.zeros(d)
        asked.clear()
        assert depth_bracket(m, q).mode == ("exact" if exact else "bracket") and asked == [
            "exact" if exact else "sampled"], (d, n)
        if not exact:
            with pytest.raises(ValueError, match="exact mode limited"):
                real(m, q)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_stacked_exact_rows_are_point_depth_one_at_a_time(d):
    # one stack of rows of exact_depth_values against point_depth one query
    # at a time, bit for bit: an integer grid with a duplicate, its mirror
    # image and an image whose points all sit at one site, uniform and
    # weighted, queried at data points, at that site (depth 1, with no
    # RuntimeWarning) and off the data
    rng = np.random.default_rng(70 + d)
    n = 14 if d == 4 else 24
    pts = rng.integers(-2, 3, (n, d)).astype(float)
    pts[1] = pts[0]
    images = np.stack([pts, -pts, np.tile(pts[2], (n, 1))])
    which = np.array([0, 0, 1, 2, 0, 1])
    q = np.vstack([pts[0], 0.5 * rng.standard_normal(d), -pts[3], pts[2], rng.integers(-1, 2, d),
                   0.25 * rng.integers(-2, 3, d)])
    for m in (make_measure(pts), make_measure(pts, rng.dirichlet(np.ones(n)))):
        vals, dirs = exact_depth_values(images, m, which, q)
        assert vals[3] == 1.0
        for r, (k, qr) in enumerate(zip(which, q)):
            one = point_depth(DiscreteMeasure(d, images[k], m.weights), qr)
            assert one.mode == "exact" and float(vals[r]).hex() == float(one.depth).hex(), (d, r)
            assert dirs[r].tobytes() == one.witness.tobytes(), (d, r)


def test_exact_value_2d_agrees_with_point_depth():
    rng = np.random.default_rng(14)
    m = make_measure(rng.standard_normal((80, 2)))
    for s in range(10):
        q = rng.standard_normal(2) * 0.5
        assert exact_depth_value_2d(m, q).depth == pytest.approx(
            point_depth(m, q).depth, abs=1e-12
        )


def test_certified_floor_below_exact():
    rng = np.random.default_rng(2)
    m = make_measure(rng.standard_normal((60, 3)))
    q = np.zeros(3)
    exact = point_depth(m, q).depth
    for g in (0.2, 0.1, 0.05):
        fl = certified_depth_floor(m, q, gamma=g)
        assert fl <= exact + 1e-12
    assert certified_depth_floor(m, q, gamma=0.05) >= certified_depth_floor(m, q, gamma=0.3) - 1e-12


def test_certified_floor_d4():
    rng = np.random.default_rng(3)
    m = make_measure(rng.standard_normal((50, 4)))
    exact = point_depth(m, np.zeros(4)).depth
    assert certified_depth_floor(m, np.zeros(4), gamma=0.1) <= exact + 1e-12


def test_flat_depth_square_in_plane():
    pts = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]]
    m = make_measure(pts)
    r = flat_depth(m, line([0, 0, 1]))
    assert r.depth == pytest.approx(0.5, abs=1e-12)


def test_flat_depth_hyperplane_containing_all():
    pts = np.array([[1.0, 2.0, 0.0], [-1.0, 0.5, 0.0], [0.3, -2.0, 0.0]])
    m = make_measure(pts)
    f = Flat(np.zeros(3), np.eye(3)[:2])
    assert flat_depth(m, f).depth == pytest.approx(1.0)


def test_flat_depth_far_from_hull():
    m = make_measure(np.random.default_rng(1).standard_normal((30, 3)))
    f = Flat([10.0, 0.0, 0.0], np.array([[0.0, 0.0, 1.0]]))
    assert flat_depth(m, f).depth == 0.0


def test_flat_depth_never_overstates(monkeypatch):
    # a line in R^5 projects to R^4, where n = 200 is within the exact
    # kernel's budget; above it (forced here) the depth is the certified
    # floor, at most the exact depth of the projected anchor, and the upper
    # end at least it
    rng = np.random.default_rng(3)
    m, f = make_measure(rng.standard_normal((200, 5))), line(np.eye(5)[0])
    exact = point_depth(project_measure(m, f), complement_basis(f) @ f.base)
    r = flat_depth(m, f)
    assert r.mode == exact.mode == "exact" and r.depth == exact.depth
    with monkeypatch.context() as patch:
        patch.setattr(depthlab.depth, "_exact_affordable", lambda m: False)
        r = flat_depth(m, f)
    assert r.mode != "exact" and r.depth <= exact.depth <= r.upper
    # at n = 60 the line's depth stays exact; in R^6 the projection is in
    # dim 5, with no floor, so the lower end is 0
    assert flat_depth(make_measure(rng.standard_normal((60, 5))), f).mode == "exact"
    r = flat_depth(make_measure(rng.standard_normal((60, 6))), line(np.eye(6)[0]))
    assert r.lower == 0.0 and r.mode != "exact" and 0.0 < r.upper <= 0.5


def _bracket_cases():
    """(measure, query) with d <= 3 and n <= 14: seeded gaussians (every
    third weighted) and integer grids with a duplicate point, a collinear
    run of four or the query on a data point."""
    out = []
    for s in range(18):
        rng = np.random.default_rng(s)
        d, n = 2 + s % 2, int(rng.integers(5, 15))
        out.append((make_measure(rng.standard_normal((n, d)), rng.random(n) + 0.1 if s % 3 == 0 else None),
                    0.3 * rng.standard_normal(d)))
        pts = rng.integers(-4, 5, size=(n, d)).astype(float)
        q = rng.integers(-2, 3, size=d).astype(float)
        if s % 3 == 0:
            pts[1] = pts[0]
        elif s % 3 == 1:
            pts[2:5] = pts[0] + np.arange(1, 4)[:, None] * np.eye(d)[s % d]
        else:
            q = pts[0].copy()
        out.append((make_measure(pts), q))
    return out


@pytest.mark.parametrize("m, q", _bracket_cases())
def test_every_bracket_holds_the_oracle(m, q, monkeypatch):
    # the exact and sampled modes of point_depth and both branches of the
    # one evaluator rule; the exact branch is the rule's at this size, the
    # other (the floor and an 8,192-direction sample) is forced
    truth = depth_oracle(m, q).depth
    got = [point_depth(m, q), point_depth(m, q, mode="sampled", sample_count=64, seed=1), depth_bracket(m, q)]
    assert got[2].mode == "exact"
    monkeypatch.setattr(depthlab.depth, "_exact_affordable", lambda m: False)
    got.append(depth_bracket(m, q, seed=1))
    for r in got:
        assert r.lower <= truth + 1e-12 and truth <= r.upper + 1e-12, (r.lower, truth, r.upper)


@pytest.mark.parametrize("k", [2.0, 3.0])
@pytest.mark.parametrize("off", [1e-8, 1e-7])
def test_near_collinear_bracket_holds_the_oracle(k, off):
    # d = 3 integer grids (n = 5-11, coordinates in [-8, 8]) and an integer
    # query q, point 1 moved to q + k (x_0 - q) and then off away from that
    # line: the exact witness can fall short of the computed minimum, and
    # point_depth then brackets with the certified floor as its lower end
    # (1-13 of these 50 grids per case); exact or not, the bracket holds
    # the oracle's depth
    for seed in range(50):
        rng = np.random.default_rng(seed)
        pts = rng.integers(-8, 9, size=(int(rng.integers(5, 12)), 3)).astype(float)
        q = rng.integers(-8, 9, size=3).astype(float)
        a, v = pts[0] - q, rng.standard_normal(3)
        v -= (v @ a) / (a @ a) * a
        pts[1] = q + k * a + off * v / np.linalg.norm(v)
        m = make_measure(pts)
        truth, r = depth_oracle(m, q).depth, point_depth(m, q)
        assert r.lower <= truth <= r.upper, (seed, r.lower, truth, r.upper)
        assert r.mode != "exact" or r.lower == truth, (seed, r.lower, truth)


@pytest.mark.parametrize("n", [9, 30, 60])
def test_d4_bracket_holds_the_exact_depth(n, monkeypatch):
    # the rule's floor-and-sample branch, forced at sizes where the exact
    # d = 4 kernel is the referee: a gaussian, and an integer grid queried
    # at a data point
    rng = np.random.default_rng(n)
    grid = rng.integers(-2, 3, size=(n, 4)).astype(float)
    cases = [(make_measure(rng.standard_normal((n, 4))), 0.2 * rng.standard_normal(4)), (make_measure(grid), grid[0])]
    for m, q in cases:
        exact = point_depth(m, q)
        monkeypatch.setattr(depthlab.depth, "_exact_affordable", lambda m: False)
        r = depth_bracket(m, q)
        monkeypatch.undo()
        assert exact.mode == "exact" and r.lower <= exact.depth <= r.upper


def test_direction_profile_point_mass():
    m = make_measure(np.tile([[1.0, 2.0, 3.0]], (5, 1)))
    a, _ = direction_profile(m, [0, 0, 1])
    assert a == pytest.approx(1.0)


def test_direction_profile_ball_and_continuity():
    m = generate_measure(MeasureSpec("uniform_ball", 3, 2000, {}, seed=12))
    budget = {"starts": 10, "iters": 16, "seed": 0}
    a, _ = direction_profile(m, [0, 0, 1], budget)
    assert abs(a - 0.5) < 0.05
    u1 = np.array([0.0, 0.0, 1.0])
    u2 = np.array([np.sin(np.deg2rad(0.8)), 0.0, np.cos(np.deg2rad(0.8))])
    a2, _ = direction_profile(m, u2, budget)
    assert abs(a - a2) < 0.05


def test_line_depth_thresholds_values():
    th = line_depth_thresholds(3)
    assert th["rado"] == pytest.approx(1 / 3)
    assert th["improved"] == pytest.approx(1 / 3 + 1 / 81)
    th4 = line_depth_thresholds(4)
    assert th4["improved"] == pytest.approx(0.25 + 1 / 192)


def test_deep_line_search_symmetric_measure():
    m = generate_measure(MeasureSpec("uniform_ball", 3, 600, {}, seed=3))
    r = deep_line_search(m, grid_count=120, refine_iters=1, seed=3)
    assert abs(r.depth - 0.5) < 0.05
    # the anchor lies on the reported line and reproduces the depth
    f = Flat(r.anchor, r.direction[None])
    assert flat_depth(m, f).depth == pytest.approx(r.depth, abs=1e-12)
    assert r.iterations > 120


def test_deep_line_search_requires_3d():
    m = make_measure(np.random.default_rng(0).standard_normal((20, 2)))
    with pytest.raises(ValueError):
        deep_line_search(m)


def test_rado_floor_in_projections():
    # median depth of any projection stays above the centerpoint floor
    m = generate_measure(MeasureSpec("gaussian", 3, 300, {}, seed=21))
    for s, u in enumerate(sample_directions(3, 5, seed=2)):
        a, _ = direction_profile(m, u, {"starts": 8, "iters": 12, "seed": s})
        assert a >= 1 / 3 - 2 / 300


@st.composite
def degenerate_instances(draw, d, n_min, n_max, near=False):
    """Small integer instances with duplicates, a coplanar layer, a query on
    a data point (with near=True, or within ``DEFAULT_TOL`` of it), points
    in a 2-plane through the query and/or a run of points on a line through
    the query."""
    n = draw(st.integers(n_min, n_max))
    coord = st.integers(-6, 6)
    pts = np.array(draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=n, max_size=n)), dtype=float)
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        pts[i] = pts[j]
    if draw(st.booleans()):
        pts[: n // 2, -1] = 0.0
    if draw(st.booleans()):
        q = pts[draw(st.integers(0, n - 1))].copy()
        if near:
            q[draw(st.integers(0, d - 1))] += draw(st.sampled_from([0.0, 3e-10, -5e-10, 1e-9]))
    else:
        q = np.array(draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d)), dtype=float)
    if d >= 3 and draw(st.booleans()):
        pts[: draw(st.integers(2, n)), 2:] = q[2:]
    if draw(st.booleans()):
        g = np.array(draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d)), dtype=float)
        g[0] = g[0] or 1.0
        ks = draw(st.lists(st.integers(-3, 3).filter(bool), min_size=2, max_size=min(n, 5)))
        pts[n - len(ks) :] = q + np.array(ks, dtype=float)[:, None] * g
    return make_measure(pts), q


@settings(max_examples=60, deadline=None)
@given(degenerate_instances(4, 5, 16))
def test_exact_d4_matches_enumerator(inst):
    m, q = inst
    r = point_depth(m, q)
    assert r.mode == "exact"
    assert abs(r.depth - enumerator_depth(m, q)) < 1e-9


@settings(max_examples=60, deadline=None)
@given(degenerate_instances(3, 15, 30))
def test_exact_d3_matches_enumerator_beyond_oracle_size(inst):
    m, q = inst
    r = point_depth(m, q)
    assert r.mode == "exact"
    assert abs(r.depth - enumerator_depth(m, q)) < 1e-9


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([3, 4]).flatmap(lambda d: degenerate_instances(d, 5, 20, near=True)))
def test_certified_floor_exact_sampled_order(inst):
    m, q = inst
    exact = point_depth(m, q).depth
    assert certified_depth_floor(m, q, gamma=0.2) <= exact
    assert exact <= point_depth(m, q, mode="sampled", sample_count=256, seed=1).upper


@pytest.mark.parametrize("offset, count", [(5e-10, 4), (1e-9, 4), (2e-9, 3)])
def test_point_near_query_counts_everywhere_in_sampled_bound(offset, count):
    # a point within tol of the query counts under every direction in the
    # exact depth, so the sampled bound must count it too (it once gave 3/7
    # against the exact 4/7); at 2e-9 neither path counts it everywhere
    pts = np.vstack([offset * np.eye(3)[0], np.eye(3), -np.eye(3)])
    m, q = make_measure(pts), np.zeros(3)
    exact = point_depth(m, q).depth
    assert exact == count / 7
    assert certified_depth_floor(m, q) <= exact
    assert exact <= point_depth(m, q, mode="sampled", sample_count=256, seed=1).upper


@pytest.mark.parametrize("at_query, at_e3", [(19, 1), (15, 2)])
def test_exact_depth_not_above_sampled_bound(at_query, at_e3):
    # points at the query and at e3: a uniform measure's masses are counts
    # over n in every evaluator, so the exact depth (once 0.9500000000000002
    # and 0.8823529411764707) equals the sampled bound
    pts = np.vstack([np.zeros((at_query, 3)), np.tile([0.0, 0.0, 1.0], (at_e3, 1))])
    m, q = make_measure(pts), np.zeros(3)
    exact = point_depth(m, q).depth
    assert exact == at_query / m.n
    assert exact <= point_depth(m, q, mode="sampled", sample_count=256, seed=1).upper
    assert certified_depth_floor(m, q) <= exact


@pytest.mark.parametrize("n", [20, 200])
def test_line_search_takes_one_exact_planar_median(n, monkeypatch):
    # the scan and refine phases run the ascent at every size; only the
    # final profile takes the exact planar median
    calls = []
    real = depthlab.median._planar_median
    monkeypatch.setattr(depthlab.median, "_planar_median", lambda p, m: calls.append(len(p)) or real(p, m))
    m = generate_measure(MeasureSpec("gaussian", 3, n, {}, seed=4))
    r = deep_line_search(m, grid_count=16, refine_iters=1, seed=4)
    assert calls == [n]
    assert 0 < r.depth <= 1


@st.composite
def grid_measures(draw, d):
    """An integer-grid measure in d = 2 or 3 (duplicates allowed) and an
    integer query, which is a data point half of the time."""
    n = draw(st.integers(3, 14))
    coord = st.integers(-5, 5)
    pts = np.array(draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=n, max_size=n)), dtype=float)
    if draw(st.booleans()):
        q = pts[draw(st.integers(0, n - 1))].copy()
    else:
        q = np.array(draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d)), dtype=float)
    return pts, q


@st.composite
def unimodular(draw, d):
    """An integer matrix of determinant +-1: a signed permutation times up
    to three elementary shears with multipliers in [-2, 2]."""
    a = np.eye(d)[draw(st.permutations(range(d)))] * np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=d, max_size=d)))
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        if i != j:
            a[i] += draw(st.integers(-2, 2)) * a[j]
    return a


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(lambda d: st.tuples(grid_measures(d), unimodular(d), st.lists(st.integers(-4, 4), min_size=d, max_size=d))))
def test_exact_depth_affine_invariance_on_grids(inst):
    # an integer unimodular map plus an integer shift keeps every point on
    # the grid and maps half-spaces to half-spaces, so the depth is unchanged
    (pts, q), a, shift = inst
    r0 = point_depth(make_measure(pts), q)
    r1 = point_depth(make_measure(pts @ a.T + shift), a @ q + shift)
    assert r0.mode == r1.mode == "exact"
    assert r1.depth == pytest.approx(r0.depth, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(lambda d: st.tuples(grid_measures(d), st.lists(st.integers(-4, 4), min_size=d, max_size=d))))
def test_exact_depth_quasi_concave_on_segments(inst):
    # depth regions are convex: the midpoint of a segment is at least as
    # deep as the shallower end
    (pts, q0), q1 = inst
    m = make_measure(pts)
    q1 = np.array(q1, dtype=float)
    mid = point_depth(m, (q0 + q1) / 2).depth
    assert mid >= min(point_depth(m, q0).depth, point_depth(m, q1).depth) - 1e-12


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(grid_measures))
def test_uniform_exact_depth_is_a_count(inst):
    # a uniform measure's exact depth is its oracle count over n, with no
    # tolerance: times n it is that integer (as c / n * n is for n <= 14)
    pts, q = inst
    m = make_measure(pts)
    count = round(depth_oracle(m, q).depth * m.n)
    if m.dim == 2:
        vals, _ = exact_depth_values(m.points[None], m, [0], q[None])
        assert vals[0] * m.n == count and vals[0] == count / m.n
    r = point_depth(m, q)
    assert r.depth * m.n == count and r.depth == count / m.n


def _weighted_oracle_cases():
    """24 weighted measures in d = 2, 3 with n <= 14: Dirichlet weights on
    Gaussian points or on integer grids with duplicates, one weight below
    2^-60 in every third, and a query on a data point in every other."""
    for d in (2, 3):
        for i in range(12):
            rng = np.random.default_rng(41_000 + 100 * d + i)
            n = int(rng.integers(4, 15))
            pts = rng.integers(-2, 3, (n, d)).astype(float) if i % 2 else rng.standard_normal((n, d))
            pts[1] = pts[0]
            w = rng.dirichlet(np.ones(n))
            if i % 3 == 0:
                w[2] = 2.0**-62
            q = pts[int(rng.integers(0, n))] if i % 4 < 2 else rng.integers(-1, 2, d).astype(float)
            yield make_measure(pts, w), q


def test_weighted_exact_depth_is_the_oracle_count():
    # the oracle on the mass units, each over 2^52, divides the least count
    # of units by their exact total: the exact depth bit for bit.  On the
    # weights themselves it counts the weight below 2^-60 exactly too, and
    # differs from the units' depth by their rounding alone
    for m, q in _weighted_oracle_cases():
        units, _ = ref.mass_units(m.weights)
        assert m.weights.min() >= 2.0**-60 or units.min() == 1.0  # the floor of one unit
        r = point_depth(m, q, mode="exact")
        assert r.mode == "exact"
        assert depth_oracle(DiscreteMeasure(m.dim, m.points, units / 2**52), q).depth == r.depth, (m.dim, m.n, q)
        assert abs(r.depth - depth_oracle(m, q).depth) <= 1e-12


def _exact_kernel_queries(monkeypatch):
    """Record the top-level exact kernel runs (``_min_halfspace_mass`` at the
    measure's own dimension) by the bytes of their unit points, after
    emptying the exact-depth memo."""
    monkeypatch.setattr(depthlab.depth, "_last", (None, None))
    real = depthlab.depth._min_halfspace_mass
    runs = []

    def counted(phat, w, gap):
        if phat.shape[2] == 3:
            runs.append(phat.tobytes())
        return real(phat, w, gap)

    monkeypatch.setattr(depthlab.depth, "_min_halfspace_mass", counted)
    return runs


def test_exact_memo_runs_the_kernel_once_per_point(monkeypatch):
    # recenter -> witness_tuple -> structural_map asks for the depth at the
    # median three times and more, each time right after the last; the d =
    # 3 kernel runs once per point
    runs = _exact_kernel_queries(monkeypatch)
    asked = []
    real = depthlab.depth.point_depth

    def counted(m, q, mode="exact", **kw):
        if mode == "exact":
            asked.append((m.points - np.asarray(q, dtype=float)).tobytes())
        return real(m, q, mode=mode, **kw)

    monkeypatch.setattr(depthlab.depth, "point_depth", counted)  # every other module asks through depth_bracket
    m = generate_measure(MeasureSpec("simplex_mixture", 3, 240, {"sigma": 0.01}, 1002))
    mc, _ = depthlab.median.recenter(m, balanced=True, starts=8, iters=20, seed=2)
    depthlab.median.witness_tuple(mc, np.zeros(3), seed=2)
    depthlab.central.structural_map(mc, 0.25 + 0.5 / 192, tuple_samples=16, seed=2)
    assert len(asked) >= len(set(asked)) + 3
    assert len(runs) == len(set(runs)) == len(set(asked))


def test_a_witness_one_unit_off_the_minimum_is_only_an_upper_end(monkeypatch):
    # the kernel's minimum and the witness's attained mass are counts over
    # one scale, so the witness is taken as exact only when the two are
    # equal; a spy reports one unit (2^-52 of the total) below the
    # witness's mass, which a tolerance of 1e-9 would have accepted
    rng = np.random.default_rng(8)
    m = make_measure(rng.standard_normal((80, 3)), rng.dirichlet(np.ones(80)))
    q = np.array([0.1, -0.05, 0.2])
    monkeypatch.setattr(depthlab.depth, "_last", (None, None))
    honest = point_depth(m, q)
    real = depthlab.depth.exact_depth_values

    def one_unit_low(points, meas, which, qs):
        vals, dirs = real(points, meas, which, qs)
        return vals - 1.0 / meas.scale, dirs

    monkeypatch.setattr(depthlab.depth, "exact_depth_values", one_unit_low)
    monkeypatch.setattr(depthlab.depth, "_last", (None, None))
    r = point_depth(m, q)
    floor = certified_depth_floor(m, q)
    assert honest.mode == "exact" and floor < honest.depth
    assert r.upper == honest.upper and r.lower == floor and r.mode == "bracket"


def test_exact_memo_hit_is_the_fresh_result(monkeypatch):
    runs = _exact_kernel_queries(monkeypatch)
    m = generate_measure(MeasureSpec("gaussian", 3, 60, {}, seed=4))
    q = np.array([0.1, -0.2, 0.05])
    first = point_depth(m, q)
    hit = point_depth(m, q)
    assert hit is first and len(runs) == 1
    assert not hit.witness.flags.writeable
    depthlab.depth._last = (None, None)
    fresh = point_depth(m, q)
    assert len(runs) == 2
    assert float(hit.depth).hex() == float(fresh.depth).hex()
    assert hit.witness.tobytes() == fresh.witness.tobytes() and hit.mode == fresh.mode
    # right after it, another measure at the same point or another point is
    # a miss, and so is a query asked before the last
    point_depth(make_measure(m.points, np.linspace(1.0, 2.0, m.n)), q)
    assert len(runs) == 3
    point_depth(m, q + np.array([0.0, 0.0, 1e-9]))
    assert len(runs) == 4
    point_depth(m.translated([0.0, 1e-12, 0.0]), q + np.array([0.0, 0.0, 1e-9]))
    assert len(runs) == 5
    assert point_depth(m, q) is not fresh and len(runs) == 6


def test_exact_memo_under_thread_contention(monkeypatch):
    # 6 threads on 24 queries with a short switch interval, so the last
    # query changes under every thread: every result is the fresh one
    import sys
    from concurrent.futures import ThreadPoolExecutor

    m = generate_measure(MeasureSpec("gaussian", 3, 24, {}, seed=9))
    qs = np.random.default_rng(9).standard_normal((24, 3)) * 0.3
    monkeypatch.setattr(depthlab.depth, "_last", (None, None))
    fresh = [point_depth(m, q) for q in qs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            got = [f.result(timeout=120) for f in [pool.submit(point_depth, m, qs[(i * 7) % 24]) for i in range(144)]]
    finally:
        sys.setswitchinterval(interval)
    for i, r in enumerate(got):
        want = fresh[(i * 7) % 24]
        assert float(r.depth).hex() == float(want.depth).hex() and r.witness.tobytes() == want.witness.tobytes()


def test_suite_with_exact_memo_does_not_depend_on_threads():
    from depthlab.suites import SUITES, rows_to_csv, run_suite

    depthlab.depth._last = (None, None)
    one = rows_to_csv(run_suite("central", SUITES["central"].quick, threads=1))
    depthlab.depth._last = (None, None)
    two = rows_to_csv(run_suite("central", SUITES["central"].quick, threads=2))
    assert one == two
