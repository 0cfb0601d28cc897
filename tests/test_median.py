import numpy as np
import pytest

import arrangement_referee
import subtuple_referee
import depthlab.depth
import depthlab.median
from depthlab.geometry import DEFAULT_TOL, line, sample_directions
from depthlab.measures import MeasureSpec, generate_measure, make_measure, project_measure
from depthlab.depth import certified_depth_floor, deep_line_search, direction_profiles, point_depth
from depthlab.median import (
    WitnessSearchError,
    _best_subtuple,
    balanced_median,
    min_normal_set,
    recenter,
    tukey_median,
    tukey_medians,
    witness_tuple,
)
from depthlab.cones import is_generating, tuple_weight
from depthlab.suites import _rado_spec, line_search_suite_specs


def test_square_median_arrangement(square):
    r = tukey_median(square, mode="exact")
    assert r.depth == pytest.approx(0.5, abs=1e-12)
    assert point_depth(square, r.point).depth == pytest.approx(r.depth, abs=1e-12)


def test_triangle_median_arrangement(triangle):
    r = tukey_median(triangle, mode="exact")
    assert r.depth == pytest.approx(1 / 3, abs=1e-12)
    # maximizer is non-unique; any point of the closed triangle qualifies
    margin = np.min(1 - np.abs(r.point))
    assert point_depth(triangle, r.point).depth == pytest.approx(1 / 3, abs=1e-12)


def test_single_point_mass_median():
    m = make_measure([[3.0, -1.0]])
    r = tukey_median(m, mode="multistart", starts=4, iters=5)
    assert np.allclose(r.point, [3, -1])
    assert r.depth == 1.0


def test_arrangement_optimality_exhaustive():
    rng = np.random.default_rng(17)
    m = make_measure(rng.integers(-5, 6, size=(9, 2)).astype(float))
    r = tukey_median(m, mode="exact")
    # no arrangement vertex can beat the returned point
    import itertools

    pts = m.points
    best = r.depth
    for i, j in itertools.combinations(range(m.n), 2):
        d = pts[j] - pts[i]
        if np.linalg.norm(d) < 1e-12:
            continue
        for k, l in itertools.combinations(range(m.n), 2):
            e = pts[l] - pts[k]
            det = d[0] * e[1] - d[1] * e[0]
            if abs(det) < 1e-12:
                continue
            t = ((pts[k] - pts[i])[0] * e[1] - (pts[k] - pts[i])[1] * e[0]) / det
            x = pts[i] + t * d
            assert point_depth(m, x).depth <= best + 1e-12


def test_arrangement_mode_limits():
    # the exact median is planar or on a line; the arrangement scan is gone
    m = make_measure(np.random.default_rng(0).standard_normal((10, 3)))
    with pytest.raises(ValueError, match="dim = 3"):
        tukey_median(m, mode="exact")
    with pytest.raises(ValueError, match="arrangement"):
        tukey_median(make_measure(m.points[:, :2]), mode="arrangement")


def test_exact_mode_runs_at_n_500():
    # no size limit: at n = 500 the exact median is as deep as the heavy
    # ascent, and auto takes it in the plane
    m = generate_measure(MeasureSpec("gaussian", 2, 500, {}, seed=0))
    r = tukey_median(m, mode="exact")
    assert point_depth(m, r.point).depth == r.depth
    assert r.depth >= tukey_median(m, mode="multistart", starts=24, iters=40).depth
    auto = tukey_median(m)
    assert auto.depth == r.depth and np.array_equal(auto.point, r.point)


def _grid_measure(seed):
    """Integer points in [-3, 3]^2, n = 3..15: duplicates and collinear
    triples throughout, a planted collinear run at every third seed, a
    repeated point at every fifth, integer weights at odd seeds."""
    rng = np.random.default_rng(seed)
    n = 3 + seed % 13
    pts = rng.integers(-3, 4, size=(n, 2)).astype(float)
    if seed % 3 == 0:
        k = max(3, n // 2)
        pts[:k] = rng.integers(-2, 3, size=2) + np.arange(k)[:, None] * rng.integers(-1, 2, size=2)
    if seed % 5 == 0 and n > 3:
        pts[-1] = pts[0]
    w = rng.integers(1, 5, size=n).astype(float) if seed % 2 else None
    return make_measure(pts, w)


@pytest.mark.parametrize("m", [_grid_measure(s) for s in range(40)]
                         + [generate_measure(MeasureSpec("gaussian", 2, 20, {}, seed=0))])
def test_arrangement_median_matches_referee(m):
    _assert_matches_referee(m, m)


def _assert_matches_referee(m, base):
    # the depth of the referee's scan of m, and of base, a measure of the
    # same depth: bit for bit if uniform; if weighted, at least it and
    # within 1e-12 (integer units may leave a nominal tie one unit apart).
    # The exact point depth at the returned point agrees
    got = tukey_median(m, mode="exact")
    for b in (m,) if base is m else (m, base):
        ref = arrangement_referee._arrangement_median(b).depth
        if (m.weights == m.weights[0]).all():
            assert got.depth == ref
        else:
            assert ref <= got.depth <= ref + 1e-12
    check = point_depth(m, got.point)
    assert check.depth == got.depth and check.mode == "exact"


def _hard_measures():
    """(measure, base) pairs: grids scaled by 1e3 and shifted by 1e6 or
    1e12, and grids scaled by 1e-6, each against the referee's scan of
    itself (centred, so far from the origin too) and of its integer grid,
    the base; then all-collinear rows, duplicated and heavy points, a 2^-60
    weight, two points and a point mass, each its own base."""
    out = []
    for seed in (1, 4, 6, 9, 12):
        g = _grid_measure(seed)
        out += [(make_measure(g.points * 1e3 + shift, g.weights), g) for shift in (1e6, 1e12)]
        out.append((make_measure(g.points * 1e-6, g.weights), g))
    rng = np.random.default_rng(5)
    for n in (3, 7, 12):
        t = rng.integers(-4, 5, size=n).astype(float)
        out.append(make_measure(np.column_stack([t, 2.0 * t - 1.0])))
        out.append(make_measure(np.column_stack([t, np.full(n, 3.0)]), rng.integers(1, 4, size=n).astype(float)))
    pts = rng.integers(-2, 3, size=(8, 2)).astype(float)
    out.append(make_measure(np.vstack([pts, np.tile(pts[2], (5, 1))])))
    out.append(make_measure(pts, [1.0] * 7 + [20.0]))
    out.append(make_measure(pts, [1.0] * 7 + [2.0**-60]))
    out.append(make_measure([[0.0, 0.0], [1.0, 2.0]]))
    out.append(make_measure([[3.0, -1.0]] * 4))
    return [m if isinstance(m, tuple) else (m, m) for m in out]


@pytest.mark.parametrize("m, base", _hard_measures())
def test_exact_median_matches_referee_on_hard_measures(m, base):
    _assert_matches_referee(m, base)


def _projections(specs, count):
    for spec in specs:
        m = generate_measure(spec)
        for u in sample_directions(3, count, seed=spec.seed, mode="sphere"):
            yield project_measure(m, line(u))


@pytest.mark.parametrize("m", [generate_measure(_rado_spec(2, 500, s)) for s in range(8)]
                         + list(_projections(line_search_suite_specs(420), 4)))
def test_exact_median_not_below_heavy_ascent(m):
    r = tukey_median(m, mode="exact")
    assert r.depth >= tukey_median(m, mode="multistart", starts=24, iters=40).depth
    assert point_depth(m, r.point).depth == r.depth


# point and depth bits of the exact planar median, as it gave them when it
# swept every copy of a row, and its swept rows then: 3,000-point integer
# grids on the 49 sites of [-3, 3]^2, then seeded gaussians (n, seed)
_PLANAR_PINS = [
    (("grid", 0), ["0x0.0p+0", "0x0.0p+0"], "0x1.fea27983c131dp-2", 329),
    (("grid", 1), ["-0x1.5c00000000000p-52", "0x0.0p+0"], "0x1.0000000000000p-1", 509),
    ((420, 1), ["-0x1.084810d9b00f1p-3", "0x1.80ece3c2482d0p-9"], "0x1.e79e79e79e79ep-2", 43),
    ((2000, 2), ["-0x1.4ccc6f91fa6bep-7", "-0x1.0784316c19f09p-7"], "0x1.f7ced916872b0p-2", 38),
    ((300, 3), ["0x1.0c26e3b9c7a8ep-5", "0x1.71b7e251d07a1p-3"], "0x1.e4b17e4b17e4bp-2", 40),
]


@pytest.mark.parametrize("which, point, depth, rows_before", _PLANAR_PINS)
def test_planar_median_sweeps_each_row_once(which, point, depth, rows_before, monkeypatch):
    # a row swept before is at most the level, so skipping it moves no bit
    if which[0] == "grid":
        m = make_measure(np.random.default_rng(which[1]).integers(-3, 4, size=(3000, 2)).astype(float))
    else:
        m = generate_measure(MeasureSpec("gaussian", 2, which[0], {}, seed=which[1]))
    rows = []
    real = depthlab.median.exact_depth_values

    def spy(points, m, which, q):
        rows.extend(r.tobytes() for r in q)
        return real(points, m, which, q)

    monkeypatch.setattr(depthlab.median, "exact_depth_values", spy)
    r = tukey_median(m, mode="exact")
    assert [c.hex() for c in r.point] == point and r.depth.hex() == depth and r.bracket.mode == "exact"
    assert len(rows) == len(set(rows)) == r.candidates_evaluated < rows_before


def _line_grid(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 30))
    x = rng.integers(-6, 7, size=(n, 1)).astype(float)
    return make_measure(x, rng.dirichlet(np.ones(n)) if seed % 2 else None)


def test_line_median_is_the_best_point_depth():
    for seed in range(300):
        m = _line_grid(seed)
        r = tukey_median(m)
        best = max(point_depth(m, [v]).depth for v in np.unique(m.points))
        assert r.depth == best == point_depth(m, r.point).depth, seed
        assert m.units[(m.points - r.point) @ r.bracket.witness >= 0].sum() / m.scale == r.depth, seed


@pytest.mark.parametrize("d", [1, 2])
def test_line_medians_above_the_exact_size_limit(d):
    m = generate_measure(MeasureSpec("gaussian", d, 5001, {}, seed=2))
    # above the former n cap of exact depth, the median of 5,001 distinct
    # values on a line is the middle one, of depth 2501/5001
    if d == 1:
        r = tukey_median(m)
        assert r.point.tolist() == [np.sort(m.points[:, 0])[2500]] and r.depth == 2501 / 5001
    else:
        a, meds = direction_profiles(m, [[1.0, 0.0], [0.6, 0.8]])
        assert meds.shape == (2, 1) and (a == 2501 / 5001).all()


def test_grid_is_not_a_median_mode(square):
    with pytest.raises(ValueError, match="grid"):
        tukey_median(square, mode="grid")


def test_median_deterministic_in_seed():
    m = generate_measure(MeasureSpec("gaussian", 3, 200, {}, seed=6))
    a = tukey_median(m, mode="multistart", starts=6, iters=10, seed=3)
    b = tukey_median(m, mode="multistart", starts=6, iters=10, seed=3)
    assert np.array_equal(a.point, b.point) and a.depth == b.depth


def _closed_mass(m, normal):
    """Mass of the closed origin half-space with this outer normal, for a
    uniform measure."""
    return float(np.sum(m.points @ normal <= DEFAULT_TOL)) / m.n


def test_min_normal_set_triangle(triangle):
    ns = min_normal_set(triangle, [0, 0], tol=1e-9)
    assert ns.level == pytest.approx(1 / 3, abs=1e-12)
    assert ns.normals.shape[0] >= 3
    # each minimizing half-space contains exactly one vertex
    for nrm in ns.normals[:200]:
        mass = _closed_mass(triangle, nrm)
        assert mass == pytest.approx(1 / 3, abs=1e-9)
    # normals fall into (at least) 3 angular clusters, one per vertex
    ang = np.mod(np.degrees(np.arctan2(ns.normals[:, 1], ns.normals[:, 0])), 360)
    centers = np.array([270.0, 30.0, 150.0])
    counts = [np.sum(np.minimum(np.abs(ang - c), 360 - np.abs(ang - c)) < 40) for c in centers]
    assert all(c > 0 for c in counts)


def test_min_normal_set_point_mass_level_one():
    m = make_measure([[0.0, 0.0]])
    ns = min_normal_set(m, [0, 0], tol=1e-9)
    assert ns.level == 1.0
    assert ns.normals.shape[0] >= 4096  # every sampled normal qualifies


def test_min_normal_set_symmetric_closed_under_negation(square):
    ns = min_normal_set(square, [0, 0], tol=1e-9)
    # for a centrally symmetric measure the minimizing set is symmetric:
    # every kept normal's negation also qualifies
    for nrm in ns.normals[:100]:
        mass = _closed_mass(square, -nrm)
        assert mass <= ns.level + 1e-9


def _assert_holds_the_negated_witness(m, ns, witness, tol=1e-6):
    # the set is not empty, holds -u, and every normal's closed half-space
    # {x : <n, x> <= 0} carries at most the level + tol
    assert len(ns.normals) > 0
    assert np.any(np.all(np.abs(ns.normals + witness) <= 1e-12, axis=1))
    masses = (m.points @ ns.normals.T <= DEFAULT_TOL).sum(axis=0) / m.n
    assert masses.max() <= ns.level + tol


@pytest.mark.parametrize("n, count", [(161, 70), (240, 107)])
def test_min_normal_set_keeps_the_exact_witness_above_160_points(n, count):
    m, _ = recenter(generate_measure(MeasureSpec("gaussian", 3, n, {}, seed=2)),
                    balanced=True, starts=8, iters=20, seed=2)
    exact = point_depth(m, np.zeros(3))
    # the negated witness passes the set's own test: closed mass of
    # {x : <-u, x> <= 0} at most the level (tol 1e-6)
    mass = int((m.points @ -exact.witness <= DEFAULT_TOL).sum())
    if not (exact.mode == "exact" and exact.depth * n == count == mass):
        pytest.fail(f"not the pinned instance: {exact.mode} depth {exact.depth * n}/{n}, witness mass {mass}")
    ns = min_normal_set(m, np.zeros(3))
    assert ns.level * n == count
    _assert_holds_the_negated_witness(m, ns, exact.witness)


def test_min_normal_set_keeps_the_sampled_witness_in_d4():
    # above n = 332 in d = 4 the level is the sampled bound over 8,192
    # directions; none of the 4,096 sphere normals attains it here
    m, _ = recenter(generate_measure(MeasureSpec("gaussian", 4, 333, {}, seed=0)),
                    balanced=True, starts=8, iters=20, seed=0)
    sampled = point_depth(m, np.zeros(4), mode="sampled", sample_count=8192, seed=0)
    ns = min_normal_set(m, np.zeros(4))
    assert ns.level == sampled.upper
    _assert_holds_the_negated_witness(m, ns, sampled.witness)


@pytest.mark.parametrize("d", [2, 3])
def test_above_the_exact_size_limit_the_median_and_the_level_fall_back(d):
    # exact depth in d = 3 is above its budget at n = 5,001, so there the
    # normal set takes the sampled level, and the median a bracket from the
    # certified floor to the ascent's sampled depth: the cliff at n = 5,000
    # shows as a bracket that is not exact.  In d = 2 both stay exact
    m = generate_measure(MeasureSpec("gaussian", d, 5001, {}, seed=1))
    o = m.points.mean(axis=0)
    ns = min_normal_set(m, o)
    r = tukey_median(m, mode="multistart", starts=2, iters=3, seed=0)
    if d == 2:
        exact = point_depth(m, o)
        assert exact.mode == r.bracket.mode == "exact" and ns.level == exact.upper
    else:
        assert ns.level == point_depth(m, o, mode="sampled", sample_count=8192, seed=0).upper
        assert r.bracket.mode != "exact"
        assert r.depth == r.bracket.lower == certified_depth_floor(m, r.point)
        assert r.bracket.upper >= r.bracket.lower


def test_witness_tuple_triangle(triangle):
    tup, ns = witness_tuple(triangle, [0, 0])
    # stored (generating) halves are the complements: mass 2/3 each
    for nrm in tup.normals:
        assert _closed_mass(triangle, nrm) == pytest.approx(2 / 3, abs=1e-9)
        # the minimizing half-space behind it has mass 1/3
        assert _closed_mass(triangle, -nrm) == pytest.approx(1 / 3, abs=1e-9)
    flag, margin = is_generating(tup.normals)
    assert flag and margin > 1e-6
    assert tuple_weight(triangle, tup) == pytest.approx(1 / 3, abs=1e-9)


def test_witness_tuple_square(square):
    tup, _ = witness_tuple(square, [0, 0])
    flag, margin = is_generating(tup.normals)
    assert flag and margin > 1e-6
    # weight matches the median depth up to discretization
    assert tuple_weight(square, tup) == pytest.approx(0.5, abs=1e-9)


def test_witness_tuple_outside_hull_fails(square):
    with pytest.raises(WitnessSearchError):
        witness_tuple(square, [5.0, 5.0])


def test_witness_validity_invariant():
    for seed in (1, 2, 3):
        spec = MeasureSpec("simplex_mixture", 2, 150, {"sigma": 0.05}, seed)
        m = generate_measure(spec)
        mc, res = recenter(m, balanced=True, starts=8, iters=15, seed=seed)
        tup, ns = witness_tuple(mc, np.zeros(2), tol=1e-6, seed=seed)
        flag, _ = is_generating(tup.normals)
        assert flag
        assert tuple_weight(mc, tup) <= res.depth + 2e-6


def _subtuple_sets(d: int, k: int, rng):
    """Seeded candidate sets of k rows in R^d: generic unit normals; with a
    row repeated next to itself; with d + 2 rows on one line (d = 2) or
    plane (d = 3), collinear or coplanar; and a set on that line or plane
    alone, all of whose subsets are singular."""
    def units(rows):
        return rows / np.linalg.norm(rows, axis=1)[:, None]

    generic = units(rng.standard_normal((k, d)))
    yield generic
    if k > d + 1:
        # a repeat next to its row ties it exactly in either method; a repeat
        # elsewhere permutes a subset's rows, so the two copies' margins tie
        # only up to rounding, and which comes first is a rounding accident
        j = int(rng.integers(k - 1))
        yield np.insert(generic[:-1], j + 1, generic[j], axis=0)
    # points of a line (d = 2) or a plane (d = 3) that misses the origin: any
    # d + 1 of them are affinely dependent; through the origin, subsets would
    # tie at margin 0 up to rounding instead
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    flat = q[:, 0] + rng.uniform(-2.0, 2.0, (k, d - 1)) @ q[:, 1:].T
    m = min(k - 1, d + 2)
    yield np.vstack([flat[:m], generic[m:]]) if k > d + 1 else flat
    yield flat


@pytest.mark.parametrize("d", [2, 3])
def test_best_subtuple_matches_lapack_referee(d):
    # the minors table picks the subset that one LAPACK solve per subset
    # picks, with a margin within 1e-12 (-inf alike when all are singular)
    rng = np.random.default_rng(d)
    singular = 0
    for k in range(d + 1, 29):
        for rows in _subtuple_sets(d, k, rng):
            want, want_margin = subtuple_referee.best_subtuple(rows, d)
            got, margin = _best_subtuple(rows, d)
            assert got.tolist() == want.tolist(), (k, rows)
            if np.isinf(want_margin):
                singular += 1
                assert margin == want_margin == -np.inf
            else:
                assert abs(margin - want_margin) <= 1e-12
    assert singular >= 29 - (d + 1)  # every all-singular set, at least


def test_balanced_median_is_maximizer(square):
    from depthlab.median import balanced_median

    r = balanced_median(square, starts=6, iters=10)
    assert r.depth == pytest.approx(0.5, abs=1e-12)
    rl = tukey_median(square, mode="multistart", starts=6, iters=10)
    assert r.depth >= rl.depth - 1e-12


def test_recenter_moves_median_to_origin():
    m = generate_measure(MeasureSpec("gaussian", 2, 150, {}, seed=4)).translated([5.0, -3.0])
    mc, res = recenter(m, mode="multistart", starts=8, iters=20, seed=4)
    r2 = tukey_median(mc, mode="multistart", starts=8, iters=20, seed=4)
    assert np.linalg.norm(r2.point) <= np.linalg.norm(res.point - np.array([5.0, -3.0])) + 0.2
    assert r2.depth == pytest.approx(res.depth, abs=1e-12)  # translation invariance


def test_recenter_idempotent_up_to_tolerance(square):
    mc, res = recenter(square, mode="multistart", starts=6, iters=10)
    assert np.linalg.norm(res.point) <= 0.5  # already centered measure
    assert res.depth == pytest.approx(0.5, abs=1e-12)


def test_median_stability_under_reweighting():
    # total-variation perturbation moves the best depth by at most
    # delta plus search slack
    m = generate_measure(MeasureSpec("gaussian", 2, 200, {}, seed=9))
    base = tukey_median(m, mode="multistart", starts=8, iters=20, seed=9)
    rng = np.random.default_rng(10)
    w = m.weights.copy()
    bump = rng.random(m.n)
    bump = 0.05 * bump / bump.sum()
    w2 = w * (1 - 0.05) + bump
    m2 = make_measure(m.points, w2)
    delta = 0.5 * float(np.abs(w2 / w2.sum() - w).sum())
    r2 = tukey_median(m2, mode="multistart", starts=8, iters=20, seed=9)
    assert abs(r2.depth - base.depth) <= delta + 2.0 / m.n


@pytest.mark.parametrize("name, value", [
    *(("starts", v) for v in (0, -1, 2.5, True)),
    *(("iters", v) for v in (-1, 2.5, False)),
    *(("grid_count", v) for v in (0, 2.5, True)),
    *(("refine_iters", v) for v in (-1, 1.0, False)),
    *(("top_k", v) for v in (0, 2.5, True)),
])
def test_search_counts_are_refused_before_any_work(name, value, monkeypatch):
    # a count that is not an integer (a bool is not one) or is too small is
    # refused by name, where numpy once failed, ran one start by a negative
    # slice or ran no step
    def no_work(*args, **kwargs):
        raise AssertionError("work before the counts were checked")

    for mod, fn in [(depthlab.median, "_multistart_endpoints"), (depthlab.median, "_planar_median"),
                    (depthlab.depth, "direction_profiles"), (depthlab.depth, "sample_directions")]:
        monkeypatch.setattr(mod, fn, no_work)
    m2, m3 = (generate_measure(MeasureSpec("gaussian", d, 30, {}, seed=d)) for d in (2, 3))
    if name in ("starts", "iters"):
        calls = [lambda **b: tukey_median(m3, mode="multistart", **b), lambda **b: tukey_median(m2, **b),
                 lambda **b: tukey_medians(m3.points[None], m3, **b), lambda **b: balanced_median(m3, **b),
                 lambda **b: recenter(m2, balanced=True, **b)]
    else:
        calls = [lambda **b: deep_line_search(m3, **b)]
    for call in calls:
        with pytest.raises(ValueError, match=f"{name} must be an integer >= "):
            call(**{name: value})
