"""The lockstep median ascent and the batched planar and sampled evaluators
give the same bits as the single-query referee in ``ascent_referee``, the
certified floor is valid against its full-net sweep there, and the
half-turn planar sweep gives the minimum of its full-turn sweep."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ascent_referee as ref
import depthlab.depth
import depthlab.median
from depthlab.depth import (
    _CHUNK,
    _row_blocks,
    deep_line_search,
    direction_profiles,
    exact_depth_values_2d,
    point_depth,
)
from depthlab.geometry import canonical_direction, line, sample_directions
from depthlab.measures import MeasureSpec, generate_measure, make_measure, project_measure
from depthlab.median import _start_points, balanced_median, tukey_median, tukey_medians
from depthlab.suites import line_search_suite_specs

Q = np.array([0.25, -0.5])


def _planar_cases():
    """(name, measure, queries) with 40 points each, weights not uniform."""
    rng = np.random.default_rng(0)
    general = rng.standard_normal((40, 2))
    crowd = rng.standard_normal((40, 2))
    at = rng.random(40) < 0.5
    crowd[at] = Q  # 15 points: their weights sum differently with zeros between them
    line_pts = rng.standard_normal((40, 2))
    line_pts[:9] = Q + np.arange(-4, 5)[:, None] * np.array([0.3, 0.1])
    weights = [rng.random(40) ** 3 for _ in range(4)]
    grid = rng.integers(-3, 4, (40, 2)).astype(float)  # many tied angles around each point
    return [
        ("general", make_measure(general, weights[0]), [Q, [0.0, 0.0], [5.0, 5.0]]),
        ("on_point", make_measure(general, weights[0]), list(general)),
        ("crowd", make_measure(crowd, weights[1]), [Q, crowd[np.argmin(at)]]),
        ("all_at_query", make_measure(np.tile(Q, (40, 1)), weights[2]), [Q]),
        ("collinear", make_measure(line_pts, weights[3]), [Q, line_pts[2], Q + [0.15, 0.05]]),
        ("grid", make_measure(grid, rng.random(40)), [Q, *grid[:8]]),
    ]


def test_batched_planar_depth_matches_single_query_bits():
    # each case with its own weights and with uniform ones
    cases = _planar_cases()
    cases += [(name + "_uniform", make_measure(m.points), qs) for name, m, qs in cases]
    pts = [m.points for _, m, _ in cases]
    w = [m.weights for _, m, _ in cases]
    which = np.array([k for k, (_, _, qs) in enumerate(cases) for _ in qs])
    q = np.array([qi for _, _, qs in cases for qi in qs], dtype=float)
    vals, dirs = exact_depth_values_2d(pts, w, which, q)
    for r, (k, qi) in enumerate(zip(which, q)):
        name, m, _ = cases[k]
        val, u = ref.exact_depth_value_2d(m, qi)
        assert vals[r] == val and np.array_equal(dirs[r], u), (name, r)
    assert vals[which == 3][0] == 1.0  # every point at the query


def test_batched_planar_depth_across_blocks():
    m = generate_measure(MeasureSpec("gaussian", 2, 300, {}, seed=4))
    q = np.vstack([m.points[:60], np.random.default_rng(1).standard_normal((60, 2))])
    assert len(q) * m.n > 2 * _CHUNK
    vals, dirs = exact_depth_values_2d([m.points], [m.weights], np.zeros(len(q), dtype=int), q)
    for r, qi in enumerate(q):
        val, u = ref.exact_depth_value_2d(m, qi)
        assert vals[r] == val and np.array_equal(dirs[r], u)


def _sweep_batches():
    """(name, vectors, units) batches of several rows for the planar sweep,
    the vectors unit except in the "scaled" batch."""
    rng = np.random.default_rng(9)

    def rows(p):
        return p / np.linalg.norm(p, axis=-1, keepdims=True)

    # +-0.0 in either coordinate: tied and exactly opposite angles
    axes = np.array([[s * a, t * b] for a, b in ((1.0, 0.0), (0.0, 1.0)) for s in (1, -1) for t in (1, -1)])
    grid = np.array([(x, y) for x in range(-3, 4) for y in range(-3, 4) if (x, y) != (0, 0)], dtype=float)
    tiny = rng.standard_normal((6, 40, 2))
    tiny[:, :10] = [1.0, 1e-17]
    tiny[:, 10:20] = [1.0, -1e-17]  # atan2 just below 0, which wraps to exactly 2 pi
    tiny[:, 20:24] = [-1.0, -1e-17]
    partial = rows(rng.standard_normal((9, 30, 2)))
    partial[::3, 1] = partial[::3, 0]  # a tied angle in every third row only
    partial[4, 7] = -partial[4, 2]  # an exactly opposite pair in an untied row
    pair = rng.standard_normal((8, 2, 2))
    pair[1, 1] = pair[1, 0]
    pair[2, 1] = -pair[2, 0]
    pair[3] = [[1.0, 0.0], [-1.0, 0.0]]  # the lighter point's arc has its midpoint at 2 pi
    pair_w = rng.random((8, 2))
    pair_w[3] = [0.25, 0.75]
    # (0, -1) has angle 3 pi / 2 and a breakpoint at exactly 2 pi, which wraps to 0
    turn = rows(np.array([[(0, -1), a, b] for a, b in (((-2, -2), (-2, -1)), ((-1, -1), (-1, 1)))], dtype=float))
    zero_w = rng.random((7, 60))
    zero_w[rng.random((7, 60)) < 0.5] = 0.0
    return [
        ("random", rows(rng.standard_normal((12, 50, 2))), rng.random((12, 50))),
        ("scaled", rng.standard_normal((6, 40, 2)) * 10.0 ** rng.integers(-6, 7, (6, 40, 1)),
         rng.integers(0, 4, (6, 40)).astype(float)),
        ("grid", rows(grid[rng.integers(0, len(grid), (10, 70))]), rng.random((10, 70))),
        ("axes", axes[rng.integers(0, len(axes), (10, 25))], rng.random((10, 25))),
        ("tiny_y", rows(tiny), rng.random((6, 40))),
        ("zero_weights", rows(rng.standard_normal((7, 60, 2))), zero_w),
        ("m1", rows(rng.standard_normal((5, 1, 2))), rng.random((5, 1))),
        ("m2", rows(pair), pair_w),
        ("partial_ties", partial, rng.random((9, 30))),
        ("two_pi_breakpoint", turn, np.tile([0.5, 0.25, 0.125], (2, 1))),
    ] + _boundary_batches(rng) + _sweep_fuzz(300)


_AXES = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])  # angles 0, pi/2, pi, 3 pi/2 exactly


def _axis_rows(k: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """Unit rows at the axis angles k pi/2 moved by offset, exact where the
    offset is 0."""
    a = 0.5 * np.pi * k + offset
    return np.where((offset == 0.0)[..., None], _AXES[k], np.stack([np.cos(a), np.sin(a)], axis=-1))


def _boundary_batches(rng) -> list:
    """Point angles at exactly 0, pi/2, pi and 3 pi/2 or within 1e-15 of
    them: breakpoints land on exactly 0 or 2 pi beside arcs of zero width,
    where a skipped arc's count can run out of range.  The rows come as one
    batch and one at a time, so such a count also falls on a last row."""
    offsets = [0.0, 0.0, 2.2e-16, -2.2e-16, 4.4e-16, -4.4e-16, 1e-15, -1e-15]
    p = _axis_rows(rng.integers(0, 4, (12, 16)), rng.choice(offsets, (12, 16)))
    w = rng.random((12, 16))
    return [("boundary", p, w)] + [(f"boundary_row{i}", p[i : i + 1], w[i : i + 1]) for i in range(12)]


def _sweep_fuzz(count: int) -> list:
    """Seeded batches of random rows, integer grids, antipodal copies and
    axis angles moved by 0, +-1e-12 or 3e-9, with unit, random or partly
    zero weights."""
    rng = np.random.default_rng(15)
    out = []
    for t in range(count):
        r, m = int(rng.integers(1, 9)), int(rng.integers(1, 31))
        kind = ("random", "grid", "antipodal", "axes")[t % 4]
        if kind == "random":
            p = rng.standard_normal((r, m, 2))
        elif kind == "grid":
            p = rng.integers(-3, 4, (r, m, 2)).astype(float)
            p[(p == 0.0).all(axis=-1)] = [1.0, 0.0]
        elif kind == "antipodal":
            p = rng.standard_normal((r, m, 2))
            p[:, m // 2: 2 * (m // 2)] = -p[:, : m // 2]
        else:
            p = _axis_rows(rng.integers(0, 4, (r, m)), rng.choice([0.0, 1e-12, -1e-12, 3e-9], (r, m)))
        w = (np.ones((r, m)), rng.random((r, m)), rng.random((r, m)) * (rng.random((r, m)) < 0.5))
        out.append((f"fuzz{t}_{kind}", p / np.linalg.norm(p, axis=-1, keepdims=True), w[(t // 4) % 3]))
    return out


@pytest.mark.parametrize("gap", [1e-9, 2e-9, 4e-9])
def test_sweep_matches_stable_sort_bits(gap):
    # the half-turn sweep gives the full-turn referee's minimum, exactly on
    # integer units and within 1e-12 on weights, whose sums run in another
    # order; its witness angle attains that minimum (the witness clears
    # every point by more than 2 gap, so plain signs count the mass there)
    for name, p, w in _sweep_batches():
        val, phi = depthlab.depth._sweep(p, w, gap)
        want, _ = ref._sweep(p, w, gap)
        u = np.stack([np.cos(phi), np.sin(phi)], axis=1)
        at = ((np.einsum("rmk,rk->rm", p, u) >= 0.0) * w).sum(axis=1)
        counts = (w == np.round(w)).all(axis=1)
        assert np.array_equal(val[counts], want[counts]) and np.array_equal(at[counts], want[counts]), name
        assert np.abs(val - want).max() <= 1e-12 and np.abs(at - want).max() <= 1e-12, name


def _tied_batches() -> list:
    """Rows with many tied breakpoints, in integer units: integer grids
    (duplicates and antipodal pairs share a breakpoint) and axis angles,
    some with points replaced by a fill copy of the row's last point at
    unit 0, as the exact screens fill a parallel class.  Units of 1, small
    integers with zeros, or the units of Dirichlet weights (about 2^52)."""
    rng = np.random.default_rng(29)
    out = []
    for t in range(48):
        r, m = int(rng.integers(1, 7)), int(rng.integers(2, 90))
        if t % 4 == 3:
            p = _axis_rows(rng.integers(0, 4, (r, m)), np.zeros((r, m)))
        else:
            p = rng.integers(-3, 4, (r, m, 2)).astype(float)
            p[(p == 0.0).all(axis=-1)] = [1.0, 0.0]
        w = (np.ones((r, m)), rng.integers(0, 4, (r, m)).astype(float),
             depthlab.depth._units(rng.dirichlet(np.ones(m), r))[0])[t % 3]
        if t % 2:
            fill = rng.random((r, m)) < 0.3
            p = np.where(fill[..., None], p[:, -1:], p)
            w = np.where(fill, 0.0, w)
        out.append((f"tied{t}", p, w))
    return out


@pytest.mark.parametrize("gap", [1e-9, 2e-9])
def test_sweep_bits_do_not_depend_on_the_order_of_tied_breakpoints(gap):
    # a random permutation of a row's points reorders each group of tied
    # breakpoints in the sweep's unstable sort; on integer units every
    # prefix sum is exact, so the minimum and its angle keep their bits
    rng = np.random.default_rng(31)
    for name, p, w in _tied_batches():
        val, phi = depthlab.depth._sweep(p, w, gap)
        for _ in range(8):
            perm = np.argsort(rng.random(w.shape), axis=1)
            pv, pphi = depthlab.depth._sweep(np.take_along_axis(p, perm[..., None], axis=1),
                                             np.take_along_axis(w, perm, axis=1), gap)
            assert np.array_equal(pv, val) and np.array_equal(pphi, phi), name


def _same(a, b):
    return np.array_equal(a.point, b.point) and a.depth == b.depth and (
        a.candidates_evaluated == b.candidates_evaluated)


@pytest.mark.parametrize("d, n", [(2, 150), (3, 120), (3, 500), (4, 200)])
def test_multistart_median_matches_sequential_ascent(d, n):
    # (4, 200) is above the exact size cutoff, so its finals are certified floors
    m = generate_measure(MeasureSpec("simplex_mixture", d, n, {"sigma": 0.2}, seed=d))
    for seed in (0, 5):
        assert _same(tukey_median(m, mode="multistart", starts=6, iters=12, seed=seed),
                     ref.tukey_median(m, starts=6, iters=12, seed=seed))
        assert _same(balanced_median(m, starts=6, iters=12, seed=seed),
                     ref.balanced_median(m, starts=6, iters=12, seed=seed))


def test_medians_of_projections_match_one_at_a_time():
    # the median ascents of d = 3 projections of one measure in R^4 share
    # their start seeds, so they share each start's directions
    m = generate_measure(MeasureSpec("gaussian", 4, 150, {"scales": [1.0, 0.8, 0.5, 0.3]}, seed=3))
    projs = [project_measure(m, line(u)) for u in sample_directions(4, 4, seed=1)]
    stack = np.stack([p.points for p in projs])
    for r, p in zip(tukey_medians(stack, m.weights, starts=5, iters=10, seed=4), projs):
        assert _same(r, ref.tukey_median(p, starts=5, iters=10, seed=4))


@pytest.mark.parametrize("d", [2, 3])
def test_medians_of_differently_weighted_measures_match_one_at_a_time(d):
    # two measures share their points and differ only in their weights
    rng = np.random.default_rng(d)
    pts = [rng.standard_normal((60, d)) for _ in range(3)]
    ms = [make_measure(p, rng.random(60) ** 2) for p in (pts[0], pts[0], pts[1], pts[2])]
    ms.append(make_measure(pts[1]))
    got = tukey_medians(np.stack([m.points for m in ms]), np.stack([m.weights for m in ms]),
                        mode="multistart", starts=5, iters=10, seed=3)
    for r, m in zip(got, ms):
        assert _same(r, tukey_median(m, mode="multistart", starts=5, iters=10, seed=3))
        assert _same(r, ref.tukey_median(m, starts=5, iters=10, seed=3))


def _profile_directions():
    """The scan grid of a deep-line search, and the axis and diagonal
    directions, unit and not, whose complement rows hold entries of nearly
    equal magnitude, where the sign rule looks for the first largest."""
    grid = [canonical_direction(u) for u in sample_directions(3, 800, mode="grid")]
    ties = [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, -1.0, 1.0], [0.0, 0.0, -2.0]]
    return np.array(grid + ties + [np.array(u) / np.linalg.norm(u) for u in ties])


def test_batched_projections_match_one_direction_at_a_time(monkeypatch):
    # the stacked QR and matmul give each direction the bits of its own
    # project_measure(m, line(u)), and the stacked starts those of each
    # measure's own starts
    stacks = []

    def captured(points, weights, *args, **kwargs):
        stacks.append((points, weights))
        return tukey_medians(points, weights, *args, **kwargs)

    monkeypatch.setattr(depthlab.median, "tukey_medians", captured)
    m = generate_measure(MeasureSpec("simplex_mixture", 3, 160, {"sigma": 0.2}, seed=5))
    dirs = _profile_directions()
    direction_profiles(m, dirs, {"mode": "multistart", "starts": 2, "iters": 1, "seed": 0})
    (pts, w), = stacks
    assert pts.shape == (len(dirs), m.n, 2)
    for u, p, wk in zip(dirs, pts, np.broadcast_to(w, pts.shape[:2])):
        proj = project_measure(m, line(u))
        assert p.tobytes() == proj.points.tobytes() == ref.project_line(m, u).points.tobytes()
        assert wk.tobytes() == m.weights.tobytes()
    for starts in (1, 2, 4, 10, 24):
        x0 = _start_points(pts, np.broadcast_to(w, pts.shape[:2]), starts, 7)
        for u, xs in zip(dirs, x0):
            want = ref._start_points(ref.project_line(m, u), starts, 7)
            assert xs.tobytes() == np.array(want).tobytes(), (u, starts)


def test_sampled_ascent_draws_each_start_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return sample_directions(*args, **kwargs)

    monkeypatch.setattr(depthlab.median, "sample_directions", counted)
    monkeypatch.setattr(depthlab.depth, "sample_directions", counted)
    m = generate_measure(MeasureSpec("simplex_mixture", 3, 200, {"sigma": 0.2}, seed=1))
    r = tukey_median(m, mode="multistart", starts=10, iters=25, seed=1)
    assert r.candidates_evaluated > 100 and len(calls) == 10


@pytest.mark.parametrize("count", [1, 192, 512, 8192])
def test_sampled_depth_matches_single_product(count):
    # 19 of 20 weights 0.05 sum to 0.95 in a stack of direction rows and to
    # 0.9500000000000002 in a product with one row; seed 2's first direction
    # leaves out the point at e_3
    cases = [(make_measure(np.vstack([np.zeros((19, 3)), np.eye(3)[2]])), np.zeros(3))]
    for d, n in ((2, 60), (3, 200), (4, 90)):
        m = generate_measure(MeasureSpec("gaussian", d, n, {}, seed=d))
        cases += [(m, np.full(d, 0.1)), (m, m.points[3]), (m, m.points[3] + 5e-10)]  # within tol of a point
    for m, q in cases:
        for seed in (0, 2):
            a = point_depth(m, q, mode="sampled", sample_count=count, seed=seed)
            b = ref.sampled_depth(m, q, sample_count=count, seed=seed)
            assert a.depth == b.depth and np.array_equal(a.witness, b.witness), (m.dim, count, seed)


@pytest.mark.parametrize("d, n", [(2, 300), (3, 200), (4, 60)])
@pytest.mark.parametrize("gamma", [0.05, 0.1, 0.3])
def test_certified_floor_matches_large_chunks(d, n, gamma):
    rng = np.random.default_rng(d)
    pts = rng.standard_normal((n, d))
    for m in (make_measure(pts), make_measure(pts, rng.random(n) ** 2)):
        for q in (np.full(d, 0.05), m.points[0]):
            ref.assert_valid_floor(m, q, gamma)


def test_weighted_sampled_depth_in_plain_blocks():
    # 3 blocks of 543 directions (not a multiple of 16) and a one-row tail:
    # integer mass units give the bits of the referee's single product
    n = 241
    blocks = _row_blocks(3 * 543 + 1, n)
    assert [b.stop - b.start for b in blocks] == [543, 543, 543, 1]
    m = generate_measure(MeasureSpec("simplex_mixture", 4, n, {"sigma": 0.3}, seed=2))
    for m in (m, make_measure(m.points, np.random.default_rng(2).random(n) ** 2)):
        for q in (np.zeros(4), m.points[5]):
            a = point_depth(m, q, mode="sampled", sample_count=3 * 543 + 1, seed=1)
            b = ref.sampled_depth(m, q, sample_count=3 * 543 + 1, seed=1)
            assert a.depth == b.depth and np.array_equal(a.witness, b.witness)


def test_profiles_in_lockstep_match_one_at_a_time():
    m = generate_measure(MeasureSpec("gaussian", 3, 90, {"scales": [1.0, 0.6, 0.3]}, seed=8))
    dirs = sample_directions(3, 12, mode="grid")
    a, meds = direction_profiles(m, dirs, {"mode": "multistart", "starts": 5, "iters": 8, "seed": 2})
    for u, ai, med in zip(dirs, a, meds):
        r = ref.tukey_median(project_measure(m, line(u)), starts=5, iters=8, seed=2)
        assert ai == r.depth and np.array_equal(med, r.point)


def test_profiles_of_no_directions_are_empty(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("median search called")

    monkeypatch.setattr(depthlab.median, "tukey_medians", refused)
    for d in (2, 3, 4):
        m = generate_measure(MeasureSpec("gaussian", d, 30, {}, seed=d))
        for dirs in ([], np.empty((0, d))):
            a, meds = direction_profiles(m, dirs)
            assert a.shape == (0,) and meds.shape == (0, d - 1)


def test_profiles_refuse_one_direction_as_a_vector():
    # a bare IndexError before the shape was checked
    m = generate_measure(MeasureSpec("gaussian", 3, 30, {}, seed=3))
    with pytest.raises(ValueError, match=r"directions must have shape \(D, 3\), got \(3,\)"):
        direction_profiles(m, [1.0, 0.0, 0.0])


@pytest.mark.parametrize("dirs", [[[1.0, 0.0, 0.0, 0.0]], [[1.0, 0.0]]])
def test_profiles_refuse_directions_of_another_dimension(dirs):
    # numpy's matmul core-dimension ValueError before the shape was checked
    m = generate_measure(MeasureSpec("gaussian", 3, 30, {}, seed=3))
    with pytest.raises(ValueError, match=r"directions must have shape \(D, 3\)"):
        direction_profiles(m, dirs)


# deep_line_search(grid_count=60, refine_iters=2) on two theorem1 measures at
# n = 200: their directions, anchors (from the exact planar median of the
# final profile), depths (96/200 and 95/200) and evaluation counts
LINES = {
    0: (["0x1.f2a03928e0a5dp-2", "0x1.3d2f59d8155d3p-2", "0x1.a222222222222p-1"],
        ["0x1.ae775ef21fb53p-9", "-0x1.1775d69964fc6p-4", "0x1.87e630fb4e496p-6"],
        "0x1.eb851eb851eb8p-2", 115),
    6: (["0x1.22d658f2b5573p-1", "0x1.a55e9752a99b1p-1", "0x1.29de7b28a5239p-8"],
        ["0x1.039b59b4866dbp-8", "-0x1.61fea544ab0e8p-9", "-0x1.8c3a7d882e5c7p-8"],
        "0x1.e666666666666p-2", 115),
}


_THREADS_PROBE = """
from depthlab.depth import deep_line_search
from depthlab.measures import MeasureSpec, generate_measure
for kind, params in (("simplex_mixture", {"sigma": 0.2}), ("gaussian", {})):
    r = deep_line_search(generate_measure(MeasureSpec(kind, 3, 200, params, seed=3)),
                         grid_count=96, refine_iters=1, seed=3)
    print(r.direction.tobytes().hex(), r.anchor.tobytes().hex(), float(r.depth).hex(), r.iterations)
"""


def _outputs_at_one_and_two_threads(probe: str) -> list:
    """The standard output of the script ``probe`` at OPENBLAS_NUM_THREADS
    1 and 2, each in a fresh interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        r = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=300)
        assert r.returncode == 0, r.stderr
        outs.append(r.stdout)
    return outs


def test_deep_line_search_bits_do_not_depend_on_blas_threads():
    # the stacked QR, matmuls and sweeps give the same bytes at any BLAS
    # thread count
    outs = _outputs_at_one_and_two_threads(_THREADS_PROBE)
    assert outs[0] == outs[1] and len(outs[0].splitlines()) == 2


_WEIGHTED_PROBE = """
import numpy as np
from depthlab.central import _central_cones
from depthlab.depth import closed_mass_bounds, sampled_depth_values
from depthlab.geometry import SimplicialCone, sample_directions
from depthlab.measures import MeasureSpec, generate_measure, make_measure
from depthlab.median import min_normal_set
rng = np.random.default_rng(5)
for d, n in ((2, 241), (3, 151), (4, 397)):
    m = generate_measure(MeasureSpec("simplex_mixture", d, n, {"sigma": 0.3}, seed=d))
    m = make_measure(m.points, rng.random(n) ** 2)
    q = np.vstack([m.weights @ m.points, m.points[3], np.full(d, 0.05)])
    u = np.stack([sample_directions(d, 1001, seed=s, mode="sphere") for s in range(3)])
    vals, wits = sampled_depth_values(m.points[None], m.weights[None], [0, 0, 0], q, u)
    print(vals.tobytes().hex(), wits.tobytes().hex())
    print(closed_mass_bounds(m.points[None], m.weights[None])(np.zeros(3, dtype=int), q, u[:, :37]).tobytes().hex())
    if d == 3:
        print(min_normal_set(m, q[0]).normals.tobytes().hex())
        cones = [SimplicialCone(p, -np.eye(3)) for p in m.points[:6]]
        for a in _central_cones(m, cones, [1, 2, 3, 1, 2, 3], 999, 320):
            print(None if a is None else a.constraints.tobytes().hex())
"""


def test_weighted_bits_do_not_depend_on_blas_threads():
    # weighted mask products sum integer mass units, so the sampled depth
    # (1,001 directions, 543 rows a block at n = 241), the ascent's bound
    # (37 directions), the minimizing normals and the central-cone capture
    # (2,023 pool rows) give the same bytes at any BLAS thread count
    outs = _outputs_at_one_and_two_threads(_WEIGHTED_PROBE)
    assert outs[0] == outs[1] and len(outs[0].splitlines()) == 13


@pytest.mark.parametrize("i", sorted(LINES))
def test_deep_line_search_bits(i):
    spec = line_search_suite_specs(200)[i]
    r = deep_line_search(generate_measure(spec), grid_count=60, refine_iters=2, seed=spec.seed)
    direction, anchor, depth, iterations = LINES[i]
    assert [float(x).hex() for x in r.direction] == direction
    assert [float(x).hex() for x in r.anchor] == anchor
    assert float(r.depth).hex() == depth and r.iterations == iterations
