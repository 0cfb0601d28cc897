"""The lockstep median ascent, the batched planar and sampled evaluators and
the blocked certified floor give the same bits as the single-query referee
in ``ascent_referee``."""

import numpy as np
import pytest

import ascent_referee as ref
import depthlab.depth
import depthlab.median
from depthlab.depth import (
    _CHUNK,
    _row_blocks,
    certified_depth_floor,
    deep_line_search,
    direction_profiles,
    exact_depth_values_2d,
    point_depth,
)
from depthlab.geometry import line, sample_directions
from depthlab.measures import MeasureSpec, generate_measure, make_measure, project_measure
from depthlab.median import balanced_median, tukey_median, tukey_medians
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
    return [
        ("general", make_measure(general, weights[0]), [Q, [0.0, 0.0], [5.0, 5.0]]),
        ("on_point", make_measure(general, weights[0]), list(general)),
        ("crowd", make_measure(crowd, weights[1]), [Q, crowd[np.argmin(at)]]),
        ("all_at_query", make_measure(np.tile(Q, (40, 1)), weights[2]), [Q]),
        ("collinear", make_measure(line_pts, weights[3]), [Q, line_pts[2], Q + [0.15, 0.05]]),
    ]


def test_batched_planar_depth_matches_single_query_bits():
    cases = _planar_cases()
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
    """(name, phat, weights) batches of several rows for the planar sweep,
    each row of unit vectors."""
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
        ("grid", rows(grid[rng.integers(0, len(grid), (10, 70))]), rng.random((10, 70))),
        ("axes", axes[rng.integers(0, len(axes), (10, 25))], rng.random((10, 25))),
        ("tiny_y", rows(tiny), rng.random((6, 40))),
        ("zero_weights", rows(rng.standard_normal((7, 60, 2))), zero_w),
        ("m1", rows(rng.standard_normal((5, 1, 2))), rng.random((5, 1))),
        ("m2", rows(pair), pair_w),
        ("partial_ties", partial, rng.random((9, 30))),
        ("two_pi_breakpoint", turn, np.tile([0.5, 0.25, 0.125], (2, 1))),
    ]


@pytest.mark.parametrize("gap", [1e-9, 2e-9, 4e-9])
def test_sweep_matches_stable_sort_bits(gap):
    # the unstable sort with a stable pass for tied rows, the in-place angle
    # wraps and the one-sided search give the bits of the stable sweep
    for name, phat, w in _sweep_batches():
        val, phi = depthlab.depth._sweep(phat, w, gap)
        want_val, want_phi = ref._sweep(phat, w, gap)
        assert val.tobytes() == want_val.tobytes(), name
        assert phi.tobytes() == want_phi.tobytes(), name


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
    for r, p in zip(tukey_medians(projs, starts=5, iters=10, seed=4), projs):
        assert _same(r, ref.tukey_median(p, starts=5, iters=10, seed=4))


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
        cases += [(m, np.full(d, 0.1)), (m, m.points[3])]
    for m, q in cases:
        for seed in (0, 2):
            a = point_depth(m, q, mode="sampled", sample_count=count, seed=seed)
            b = ref.sampled_depth(m, q, sample_count=count, seed=seed)
            assert a.depth == b.depth and np.array_equal(a.witness, b.witness), (m.dim, count, seed)


def _net_rows(d: int, gamma: float) -> int:
    step = 2.0 * gamma / (d - 1)
    return len(np.arange(0.0, np.pi + step, step)) ** (d - 2) * len(np.arange(0.0, 2.0 * np.pi + step, step))


@pytest.mark.parametrize("d, n", [(2, 300), (3, 200), (4, 60)])
@pytest.mark.parametrize("gamma", [0.05, 0.1, 0.3])
def test_certified_floor_matches_large_chunks(d, n, gamma):
    rng = np.random.default_rng(d)
    pts = rng.standard_normal((n, d))
    for m in (make_measure(pts), make_measure(pts, rng.random(n) ** 2)):
        for q in (np.full(d, 0.05), m.points[0]):
            assert certified_depth_floor(m, q, gamma) == ref.certified_depth_floor(m, q, gamma)


def test_certified_floor_one_row_tail():
    d, n, gamma = 4, 241, 0.2
    blocks = _row_blocks(_net_rows(d, gamma), n)
    assert len(blocks) > 2 and blocks[-1].stop - blocks[-1].start == blocks[0].stop + 1
    m = generate_measure(MeasureSpec("simplex_mixture", d, n, {"sigma": 0.3}, seed=2))
    for q in (np.zeros(d), m.points[5]):
        assert certified_depth_floor(m, q, gamma) == ref.certified_depth_floor(m, q, gamma)


def test_profiles_in_lockstep_match_one_at_a_time():
    m = generate_measure(MeasureSpec("gaussian", 3, 90, {"scales": [1.0, 0.6, 0.3]}, seed=8))
    dirs = sample_directions(3, 12, mode="grid")
    a, meds = direction_profiles(m, dirs, {"starts": 5, "iters": 8, "seed": 2})
    for u, ai, med in zip(dirs, a, meds):
        r = ref.tukey_median(project_measure(m, line(u)), starts=5, iters=8, seed=2)
        assert ai == r.depth and np.array_equal(med, r.point)


# deep_line_search(grid_count=60, refine_iters=2) on two theorem1 measures at
# n = 200, as the one-direction-at-a-time search returned them
LINES = {
    0: (["0x1.720745120b687p-2", "0x1.31bc633806170p-2", "0x1.c444444444444p-1"],
        ["0x1.3a5b2fb4e0c16p-6", "-0x1.e958ebbc919acp-5", "0x1.9469142cb5723p-7"],
        "0x1.eb851eb851ebep-2", 115),
    6: (["0x1.22d658f2b5573p-1", "0x1.a55e9752a99b1p-1", "0x1.29de7b28a5239p-8"],
        ["0x1.64f0a3bf85f85p-9", "-0x1.e74d1056a8bbap-10", "-0x1.ebd7c81ceed04p-9"],
        "0x1.e66666666666ap-2", 115),
}


@pytest.mark.parametrize("i", sorted(LINES))
def test_deep_line_search_bits(i):
    spec = line_search_suite_specs(200)[i]
    r = deep_line_search(generate_measure(spec), grid_count=60, refine_iters=2, seed=spec.seed)
    direction, anchor, depth, iterations = LINES[i]
    assert [float(x).hex() for x in r.direction] == direction
    assert [float(x).hex() for x in r.anchor] == anchor
    assert float(r.depth).hex() == depth and r.iterations == iterations
