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
    exact_depth_values,
    point_depth,
)
from depthlab.geometry import canonical_direction, line, sample_directions
from depthlab.measures import DiscreteMeasure, MeasureSpec, generate_measure, make_measure, project_measure
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
    # one stack per weighting: each case's points and their mirror image,
    # with its own weights and with uniform ones, each query asked of both
    cases = _planar_cases()
    cases += [(name + "_uniform", make_measure(m.points), qs) for name, m, qs in cases]
    flip = np.array([-1.0, 1.0])
    for name, m, qs in cases:
        images = np.stack([m.points, m.points * flip])
        which = np.arange(2 * len(qs)) % 2
        q = np.repeat(np.asarray(qs, dtype=float), 2, axis=0) * np.where(which[:, None] == 1, flip, 1.0)
        vals, dirs = exact_depth_values(images, m, which, q)
        for r, (k, qi) in enumerate(zip(which, q)):
            val, u = ref.exact_depth_value_2d(DiscreteMeasure(2, images[k], m.weights), qi)
            assert vals[r] == val and np.array_equal(dirs[r], u), (name, r)
        if name.startswith("all_at_query"):
            assert (vals == 1.0).all()  # every point at the query


def test_batched_planar_depth_across_blocks():
    m = generate_measure(MeasureSpec("gaussian", 2, 300, {}, seed=4))
    q = np.vstack([m.points[:60], np.random.default_rng(1).standard_normal((60, 2))])
    assert len(q) * m.n > 2 * _CHUNK
    vals, dirs = exact_depth_values(m.points[None], m, np.zeros(len(q), dtype=int), q)
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
        val, phi = depthlab.depth._sweep(p[..., 0], p[..., 1], w, gap)
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
             np.stack([ref.mass_units(x)[0] for x in rng.dirichlet(np.ones(m), r)]))[t % 3]
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
        val, phi = depthlab.depth._sweep(p[..., 0], p[..., 1], w, gap)
        for _ in range(8):
            perm = np.argsort(rng.random(w.shape), axis=1)
            x, y = (np.take_along_axis(p[..., i], perm, axis=1) for i in (0, 1))
            pv, pphi = depthlab.depth._sweep(x, y, np.take_along_axis(w, perm, axis=1), gap)
            assert np.array_equal(pv, val) and np.array_equal(pphi, phi), name


def test_resorted_row_rebuilds_its_narrow_arcs():
    # two exits 3 ulps apart share their packed sort key above the 2 index
    # bits, the later one first in index order, so the row is sorted again;
    # an entry 1e-10 later ends the arc after the pair, and 4 gap is that
    # arc's width from the later exit, below its width from the earlier
    # one.  The arc holds the least mass, 1 of 5, but is narrow once the
    # row is in order: the sweep skips it, as it does in the row with the
    # pair swapped, which needs no second sort, and returns 2
    def at(angle):
        return np.cos(angle), np.sin(angle)

    x, y = at(1.1 - 0.5 * np.pi)
    pts = np.array([(x, y - 6 * np.spacing(y)), (x, y + 7 * np.spacing(y)),
                    at(1.1 + 1e-10 + 0.5 * np.pi), at(2.0 - 0.5 * np.pi)])
    w = np.array([1.0, 1.0, 2.0, 1.0])
    b = np.arctan2(pts[:, 1], pts[:, 0]) + 0.5 * np.pi
    b -= np.pi * (b >= np.pi)
    assert b[0] > b[1] and (b[:2].view(np.uint64) >> 2)[0] == (b[:2].view(np.uint64) >> 2)[1]
    gap = (b[2] - b[0]) / 4.0
    assert b[2] - b[0] <= 4.0 * gap < b[2] - b[1]
    got = [depthlab.depth._sweep(p[None, :, 0], p[None, :, 1], w, gap) for p in (pts, pts[[1, 0, 2, 3]])]
    assert got[0][0].tolist() == [2.0]
    assert got[0][0].tobytes() == got[1][0].tobytes() and got[0][1].tobytes() == got[1][1].tobytes()


def _packed_key_batches() -> list:
    """(name, vectors, units) batches for the sweep's packed sort keys,
    whose low bits hold a point's index, so breakpoints within those bits
    of each other come out in index order.  Groups shuffled in index
    order: collinear points at
    the multiples 1, 3, 5, 7, 11 and 13 of a direction, whose breakpoints
    differ by an ulp or two; points at angles 2^-49 apart, a few ulps to
    some tens (more than 3,000 such near-ties in all); points at 1, 2, 4
    and 8 times one (exact ties) and duplicates; one and two points a row;
    and one row of 4,200 points, so the index takes 13 bits of the key.
    Each with units of 1 and with small integer units, zeros among them."""
    rng = np.random.default_rng(41)

    def shuffled(p):
        return np.take_along_axis(p, np.argsort(rng.random(p.shape[:2]), axis=1)[..., None], axis=1)

    def groups(r, g, mult):
        v = rng.standard_normal((r, g, 1, 2)) * np.asarray(mult, dtype=float)[:, None]
        return shuffled(v.reshape(r, -1, 2))

    def fans(r, g, k):
        a = rng.uniform(-np.pi, np.pi, (r, g, 1)) + 2.0**-49 * np.arange(k)
        return shuffled(np.stack([np.cos(a), np.sin(a)], axis=-1).reshape(r, -1, 2))

    near, exact = (1, 3, 5, 7, 11, 13), (1, 2, 4, 8, 1, 2)
    mixed = np.concatenate([groups(6, 20, near), fans(6, 20, 6), groups(6, 10, exact)], axis=1)
    mixed[:, ::7] = mixed[:, 1::7]  # duplicates beside the near-ties
    long = np.concatenate([groups(1, 300, near), fans(1, 300, 6), groups(1, 100, exact)], axis=1)
    rows = [("multiples", groups(24, 10, near)), ("fans", fans(24, 10, 6)), ("exact_ties", groups(12, 10, exact)),
            ("mixed", shuffled(mixed)), ("m1", rng.standard_normal((5, 1, 2))), ("m2", groups(8, 1, (1, 3))),
            ("m2_fan", fans(8, 1, 2)), ("m2_tied", groups(4, 1, (1, 2))), ("long", shuffled(long))]
    b = [np.sort(np.mod(np.arctan2(p[..., 1], p[..., 0]) + 0.5 * np.pi, np.pi), axis=1) for _, p in rows]
    assert sum(((d > 0.0) & (d < 1e-13)).sum() for d in (np.diff(x, axis=1) for x in b)) > 3000
    return [(name + tag, p, w) for name, p in rows
            for tag, w in (("", np.ones(p.shape[:2])), ("_small", rng.integers(0, 3, p.shape[:2]).astype(float)))]


def _integer_unit_batches() -> list:
    """Every batch of ``_packed_key_batches``, ``_sweep_batches`` (the
    boundary batches and the fuzz among them) and ``_tied_batches`` under
    integer units: its own units where they are integers, else small
    integers from them, zeros among them, and their mass units (about
    2^52)."""
    out = []
    for name, p, w in _packed_key_batches() + _sweep_batches() + _tied_batches():
        if (w == np.round(w)).all():
            out.append((name, p, w))
        else:
            out += [(name + "_small", p, np.floor(4.0 * w)),
                    (name + "_units", p, np.stack([ref.mass_units(x)[0] for x in w]))]
    return out


@pytest.mark.parametrize("gap", [1e-9, 2e-9, 4e-9])
def test_sweep_on_planes_gives_the_interleaved_sweep_bits(gap):
    # on integer units, the sweep over coordinate planes (strided views or
    # contiguous copies, units per row or shared) gives the value and angle
    # of the interleaved argsort sweep that wrote out the antipodal arcs,
    # bit for bit, also where its packed sort keys leave near-ties in index
    # order
    for name, p, w in _integer_unit_batches():
        planes = [(p[..., 0], p[..., 1]), (np.ascontiguousarray(p[..., 0]), np.ascontiguousarray(p[..., 1]))]
        for units in (w, w[0]):
            want = ref.half_turn_sweep(p, units, gap)
            for x, y in planes:
                got = depthlab.depth._sweep(x, y, units, gap)
                assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want)), name


def _layout_cases():
    """(name, measure, queries) in d = 1, 2 and 3: the planar cases and
    measures on a line and in space, with queries on a data point and with
    every point at the query."""
    rng = np.random.default_rng(3)
    out = list(_planar_cases())
    for d in (1, 3):
        pts = rng.standard_normal((30, d))
        pts[5:9] = pts[4]
        out += [(f"d{d}", make_measure(pts, rng.random(30)), [pts[4], np.zeros(d), pts[0] + 1e-10]),
                (f"d{d}_all_at_query", make_measure(np.tile(pts[0], (6, 1))), [pts[0]])]
    return out


def test_exact_depth_values_read_either_layout():
    # one stack stored point-major and coordinate-major (a transposed view
    # of contiguous coordinate planes) gives the same bytes
    for name, m, qs in _layout_cases():
        images = np.stack([m.points, -m.points])
        planes = images.transpose(0, 2, 1).copy().transpose(0, 2, 1)
        q = np.asarray(qs, dtype=float)
        q, which = np.vstack([q, -q]), np.repeat([0, 1], len(q))
        got = [exact_depth_values(stack, m, which, q) for stack in (images, planes)]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(*got)), name
        if name.endswith("all_at_query"):
            assert (got[0][0] == 1.0).all()


def _same(a, b):
    # the point, both ends of the depth bracket and its witness, bit for bit
    x, y = a.bracket, b.bracket
    return np.array_equal(a.point, b.point) and (x.lower, x.upper) == (y.lower, y.upper) and (
        x.witness.tobytes() == y.witness.tobytes() and a.candidates_evaluated == b.candidates_evaluated)


@pytest.mark.parametrize("d, n", [(2, 150), (3, 120), (3, 500), (4, 333)])
def test_multistart_median_matches_sequential_ascent(d, n):
    # (4, 333) is above the exact budget, so its finals are certified floors
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
    for r, p in zip(tukey_medians(stack, m, starts=5, iters=10, seed=4), projs):
        assert _same(r, ref.tukey_median(p, starts=5, iters=10, seed=4))


@pytest.mark.parametrize("d", [2, 3])
def test_medians_of_differently_weighted_measures_match_one_at_a_time(d):
    # one stack per weighting: the same three point sets under four random
    # weightings and the uniform one, each stack stepping in lockstep
    rng = np.random.default_rng(d)
    pts = np.stack([rng.standard_normal((60, d)) for _ in range(3)])
    for w in [rng.random(60) ** 2 for _ in range(4)] + [None]:
        base = make_measure(pts[0], w)
        got = tukey_medians(pts, base, mode="multistart", starts=5, iters=10, seed=3)
        for r, p in zip(got, pts):
            m = DiscreteMeasure(d, p, base.weights)
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
    # project_measure(m, line(u)) whatever the directions' memory layout
    # (the grids of R^4 and R^5 as returned and as Fortran-ordered copies),
    # and the stacked starts those of each measure's own starts
    stacks = []

    def captured(points, measure, *args, **kwargs):
        stacks.append((points, measure))
        return tukey_medians(points, measure, *args, **kwargs)

    monkeypatch.setattr(depthlab.median, "tukey_medians", captured)
    cases = [(generate_measure(MeasureSpec("simplex_mixture", 3, 160, {"sigma": 0.2}, seed=5)), _profile_directions())]
    for d in (4, 5):
        m = generate_measure(MeasureSpec("simplex_mixture", d, 40, {"sigma": 0.2}, seed=d))
        grid = sample_directions(d, 300, mode="grid")
        cases += [(m, grid), (m, np.asfortranarray(grid))]
    for m, dirs in cases:
        direction_profiles(m, dirs, {"mode": "multistart", "starts": 2, "iters": 1, "seed": 0})
        pts, measure = stacks[-1]
        assert pts.shape == (len(dirs), m.n, m.dim - 1) and measure is m
        for u, p in zip(dirs, pts):
            proj = project_measure(m, line(u))
            assert p.tobytes() == proj.points.tobytes() == ref.project_line(m, u).points.tobytes(), (m.dim, u)
    assert len(stacks) == len(cases)
    (m, dirs), (pts, _) = cases[0], stacks[0]
    for starts in (1, 2, 4, 10, 24):
        x0 = _start_points(pts, m, starts, 7)
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
            assert a.upper == b.upper and np.array_equal(a.witness, b.witness), (m.dim, count, seed)


@pytest.mark.parametrize("d, n", [(2, 300), (3, 200), (4, 60)])
@pytest.mark.parametrize("gamma", [0.05, 0.1, 0.3])
def test_certified_floor_matches_large_chunks(d, n, gamma):
    rng = np.random.default_rng(d)
    pts = rng.standard_normal((n, d))
    for m in (make_measure(pts), make_measure(pts, rng.random(n) ** 2)):
        for q in (np.full(d, 0.05), m.points[0]):
            ref.assert_valid_floor(m, q, gamma)


@pytest.mark.parametrize("ring_entries", [None, 1])
def test_certified_floor_matches_large_chunks_at_the_median_workload_shape(monkeypatch, ring_entries):
    # d = 4 at gamma 0.1 has 2,401 rings: 36 blocks of 65 at n = 500 and a
    # partial one of 61, or (forced) one ring per block
    m = generate_measure(MeasureSpec("gaussian", 4, 500, {}, seed=4))
    if ring_entries is None:
        assert 2401 % (depthlab.depth._RING_ENTRIES // m.n) != 0
    else:
        monkeypatch.setattr(depthlab.depth, "_RING_ENTRIES", ring_entries)
    ref.assert_valid_floor(m, np.median(m.points, axis=0) + 0.01, 0.1)


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
            assert a.upper == b.upper and np.array_equal(a.witness, b.witness)


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
from depthlab.geometry import SimplicialCone, random_rotation, sample_directions
from depthlab.measures import MeasureSpec, generate_measure, make_measure
from depthlab.median import min_normal_set
rng = np.random.default_rng(5)
for d, n in ((2, 241), (3, 151), (4, 397)):
    m = generate_measure(MeasureSpec("simplex_mixture", d, n, {"sigma": 0.3}, seed=d))
    m = make_measure(m.points, rng.random(n) ** 2)
    q = np.vstack([m.weights @ m.points, m.points[3], np.full(d, 0.05)])
    u = np.stack([sample_directions(d, 1001, seed=s, mode="sphere") for s in range(3)])
    vals, wits = sampled_depth_values(m.points[None], m, [0, 0, 0], q, u)
    print(vals.tobytes().hex(), wits.tobytes().hex())
    print(closed_mass_bounds(m.points[None], m)(np.zeros(3, dtype=int), q, u[:, :37]).tobytes().hex())
    if d == 3:
        print(min_normal_set(m, q[0]).normals.tobytes().hex())
        cones = [SimplicialCone(-random_rotation(3, s)) for s in range(6)]
        for a in _central_cones(m, cones, [1, 2, 3, 1, 2, 3], 999):
            print(None if a is None else a.constraints.tobytes().hex())
"""


def test_weighted_bits_do_not_depend_on_blas_threads():
    # weighted mask products sum integer mass units, so the sampled depth
    # (1,001 directions, 543 rows a block at n = 241), the ascent's bound
    # (37 directions), the minimizing normals and the central-cone capture
    # (2,023 pool rows) give the same bytes at any BLAS thread count
    outs = _outputs_at_one_and_two_threads(_WEIGHTED_PROBE)
    assert outs[0] == outs[1] and len(outs[0].splitlines()) == 13


_EXACT_PROBE = """
import numpy as np
from depthlab.depth import exact_depth_values
from depthlab.measures import MeasureSpec, generate_measure, make_measure
rng = np.random.default_rng(6)
for d, n in ((3, 241), (3, 500), (4, 120)):
    uniform = generate_measure(MeasureSpec("simplex_mixture", d, n, {"sigma": 0.3}, seed=d + n))
    for m in (uniform, make_measure(uniform.points, rng.random(n) ** 2)):
        q = np.vstack([m.points[5], np.full(d, 0.05), m.weights @ m.points])
        vals, dirs = exact_depth_values(m.points[None], m, np.zeros(3, dtype=int), q)
        print(vals.tobytes().hex(), dirs.tobytes().hex())
"""


def test_exact_kernel_bits_do_not_depend_on_blas_threads():
    # the reflection-row products of the exact kernel in d = 3 and 4 give
    # the same values and witnesses at any BLAS thread count, uniform and
    # weighted, at a data point, a generic point and the weighted mean
    outs = _outputs_at_one_and_two_threads(_EXACT_PROBE)
    assert outs[0] == outs[1] and len(outs[0].splitlines()) == 6


# seeded searches in R^4 (n = 120, seed 2, 40 grid directions, one refine
# step): direction, anchor, depth and evaluations
LINES_R4 = {
    "gaussian": (["0x1.e36508077adf9p-2", "-0x1.b567cd318cec0p-1", "0x1.6b237bf36a4c4p-3", "-0x1.0205f36935816p-3"],
                 ["0x1.89dffcd87ea38p-9", "0x1.caf3dfde232b8p-5", "0x1.2180eaabf5c42p-3", "-0x1.5b85704ccdc6ep-3"],
                 "0x1.bbbbbbbbbbbbcp-2", 71),
    "simplex_mixture": (["0x1.718c619472198p-4", "-0x1.565818d00e0eap-1", "0x1.8a0d5d50cdf06p-2", "0x1.427a17ee35a2ep-1"],
                        ["0x1.c75807f481018p-4", "-0x1.e57fe4e2c89a4p-6", "-0x1.5238a4b4df270p-9", "-0x1.773e02b131c30p-5"],
                        "0x1.8888888888889p-2", 71),
}


@pytest.mark.parametrize("kind", sorted(LINES_R4))
def test_deep_line_search_bits_in_r4(kind):
    params = {"sigma": 0.2} if kind == "simplex_mixture" else {}
    r = deep_line_search(generate_measure(MeasureSpec(kind, 4, 120, params, seed=2)), grid_count=40, refine_iters=1, seed=2)
    direction, anchor, depth, iterations = LINES_R4[kind]
    assert [float(x).hex() for x in r.direction] == direction
    assert [float(x).hex() for x in r.anchor] == anchor
    assert float(r.depth).hex() == depth and r.iterations == iterations


@pytest.mark.parametrize("i", sorted(LINES))
def test_deep_line_search_bits(i):
    spec = line_search_suite_specs(200)[i]
    r = deep_line_search(generate_measure(spec), grid_count=60, refine_iters=2, seed=spec.seed)
    direction, anchor, depth, iterations = LINES[i]
    assert [float(x).hex() for x in r.direction] == direction
    assert [float(x).hex() for x in r.anchor] == anchor
    assert float(r.depth).hex() == depth and r.iterations == iterations
