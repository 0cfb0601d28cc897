"""The one-stage certified floor, the least ring bracket: bit for bit the
brute-force count of its definition on uniform measures and the float32
full-net sweep of ``ascent_referee`` on every measure, at any BLAS thread
count.  Also the ring table, the covering range of gamma, and a floor that
takes no blocked product."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ascent_referee as ref
import depthlab.depth
from depthlab.depth import certified_depth_floor, point_depth
from depthlab.measures import MeasureSpec, generate_measure, make_measure
from depthlab.median import tukey_median

GAMMAS = [0.05, 0.1, 0.3, np.pi / 2]


def _full_net(d: int, gamma: float) -> np.ndarray:
    """The whole net, built as the full sweep builds it."""
    step = 2.0 * gamma / (d - 1)
    polar = np.arange(0.0, np.pi + step, step)
    grid = np.meshgrid(*[polar] * (d - 2), np.arange(0.0, 2.0 * np.pi + step, step), indexing="ij")
    net = np.empty((grid[0].size, d))
    scale = 1.0
    for k, ang in enumerate(grid):
        net[:, k] = scale * np.cos(ang).ravel()
        scale = scale * np.sin(ang).ravel()
    net[:, -1] = scale
    return net


@st.composite
def floor_instances(draw):
    """Integer-grid measures in d = 2, 3, 4 with duplicates, points whose
    last two coordinates are the query's (B = 0 on every ring), weights
    uniform or not, and a query on a data point, on the grid or outside the
    hull."""
    d = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(1, 20))
    coord = st.integers(-4, 4)
    pts = np.array(draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=n, max_size=n)), dtype=float)
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        pts[i] = pts[j]
    where = draw(st.sampled_from(["point", "grid", "outside"]))
    if where == "point":
        q = pts[draw(st.integers(0, n - 1))].copy()
    elif where == "grid":
        q = np.array(draw(st.lists(coord, min_size=d, max_size=d)), dtype=float)
    else:
        q = pts.max(axis=0) + draw(st.integers(1, 3))
    if draw(st.booleans()):
        pts[: draw(st.integers(1, n)), -2:] = q[-2:]
    weights = None
    if draw(st.booleans()):
        weights = np.array(draw(st.lists(st.integers(1, 9), min_size=n, max_size=n)), dtype=float)
    return make_measure(pts, weights), q, draw(st.sampled_from(GAMMAS))


def _angles(d: int, gamma: float):
    step = 2.0 * gamma / (d - 1)
    return step, np.arange(0.0, np.pi + step, step), np.arange(0.0, 2.0 * np.pi + step, step)


def _definition_floor(m, q, gamma: float) -> float:
    """The floor by its definition: over the whole net in float64, the least
    count of the points p = x - q with <u0, p> >= sin(gamma) |p| + 1.1e-5
    (|p| + 1), over n (a uniform measure), in chunks of 16,384 rows."""
    p = m.points - q
    norms = np.linalg.norm(p, axis=1)
    t = np.sin(gamma) * norms + 1e-5 * (norms + 1.0) + 1e-6 * (norms + 1.0)
    net = _full_net(m.dim, gamma)
    return min((net[lo : lo + 16384] @ p.T >= t).sum(axis=1).min() for lo in range(0, len(net), 16384)) / m.n


@settings(max_examples=80, deadline=None)
@given(floor_instances())
def test_floor_matches_full_sweep(inst):
    ref.assert_valid_floor(*inst)


@settings(max_examples=60, deadline=None)
@given(floor_instances())
def test_floor_is_its_definition_on_uniform_measures(inst):
    m, q, gamma = inst
    m = make_measure(m.points)
    assert certified_depth_floor(m, q, gamma) == _definition_floor(m, q, gamma)


@pytest.mark.parametrize("d, gamma", [(2, 0.3), (3, 0.1), (3, np.pi / 2), (4, 0.1), (4, 0.3)])
def test_brackets_count_every_point_past_threshold(d, gamma):
    # off ties with t, each ring's arcs count exactly the points whose
    # float64 value on the row clears t, polar angles past pi, the last
    # azimuth past a full turn and B = 0 included
    step, polar, azimuth = _angles(d, gamma)
    rings = depthlab.depth._net_rows(polar, d)
    full = _full_net(d, gamma)
    # each ring's row is the whole net's row at azimuth 0, but for the sign of its 0
    assert rings[:, :-1].tobytes() == full[:: azimuth.size, :-1].tobytes()
    assert np.array_equal(rings, full[:: azimuth.size])
    rng = np.random.default_rng(d)
    p = rng.standard_normal((60, d))
    p[:4, -2:] = 0.0
    w = rng.random(60)
    w /= w.sum()
    t = 0.2 * np.linalg.norm(p, axis=1) - 0.1
    got = depthlab.depth._ring_brackets(p, w, rings, step, azimuth.size, t)
    want = (full @ p.T >= t) @ w
    assert np.abs(got - want).max() < 1e-12


def test_brackets_stay_below_float32_masses_at_the_margin(monkeypatch):
    # 60 points a hair (1e-12 |p|) past the margin of one net row: float64
    # counts all of them, float32 rounding drops some; the bracket must not
    # count them (delta), or it would exceed that row's mass
    d, gamma = 3, 0.1
    full = _full_net(d, gamma)
    row = 20 * _angles(d, gamma)[2].size + 30
    u0 = full[row]
    rng = np.random.default_rng(5)
    e = rng.standard_normal((60, d))
    e -= (e @ u0)[:, None] * u0
    e /= np.linalg.norm(e, axis=1)[:, None]
    r = np.linspace(0.5, 3.0, 60)
    a = np.sin(gamma) * r + 1e-5 * (r + 1.0) + 1e-12 * r
    m = make_measure(a[:, None] * u0 + np.sqrt(r**2 - a**2)[:, None] * e)
    brackets = []
    real = depthlab.depth._ring_brackets
    monkeypatch.setattr(depthlab.depth, "_ring_brackets", lambda *args: brackets.append(real(*args)) or brackets[-1])
    q = np.zeros(d)
    assert certified_depth_floor(m, q, gamma) == ref.certified_depth_floor(m, q, gamma)
    norms = np.linalg.norm(m.points, axis=1)
    margin32 = (np.sin(gamma) * norms + 1e-5 * (norms + 1.0)).astype(np.float32)
    count = (full.astype(np.float32) @ m.points.astype(np.float32).T >= margin32).sum(axis=1)
    assert 0 < count[row] < m.n  # float32 splits the 60 points
    assert np.all(brackets[0] <= count)  # the measure is uniform: brackets count points


def test_floor_with_every_point_at_query_is_zero():
    # no point passes the margin on any row: every bracket is 0, weighted
    # or not
    q = np.array([1.0, -2.0, 0.5])
    m = make_measure(np.tile(q, (6, 1)), np.arange(1.0, 7.0))
    assert certified_depth_floor(m, q, 0.1) == ref.certified_depth_floor(m, q, 0.1) == 0.0


def test_floor_prunes_rado_median(monkeypatch):
    # a rado instance in d = 4 at n = 500 at its median: the floor is the
    # least ring bracket, with no product over net rows in _row_blocks
    m = generate_measure(MeasureSpec("gaussian", 4, 500, {"sigma": 1.0}, 0))
    x = tukey_median(m, mode="multistart", starts=10, iters=25, seed=0).point
    rows = []
    real = depthlab.depth._row_blocks
    monkeypatch.setattr(depthlab.depth, "_row_blocks", lambda r, n: rows.append(r) or real(r, n))
    assert certified_depth_floor(m, x, 0.1) == ref.certified_depth_floor(m, x, 0.1)
    assert len(_full_net(4, 0.1)) == 230_496
    assert rows == []


_THREADS_PROBE = """
import numpy as np
from depthlab.depth import certified_depth_floor
from depthlab.measures import MeasureSpec, generate_measure, make_measure
m = generate_measure(MeasureSpec("simplex_mixture", 4, 400, {"sigma": 0.3}, seed=1))
m = make_measure(m.points, np.random.default_rng(1).random(m.n) ** 2)
for q in (m.weights @ m.points, m.points[3], np.full(4, 0.05)):
    print(certified_depth_floor(m, q, 0.1).hex(), certified_depth_floor(m, q, 0.3).hex())
"""


def test_weighted_floor_bits_do_not_depend_on_blas_threads():
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        r = subprocess.run([sys.executable, "-c", _THREADS_PROBE], capture_output=True, text=True,
                           env=env, timeout=300)
        assert r.returncode == 0, r.stderr
        outs.append(r.stdout)
    assert outs[0] == outs[1] and len(outs[0].splitlines()) == 3


@pytest.mark.parametrize("gamma", [-0.1, 0.0, 3.0, np.pi / 2 + 1e-9, float("nan")])
def test_floor_rejects_gamma_outside_covering_range(gamma):
    # the covering argument needs 0 < gamma <= pi / 2: unchecked, gamma =
    # -0.1 gave inf and gamma = 3.0 a floor above the exact depth
    m = make_measure(np.random.default_rng(0).standard_normal((50, 3)))
    with pytest.raises(ValueError, match="gamma"):
        certified_depth_floor(m, np.zeros(3), gamma)


def test_floor_at_widest_gamma_below_exact():
    m = make_measure(np.random.default_rng(0).standard_normal((50, 3)))
    assert certified_depth_floor(m, np.zeros(3), np.pi / 2) <= point_depth(m, np.zeros(3)).depth


def test_floor_refuses_a_query_of_another_dimension():
    m = make_measure(np.random.default_rng(0).standard_normal((50, 2)))
    with pytest.raises(ValueError, match="query dim 3 != measure dim 2"):
        certified_depth_floor(m, np.zeros(3))
