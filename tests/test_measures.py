import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthlab.cones import _tuple_hits
from depthlab.geometry import Flat, SimplicialCone, cone_contains_many, line, sample_directions
from depthlab.measures import (
    DiscreteMeasure,
    MeasureSpec,
    generate_measure,
    load_measure,
    make_measure,
    project_measure,
    save_measure,
    simplex_vertices,
)


def test_make_measure_normalizes():
    m = make_measure([[0, 0], [1, 0], [0, 1]], [1, 1, 1])
    assert np.allclose(m.weights, 1 / 3)


def test_make_measure_drops_zero_weight():
    m = make_measure([[0, 0], [1, 0], [0, 1]], [0, 2, 2])
    assert m.n == 2
    assert np.allclose(m.weights, 0.5)


def test_make_measure_rejects_negative():
    with pytest.raises(ValueError):
        make_measure([[0, 0], [1, 1]], [-1, 1])


def test_make_measure_rejects_empty():
    with pytest.raises(ValueError):
        make_measure(np.empty((0, 2)))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=10), min_size=2, max_size=8).filter(lambda w: sum(w) > 1e-6))
def test_make_measure_weight_sum_one(ws):
    pts = [[float(i), 0.0] for i in range(len(ws))]
    m = make_measure(pts, ws)
    assert m.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(m.weights > 0)


@pytest.mark.parametrize("w", [[1.0, float("nan"), 1.0], [1.0, float("inf"), 1.0], [1.0, -float("inf"), 1.0]])
def test_make_measure_rejects_non_finite_weights(w):
    # NaN > 0 is false, so an unchecked NaN weight would drop its point
    with pytest.raises(ValueError, match="non-finite weight"):
        make_measure([[0, 0], [1, 0], [0, 1]], w)


def test_measure_refuses_dimension_zero():
    with pytest.raises(ValueError, match="dim 0"):
        make_measure([])
    with pytest.raises(ValueError, match="dim 0"):
        DiscreteMeasure(0, np.empty((2, 0)), np.full(2, 0.5))


_P3 = [[1, 0], [-1, 0], [0, 1]]


@pytest.mark.parametrize(
    "params, field",
    [
        ({"points": []}, "params.points"),
        ({"points": "ab"}, "params.points"),
        ({"points": [[1, 0, 0], [0, 1, 0]]}, "params.points"),
        ({"points": [[1, 0], [0, float("inf")]]}, "params.points"),
        ({"points": [[1, 0], ["a", 1]]}, "params.points"),
        ({"points": None}, "params.points"),
        ({"points": _P3, "weights": [1, float("nan"), 1]}, "params.weights"),
        ({"points": _P3, "weights": [1, 1]}, "params.weights"),
        ({"points": _P3, "weights": [1, "abc", 1]}, "params.weights"),
        ({"points": _P3, "weights": [1, -1, 1]}, "params.weights"),
        ({"points": _P3, "weights": [0, 0.0, 0]}, "params.weights"),
        ({"points": _P3, "weights": 3}, "params.weights"),
    ],
)
def test_point_masses_spec_names_the_bad_field(params, field):
    with pytest.raises(ValueError, match=f"^{field}: "):
        MeasureSpec("point_masses", 2, 3, params)


def test_point_masses_spec_refuses_a_count_other_than_its_points():
    # n counts the listed points, zero weights included; a bad point is
    # named before the count
    with pytest.raises(ValueError, match="^n: 7, but params.points holds 3 points"):
        MeasureSpec("point_masses", 2, 7, {"points": [[1, 0], [0, 1], [1, 1]]})
    with pytest.raises(ValueError, match="^n: 1, "):
        MeasureSpec("point_masses", 2, params={"points": _P3})
    with pytest.raises(ValueError, match="^params.points: "):
        MeasureSpec("point_masses", 2, 7, {"points": [[1, 0], [0, float("inf")]]})
    assert generate_measure(MeasureSpec("point_masses", 2, 3, {"points": _P3, "weights": [0, 1, 1]})).n == 2


def test_point_masses_spec_takes_arrays_and_zero_weights():
    spec = MeasureSpec("point_masses", 2, 3, {"points": np.array(_P3), "weights": np.array([0.0, 1, 3])})
    m = generate_measure(spec)
    assert m.n == 2 and np.allclose(m.weights, [0.25, 0.75])


def test_simplex_mixture_cluster_masses():
    spec = MeasureSpec("simplex_mixture", 2, 300, {"sigma": 0.01}, seed=1)
    m = generate_measure(spec)
    verts = simplex_vertices(2)
    label = np.argmin(np.linalg.norm(m.points[:, None, :] - verts[None], axis=2), axis=1)
    for j in range(3):
        assert m.weights[label == j].sum() == pytest.approx(1 / 3, abs=0.1)


def test_uniform_ball_mean_near_origin():
    m = generate_measure(MeasureSpec("uniform_ball", 3, 2000, {}, seed=2))
    assert np.linalg.norm(m.weights @ m.points) < 0.1
    assert np.max(np.linalg.norm(m.points, axis=1)) <= 1 + 1e-12


def test_point_masses_echoes_make_measure():
    spec = MeasureSpec(
        "point_masses", 2, 2, {"points": [[1, 0], [0, 1]], "weights": [1, 3]}, seed=0
    )
    m = generate_measure(spec)
    assert np.allclose(m.weights, [0.25, 0.75])


@pytest.mark.parametrize("weighted", [False, True])
def test_unit_sums_are_the_product_with_the_units(weighted):
    rng = np.random.default_rng(11)
    n = 37
    m = make_measure(rng.standard_normal((n, 2)), rng.dirichlet(np.ones(n)) if weighted else None)
    assert (m.scale == n) != weighted
    masks = [
        rng.random(n) < 0.5,
        rng.random((5, n)) < 0.5,
        rng.random((3, 4, n)) < 0.5,
        (rng.random((n, 6)) < 0.5).T,  # transposed: the points' axis is strided
        (rng.random((4, n, 3)) < 0.5).transpose(0, 2, 1),
        (rng.random((7, 2 * n)) < 0.5)[:, ::2],
        np.ones((2, n), dtype=bool),
        np.zeros((0, n), dtype=bool),
    ]
    for hits in masks:
        got, want = m.unit_sums(hits), hits @ m.units
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got, dtype=float).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("n", [2**15 - 1, 2**15])
def test_uniform_unit_sums_count_every_point(n):
    m = make_measure(np.arange(n, dtype=float)[:, None])
    assert m.scale == n
    assert m.unit_sums(np.ones((2, n), dtype=bool)).tolist() == [n, n]
    assert m.unit_sums(np.ones((n, 3), dtype=bool).T).tolist() == [n] * 3


def test_generate_measure_pure_function_of_spec():
    spec = MeasureSpec("gaussian", 3, 50, {"sigma": 2.0}, seed=9)
    a, b = generate_measure(spec), generate_measure(spec)
    assert np.array_equal(a.points, b.points) and np.array_equal(a.weights, b.weights)


def test_generate_measure_unknown_kind():
    with pytest.raises(ValueError, match="unknown measure kind"):
        MeasureSpec("nope", 2, 10)


def test_generate_measure_bad_sigma():
    with pytest.raises(ValueError, match="sigma"):
        MeasureSpec("gaussian", 2, 10, {"sigma": -1.0})


def test_project_measure_drops_z():
    m = make_measure([[1, 2, 3], [4, 5, 6]], [0.25, 0.75])
    p = project_measure(m, line([0, 0, 1]))
    assert p.dim == 2
    assert np.array_equal(p.weights, m.weights)
    assert np.allclose(np.sort(np.abs(p.points[0])), [1, 2])
    assert p.weights.sum() == pytest.approx(1.0)


def test_project_measure_composition_matches_direct():
    # projecting along a 2-flat equals projecting along a line inside it and
    # then along the image of the other direction, up to an isometry of the
    # 1-d image coordinates
    rng = np.random.default_rng(4)
    m = make_measure(rng.standard_normal((40, 3)))
    b1 = np.array([1.0, 0, 0])
    b2 = np.array([0, 1.0, 0])
    alpha = Flat(np.zeros(3), np.stack([b1, b2]))
    direct = project_measure(m, alpha)

    beta = Flat(np.zeros(3), b1[None])
    from depthlab.geometry import complement_basis

    c_beta = complement_basis(beta)
    mid = project_measure(m, beta)
    ell = c_beta @ b2
    final = project_measure(mid, line(ell))
    c_line = complement_basis(line(ell))
    c_alpha = complement_basis(alpha)
    o = c_line @ c_beta @ c_alpha.T  # 1x1 isometry aligning the two routes
    assert abs(abs(o[0, 0]) - 1) < 1e-10
    assert np.allclose(final.points, direct.points @ o.T, atol=1e-8)


def _normals_at(degrees):
    ang = np.deg2rad(degrees)
    return np.column_stack([np.cos(ang), np.sin(ang)])


def test_cone_mass_triangle(triangle):
    # a cone's mass counts the units of the points in it: the symmetric
    # tuple's cones each hold one vertex, and turned by 60 degrees its cones
    # hold none while each of its half-spaces holds one vertex
    weights, inside = _tuple_hits(triangle, np.stack([_normals_at([90, 210, 330]), _normals_at([150, 270, 30])]))
    assert weights.tolist() == [1 - 2 / 3, 1 - 1 / 3]
    assert (inside @ triangle.units / triangle.scale).tolist() == [[1 / 3] * 3, [0.0] * 3]
    top = SimplicialCone([[-np.cos(np.pi / 6), -0.5], [np.cos(np.pi / 6), -0.5]])
    assert inside[0, 0].tolist() == cone_contains_many(top, triangle.points).tolist() == [True, False, False]


def test_cone_partition_of_generating_tuple():
    rng = np.random.default_rng(5)
    m = make_measure(rng.standard_normal((200, 2)))
    normals = _normals_at([90, 210, 330])
    cones = [SimplicialCone(np.delete(normals, i, 0)) for i in range(3)]
    _, inside = _tuple_hits(m, normals[None])
    masses = inside[0] @ m.units / m.scale
    total = masses.sum()
    assert total <= 1 + 1e-12
    covered = np.zeros(m.n, dtype=bool)
    for c, mask in zip(cones, inside[0]):
        assert np.array_equal(mask, cone_contains_many(c, m.points))
        covered |= mask
    assert 1 - total == pytest.approx(float(m.weights[~covered].sum()), abs=1e-12)


def test_measure_io_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    m = make_measure(rng.standard_normal((100, 3)), rng.random(100) + 0.1)
    path = tmp_path / "m.json"
    save_measure(m, path)
    m2 = load_measure(path)
    assert np.max(np.abs(m.points - m2.points)) <= 1e-15
    assert np.max(np.abs(m.weights - m2.weights)) <= 1e-15


def test_measure_io_bad_weight_sum(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 2, "points": [[0,0],[1,1]], "weights": [0.25, 0.25]}')
    with pytest.raises(ValueError, match="0.5"):
        load_measure(path)


def test_measure_io_bad_point_dim(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 3, "points": [[0,0,0],[1,1]], "weights": [0.5, 0.5]}')
    with pytest.raises(ValueError, match="index 1"):
        load_measure(path)


def test_measure_io_malformed(tmp_path):
    path = tmp_path / "bad.json"
    cases = [('{"dim": 2, "points": [[0,0]', "line"), ('{"dim": 2, "points": 5}', "points"),
             ('{"dim": 2, "points": [[1, 2], 3]}', "index 1"), ('{"dim": 2.5, "points": [[1, 2]]}', "dim"),
             ('{"dim": true, "points": [[1]]}', "dim"), ('{"dim": "two", "points": [[1, 2]]}', "dim")]
    for text, field in cases:
        path.write_text(text)
        with pytest.raises(ValueError, match=field):
            load_measure(path)
