import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthlab.geometry import (
    SimplicialCone,
    canonical_direction,
    complement_basis,
    cone_contains_many,
    hull_interior_margin,
    line,
    sample_directions,
    unit,
)
from depthlab.depth import _cap_samples

finite = st.floats(min_value=-100, max_value=100, allow_nan=False)


def vec(dim):
    return st.lists(finite, min_size=dim, max_size=dim).map(np.array)


@settings(max_examples=60, deadline=None)
@given(vec(3))
def test_projection_pythagoras(x):
    f = line([0.6, 0.8, 0.0])
    par = f.basis @ x
    perp = complement_basis(f) @ x
    assert np.isclose(x @ x, par @ par + perp @ perp, atol=1e-8)


def test_complement_basis_deterministic():
    f = line([1, 2, 2])
    b1 = complement_basis(f)
    b2 = complement_basis(line([1, 2, 2]))
    assert np.array_equal(b1, b2)
    assert np.allclose(b1 @ b1.T, np.eye(2), atol=1e-12)
    assert np.allclose(b1 @ f.basis.T, 0, atol=1e-12)


def quadrant():
    return SimplicialCone([[-1, 0], [0, -1]])


def test_cone_contains_examples():
    b = quadrant()
    assert cone_contains_many(b, np.array([[1.0, 1.0]]))[0]
    assert not cone_contains_many(b, np.array([[-1.0, 0.5]]))[0]
    assert cone_contains_many(b, np.array([[0.0, 0.0]]))[0]  # the origin belongs to the closed cone


def test_cone_requires_independent_normals():
    with pytest.raises(ValueError):
        SimplicialCone([[1, 0], [-1, 0]])
    with pytest.raises(ValueError, match="d x d"):
        SimplicialCone([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def test_sample_directions_grid_2d_angles():
    d = sample_directions(2, 4, mode="grid")
    ang = np.mod(np.degrees(np.arctan2(d[:, 1], d[:, 0])), 180.0)
    assert np.allclose(np.sort(ang), [0, 45, 90, 135], atol=1e-9)


def test_sample_directions_norms_and_determinism():
    a = sample_directions(3, 1000, seed=7)
    b = sample_directions(3, 1000, seed=7)
    assert np.array_equal(a, b)
    assert np.max(np.abs(np.linalg.norm(a, axis=1) - 1)) <= 1e-12


def test_sample_directions_prefix_stable():
    a = sample_directions(3, 100, seed=3)
    b = sample_directions(3, 1000, seed=3)
    assert np.array_equal(a, b[:100])


def test_sample_directions_grid_gap_shrinks():
    probe = sample_directions(3, 4096, seed=0)
    gaps = []
    for count in (10, 100, 1000):
        g = sample_directions(3, count, mode="grid")
        cosm = probe @ g.T
        gaps.append(float(np.arccos(np.clip(cosm.max(axis=1), -1, 1)).max()))
    assert gaps[0] > gaps[1] > gaps[2]
    g = sample_directions(3, 100, mode="grid")
    pair_cos = g @ g.T - 2 * np.eye(100)
    assert np.arccos(np.clip(pair_cos.max(), -1, 1)) > 0  # pairwise min angle > 0


def test_sample_directions_validation():
    with pytest.raises(ValueError):
        sample_directions(3, 0)
    with pytest.raises(ValueError):
        sample_directions(3, 10, mode="nope")


def test_grid_mode_ignores_seed():
    a = sample_directions(3, 64, seed=1, mode="grid")
    b = sample_directions(3, 64, seed=999, mode="grid")
    assert np.array_equal(a, b)


@settings(max_examples=60, deadline=None)
@given(vec(3).filter(lambda v: np.linalg.norm(v) > 1e-6))
def test_canonical_direction_idempotent_and_antipodal(v):
    c1 = canonical_direction(v)
    c2 = canonical_direction(-v)
    assert np.allclose(c1, c2, atol=1e-12)
    assert np.allclose(canonical_direction(c1), c1, atol=1e-12)


def _canonical_one(v):
    """The one-row rule written out: ``unit`` of v, signed so that its first
    coordinate above 1e-13 in magnitude is positive."""
    u = unit(v)
    return u if u[np.abs(u) > 1e-13][0] > 0 else -u


def test_stacked_canonical_direction_matches_one_row_at_a_time():
    # grids row-major and Fortran-ordered, cap samples, leading coordinates
    # within 1e-13 of 0 and negative leading coordinates: each row of the
    # stack has the bytes of the one-row rule, and of canonical_direction
    # of the row alone
    rng = np.random.default_rng(0)
    near = rng.standard_normal((50, 4))
    near[:, 0] = rng.uniform(-1e-13, 1e-13, 50)
    near[:10, 1] = rng.uniform(-1e-13, 1e-13, 10)
    stacks = [sample_directions(d, 300, mode="grid") for d in range(2, 6)]
    stacks += [np.asfortranarray(v) for v in stacks]
    stacks += [_cap_samples(unit(np.ones(4)), 0.3, 24, 5), near, -np.abs(rng.standard_normal((20, 3)))]
    for v in stacks:
        want = np.array([_canonical_one(r) for r in v])
        assert canonical_direction(v).tobytes() == want.tobytes()
        assert all(canonical_direction(r).tobytes() == w.tobytes() for r, w in zip(v, want))
    for bad in ([[1.0, 2.0], [0.0, 0.0]], [[1.0, np.nan]], [[np.inf, 0.0]], [0.0, 0.0, 0.0]):
        with pytest.raises(ValueError):
            canonical_direction(np.array(bad))


def test_grid_directions_are_row_major():
    for d in range(1, 7):
        assert sample_directions(d, 50, mode="grid").flags.c_contiguous


def test_cone_interiors_of_tuple_disjoint():
    # three half-planes at 90/210/330 degrees: cone interiors are disjoint
    ang = np.deg2rad([90, 210, 330])
    normals = np.column_stack([np.cos(ang), np.sin(ang)])
    cones = [
        SimplicialCone(np.delete(normals, i, axis=0)) for i in range(3)
    ]
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((10_000, 2))
    strict = np.stack(
        [np.all(pts @ c.normals.T < -1e-9, axis=1) for c in cones]
    )
    assert int(strict.sum(axis=0).max()) <= 1


def test_hull_interior_margin():
    ang = np.deg2rad([90, 210, 330])
    normals = np.column_stack([np.cos(ang), np.sin(ang)])
    assert hull_interior_margin(normals) == pytest.approx(1 / 3, abs=1e-12)
    degenerate = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    assert hull_interior_margin(degenerate) <= 1e-12
    # the origin outside the hull: the least coordinate, not 0.0
    assert hull_interior_margin(np.array([[1, 0.1], [1, -0.1], [2, 0]])) == -1.0


@pytest.mark.parametrize("d", [2, 3])
def test_stacked_hull_interior_margin_matches_each_solve(d):
    # a stack is one solve, each margin with the bits of its array's own
    # solve; a stack holding a singular array (d + 1 equal rows) is solved
    # array by array, and that array gets 0.0
    rng = np.random.default_rng(d)
    stack = rng.standard_normal((40, d + 1, d))
    stack[3] = rng.standard_normal(d)
    own = [hull_interior_margin(v) for v in stack]
    assert own[3] == 0.0 and sum(x > 0 for x in own) > 2
    for part in (stack, np.delete(stack, 3, axis=0), stack[3:4]):
        got = hull_interior_margin(part)
        assert got.shape == (len(part),) and got.dtype == np.float64
    assert hull_interior_margin(stack).tolist() == own
    assert hull_interior_margin(np.delete(stack, 3, axis=0)).tolist() == own[:3] + own[4:]
    assert hull_interior_margin(stack[3:4]).tolist() == [0.0]
    with pytest.raises(ValueError, match="d\\+1, d"):
        hull_interior_margin(stack[:, :d])


def test_unit_rejects_zero():
    with pytest.raises(ValueError):
        unit([0.0, 0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_simplicial_cone_refuses_non_finite_normals(bad):
    # a NaN row would make every membership test False; refused by its row
    # before the determinant, so numpy warns nothing
    with pytest.raises(ValueError, match="normal 0 is zero or not finite"):
        SimplicialCone([[bad, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="normal 2 is zero or not finite"):
        SimplicialCone([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, bad, 1.0]])
    with pytest.raises(ValueError, match="normal 1 is zero or not finite"):
        SimplicialCone([[1.0, 0.0], [0.0, 0.0]])
