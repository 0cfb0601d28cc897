import numpy as np
import pytest

import ascent_referee as ref
from depthlab.central import containment_check
from depthlab.geometry import DEFAULT_TOL, cone_contains_many, hull_interior_margin
from depthlab.measures import MeasureSpec, generate_measure, make_measure
from depthlab.median import recenter, witness_tuple
from depthlab.cones import (
    GeneratingTuple,
    MatchingError,
    _tuple_hits,
    bmes_report,
    canonical_labeling,
    cones_of,
    epsilon_bmes_max,
    epsilon_match_max,
    family_level_cap,
    family_member_order,
    is_generating,
    match_tuples,
    tuple_masses,
    tuple_weight,
)
from depthlab.suites import _small_rotation


def normals_at(degrees):
    ang = np.deg2rad(degrees)
    return np.column_stack([np.cos(ang), np.sin(ang)])


@pytest.fixture
def tri_tuple():
    return GeneratingTuple(normals_at([90, 210, 330]))


@pytest.fixture
def mixture_with_witness():
    spec = MeasureSpec("simplex_mixture", 2, 240, {"sigma": 0.02}, 5)
    m = generate_measure(spec)
    mc, _ = recenter(m, balanced=True, starts=8, iters=20, seed=5)
    tup, _ = witness_tuple(mc, np.zeros(2), seed=5)
    return mc, tup


def test_is_generating_examples():
    ok, margin = is_generating(normals_at([90, 210, 330]))
    assert ok and margin == pytest.approx(1 / 3, abs=1e-12)
    ok, _ = is_generating(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]))
    assert not ok  # intersection is the ray {x=0, y<=0}
    ok, _ = is_generating(normals_at([10, 40, 80]))
    assert not ok  # all normals in an open half-plane
    ok, margin = is_generating(np.array([[1.0, 0.0], [2.0, 0.0], [0.5, 0.0]]))
    assert not ok and margin == 0.0  # one direction: a singular system


@pytest.mark.parametrize("row", [[0.0, 0.0], [np.nan, 1.0], [np.inf, 0.0]])
def test_is_generating_refuses_zero_and_non_finite_normals(row):
    normals = normals_at([90, 210, 330])
    normals[1] = row
    with pytest.raises(ValueError, match="normal 1"):
        is_generating(normals)


def test_generating_tuple_validation():
    with pytest.raises(ValueError, match="not generating"):
        GeneratingTuple(normals_at([10, 40, 80]))


def test_cones_of_triangle(tri_tuple):
    cones = cones_of(tri_tuple).cones
    # three 60-degree cones with pairwise disjoint interiors; cone i points
    # along +n_i for the symmetric tuple, and never contains -n_i
    for i, c in enumerate(cones):
        assert cone_contains_many(c, tri_tuple.normals[i][None] * 2.0)[0]
        assert not cone_contains_many(c, -tri_tuple.normals[i][None] * 2.0)[0]
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((2000, 2))
    inside = np.stack([
        np.all(pts @ c.normals.T < -1e-9, axis=1) for c in cones
    ])
    assert inside.sum(axis=0).max() <= 1
    # covered exactly d times: a point is in some cone iff it sits in >= d
    # of the d+1 half-spaces
    in_halves = (pts @ tri_tuple.normals.T <= 1e-9).sum(axis=1)
    in_cone = np.zeros(pts.shape[0], dtype=bool)
    for c in cones:
        in_cone |= cone_contains_many(c, pts)
    assert np.array_equal(in_cone, in_halves >= 2)


def test_cones_of_refuses_a_flat_generating_tuple():
    # four normals within 1e-11 of one great circle of S^2 generate (hull
    # margin 0.20), but every cone's normals have |det| of about 2e-11
    ang = np.deg2rad([0, 80, 190, 280])
    tup = GeneratingTuple(np.column_stack([np.cos(ang), np.sin(ang), [1e-11, -1e-11, 1e-11, -1e-11]]))
    assert is_generating(tup.normals)[1] > 0.2
    with pytest.raises(ValueError, match="linearly dependent"):
        cones_of(tup)


def test_cones_of_bijective(tri_tuple):
    other = GeneratingTuple(normals_at([95, 210, 330]))
    ca = np.stack([c.normals for c in cones_of(tri_tuple).cones])
    cb = np.stack([c.normals for c in cones_of(other).cones])
    assert not np.allclose(ca, cb)


def test_tuple_weight_examples(triangle, tri_tuple):
    # the triangle witness tuple: each half-space has mass 2/3
    tup, _ = witness_tuple(triangle, [0, 0])
    assert tuple_weight(triangle, tup) == pytest.approx(1 / 3, abs=1e-9)
    m_all = make_measure([[0.0, 0.0]])  # on every boundary: all masses are 1
    t = GeneratingTuple(normals_at([90, 210, 330]))
    assert tuple_weight(m_all, t) == pytest.approx(0.0, abs=1e-12)
    rng = np.random.default_rng(1)
    m = make_measure(rng.standard_normal((50, 2)))
    assert 0.0 <= tuple_weight(m, t) <= 1.0


def test_bmes_report_triangle(triangle):
    tup, _ = witness_tuple(triangle, [0, 0])
    eps = 1 / 15
    rep = bmes_report(triangle, tup, eps)
    assert rep.sum_ok and rep.bounds_ok
    assert rep.cone_masses.sum() == pytest.approx(1.0, abs=1e-9)
    assert rep.sum_bound == pytest.approx(1 - 3 * eps)
    assert rep.lower == pytest.approx(1 / 3 - 5 * eps)
    assert rep.upper == pytest.approx(1 / 3 + eps)


def test_bmes_epsilon_precondition(triangle):
    tup, _ = witness_tuple(triangle, [0, 0])
    with pytest.raises(ValueError, match="eps"):
        bmes_report(triangle, tup, 0.2)  # above 1/15 for d=2


def test_bmes_weight_precondition(tri_tuple):
    # a measure concentrated in one cone makes the weight large
    m = make_measure([[0.0, -3.0], [0.1, -3.0], [-0.1, -2.5]])
    with pytest.raises(ValueError, match="weight"):
        bmes_report(m, tri_tuple, epsilon_bmes_max(2))


def test_match_identity(mixture_with_witness):
    mc, tup = mixture_with_witness
    rep = match_tuples(mc, tup, tup, eps=epsilon_match_max(2))
    assert np.array_equal(rep.permutation, np.arange(3))
    diag = rep.intersection_masses[np.arange(3), rep.permutation]
    cm = [mc.units[cone_contains_many(b, mc.points)].sum() / mc.scale for b in cones_of(tup).cones]
    assert np.allclose(diag, cm, atol=1e-12)


def test_match_rotated(mixture_with_witness):
    mc, tup = mixture_with_witness
    eps = epsilon_match_max(2)
    t2 = tup.rotated(_small_rotation(2, np.deg2rad(3), 42))
    rep = match_tuples(mc, tup, t2, eps=eps)
    assert np.array_equal(rep.permutation, np.arange(3))
    diag = rep.intersection_masses[np.arange(3), rep.permutation]
    assert np.all(diag > 1 / 3 - 8 * eps)
    off = rep.intersection_masses.copy()
    off[np.arange(3), rep.permutation] = 0
    assert off.max() <= 1e-6


def test_match_weight_precondition(tri_tuple):
    m = make_measure([[0.0, -3.0], [0.0, -2.0]])  # weight far above the cap
    with pytest.raises(ValueError, match="weight"):
        match_tuples(m, tri_tuple, tri_tuple, eps=epsilon_match_max(2))


@pytest.mark.parametrize("masses, sigma", [
    ([[0.0, 0.3, 0.0], [0.0, 0.0, 0.3], [0.3, 0.0, 0.0]], [1, 2, 0]),
    ([[0.0, 0.3, 0.0], [0.0, 0.0, 0.3], [0.3, 0.0, 1e-3]], None),  # an extra edge
    ([[0.0, 0.3, 0.0], [0.0, 0.0, 0.0], [0.3, 0.0, 0.3]], None),  # a row with no edge
    ([[0.3, 0.0, 0.0], [0.3, 0.0, 0.0], [0.0, 0.0, 0.3]], None),  # two rows on one column
])
def test_match_needs_permutation_of_edges(monkeypatch, tri_tuple, masses, sigma):
    import depthlab.cones as cones

    monkeypatch.setattr(cones, "_pair_masses", lambda m, A, B: np.array(masses))
    at_apex = make_measure([[0.0, 0.0]])  # in every closed half-space: tuple weight 0
    if sigma is None:
        with pytest.raises(MatchingError):
            match_tuples(at_apex, tri_tuple, tri_tuple, eps=epsilon_match_max(2))
    else:
        rep = match_tuples(at_apex, tri_tuple, tri_tuple, eps=epsilon_match_max(2))
        assert rep.permutation.tolist() == sigma


def test_match_shuffled_recovers_permutation(mixture_with_witness):
    mc, tup = mixture_with_witness
    perm = np.array([2, 0, 1])
    t2 = tup.reordered(perm)
    rep = match_tuples(mc, tup, t2, eps=epsilon_match_max(2))
    # cone i of tup equals cone perm^-1... verify via definition instead:
    # reordered tuple's cone j is tup's cone perm[j], so sigma must satisfy
    # sigma[perm[j]] = j
    for j in range(3):
        assert rep.permutation[perm[j]] == j


def test_interior_simplex_property(tri_tuple):
    rng = np.random.default_rng(3)
    cones = cones_of(tri_tuple).cones
    for _ in range(200):
        pts = []
        for c in cones:
            # random point strictly inside the cone: positive combination of
            # its generating rays
            rays = -np.linalg.inv(c.normals)
            lam = rng.random(2) + 0.05
            pts.append(rays @ lam)
        margin = hull_interior_margin(np.stack(pts))
        assert margin > 0


def test_match_transitivity(mixture_with_witness):
    mc, tup = mixture_with_witness
    eps = epsilon_match_max(2)
    tb = tup.rotated(_small_rotation(2, np.deg2rad(2), 7))
    tc = tup.rotated(_small_rotation(2, np.deg2rad(4), 8))
    sab = match_tuples(mc, tup, tb, eps=eps).permutation
    sbc = match_tuples(mc, tb, tc, eps=eps).permutation
    sac = match_tuples(mc, tup, tc, eps=eps).permutation
    assert np.array_equal(sac, sbc[sab])


def test_family_member_order_permuted_reference(mixture_with_witness):
    mc, tup = mixture_with_witness
    ref = canonical_labeling(tup)
    assert np.array_equal(canonical_labeling(ref).normals, ref.normals)  # idempotent
    assert np.array_equal(family_member_order(mc, ref, ref), np.arange(3))
    # a permuted reference is labelled by the inverse permutation
    perm = np.array([2, 0, 1])
    order = family_member_order(mc, ref, ref.reordered(perm))
    assert np.array_equal(order, np.argsort(perm))
    assert np.array_equal(ref.reordered(perm).reordered(order).normals, ref.normals)
    # small rotations of the witness tuple are labelled too
    for deg, seed in ((2, 1), (4, 2)):
        assert family_member_order(mc, ref, tup.rotated(_small_rotation(2, np.deg2rad(deg), seed))) is not None


def test_family_member_order_over_weight(mixture_with_witness):
    mc, tup = mixture_with_witness
    # shift mass toward one cluster so the tuple weight exceeds the level cap
    labels = np.arange(mc.n) % 3
    w2 = mc.weights * (1 + 0.3 * (labels == 0))
    m2 = make_measure(mc.points, w2)
    assert tuple_weight(m2, tup) > family_level_cap(2)
    assert family_member_order(m2, tup, tup) is None
    assert family_member_order(mc, tup, tup) is not None


def test_family_order_stability_under_reweighting(mixture_with_witness):
    # reweighting within half the level gap keeps every matching identical
    mc, tup = mixture_with_witness
    a = 1 / 3 + 0.5 / 81
    a1 = (a + 1 / 3 + 1 / 81) / 2
    ref = canonical_labeling(tup)
    rng = np.random.default_rng(12)
    delta = (a1 - a) / 2
    bump = rng.random(mc.n)
    w2 = mc.weights * (1 - delta) + delta * bump / bump.sum()
    m2 = make_measure(mc.points, w2)
    for t in (tup, tup.rotated(_small_rotation(2, np.deg2rad(2), 11))):
        order = family_member_order(mc, ref, t)
        assert order is not None
        assert np.array_equal(order, family_member_order(m2, ref, t))


def test_family_limit_closure(mixture_with_witness):
    # shrinking rotations converge to the reference; the limit's matching is
    # the eventual constant matching of the sequence
    mc, tup = mixture_with_witness
    eps = epsilon_match_max(2)
    perms = []
    for k in range(1, 6):
        tk = tup.rotated(_small_rotation(2, np.deg2rad(3.0 / k), 21))
        perms.append(match_tuples(mc, tup, tk, eps=eps).permutation)
    limit = match_tuples(mc, tup, tup, eps=eps).permutation
    for p in perms:
        assert np.array_equal(p, limit)


def _one_half_space_at_a_time(m, normals):
    """(weight, cone masks, cone masses) of one tuple, counted one closed
    origin half-space at a time (points within ``DEFAULT_TOL`` of its
    boundary count) in the measure's mass units, built with exact
    rationals; a cone's points are those in every half-space but the one
    it drops."""
    units, scale = ref.mass_units(m.weights)

    def count(mask):
        return sum(int(u) for u in units[mask]) / scale

    halves = [m.points @ nrm <= DEFAULT_TOL for nrm in normals]
    masks = [np.logical_and.reduce([h for j, h in enumerate(halves) if j != i]) for i in range(len(halves))]
    return 1.0 - min(count(h) for h in halves), masks, [count(c) for c in masks]


@pytest.mark.parametrize("weighted", [False, True])
def test_cone_layer_masses_are_exact_unit_counts(mixture_with_witness, weighted):
    # every mass of the cone layer is a count of the measure's mass units
    # (built with exact rationals) over their sum, one rounding in all: a
    # sum of raw weights misses that value in the last bits for most masks
    mc, tup = mixture_with_witness
    rng = np.random.default_rng(7)
    if weighted:  # within the level gap, so the tuples still match
        bump = rng.random(mc.n)
        mc = make_measure(mc.points, mc.weights * 0.99 + 0.01 * bump / bump.sum())
    units, scale = ref.mass_units(mc.weights)

    def count(mask):
        return sum(int(u) for u in units[mask]) / scale

    g = rng.standard_normal((200, 3, 2))
    stack = np.concatenate([tup.normals[None], g / np.linalg.norm(g, axis=2)[..., None]])
    weights, inside = _tuple_hits(mc, stack)
    for nrm, w, masks in zip(stack, weights, inside, strict=True):
        want_w, want_masks, want_masses = _one_half_space_at_a_time(mc, nrm)
        assert w == want_w and np.array_equal(masks, want_masks)
        assert (masks @ mc.units / mc.scale).tolist() == want_masses
    assert tuple_weight(mc, tup) == weights[0]
    inside = [cone_contains_many(b, mc.points) for b in cones_of(tup).cones]
    t2 = tup.rotated(_small_rotation(2, np.deg2rad(3), 42))
    inside2 = [cone_contains_many(b, mc.points) for b in cones_of(t2).cones]
    rep = match_tuples(mc, tup, t2, eps=epsilon_match_max(2))
    assert rep.intersection_masses.tolist() == [[count(a & b) for b in inside2] for a in inside]


def _degenerate_grid(d: int, weighted: bool):
    """(measure, tuple) on integer points: the tuple's hyperplanes pass
    through many of them, the origin is a data point, a few points are
    repeated, and each of the tuple's cones holds one share of the mass (so
    its weight is small enough for the cone-mass bounds)."""
    if d == 2:
        t = GeneratingTuple(np.array([[0.0, 1.0], [1.0, -1.0], [-1.0, -1.0]]))
    else:
        t = GeneratingTuple(np.vstack([np.eye(3), -np.ones((1, 3))]))
    grid = np.stack(np.meshgrid(*[np.arange(-3.0, 4.0)] * d, indexing="ij"), axis=-1).reshape(-1, d)
    _, masks, _ = _one_half_space_at_a_time(make_measure(grid), t.normals)
    share = min(int(c.sum()) for c in masks) - 1  # points of each cone but the origin
    pts = [np.zeros((1, d))] + [grid[c & grid.any(axis=1)][:share] for c in masks]
    pts = np.vstack(pts + [p[:2] for p in pts[1:]])  # two repeats per cone
    w = np.random.default_rng(d).random(len(pts)) + 0.5 if weighted else None
    return make_measure(pts, w), t


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("d", [2, 3])
def test_membership_rule_counts_one_half_space_at_a_time(d, weighted):
    # the stacked rule's weights, cone masks and cone masses, and the masses
    # of tuple_weight, tuple_masses and bmes_report, are the referee's
    # counts bit for bit, on integer points lying on the tuple's
    # hyperplanes, repeated points and a point at the origin
    m, t = _degenerate_grid(d, weighted)
    on_plane = np.abs(m.points @ t.normals.T) <= DEFAULT_TOL
    assert (on_plane.sum(axis=0) > 2).all() and not m.points[0].any()
    rng = np.random.default_rng(d)
    turns = [t.rotated(_small_rotation(d, np.deg2rad(deg), k)).normals for k, deg in enumerate((1, 5, 20))]
    g = rng.standard_normal((20, d + 1, d))
    stack = np.concatenate([t.normals[None], np.stack(turns), g / np.linalg.norm(g, axis=2)[..., None]])
    weights, inside = _tuple_hits(m, stack)
    for nrm, w, masks in zip(stack, weights, inside, strict=True):
        want_w, want_masks, want_masses = _one_half_space_at_a_time(m, nrm)
        assert w == want_w and np.array_equal(masks, want_masks)
        assert (masks @ m.units / m.scale).tolist() == want_masses
    want_w, want_masks, want_masses = _one_half_space_at_a_time(m, t.normals)
    assert tuple_weight(m, t) == want_w < 1 / (d + 1) + epsilon_bmes_max(d)
    assert np.array_equal(tuple_masses(m, t).inside, want_masks)
    assert bmes_report(m, t, epsilon_bmes_max(d)).cone_masses.tolist() == want_masses


def test_cone_layer_refuses_tuples_of_another_dimension(mixture_with_witness):
    # a 3-D tuple or cone on a 2-D measure: one ValueError naming both
    # dimensions, from either argument of match_tuples
    mc, tup = mixture_with_witness
    t3 = GeneratingTuple(np.vstack([np.eye(3), -np.ones((1, 3))]))
    b2, b3 = cones_of(tup).cones[0], cones_of(t3).cones[0]
    calls = [
        lambda: match_tuples(mc, tup, t3, eps=epsilon_match_max(2)),
        lambda: match_tuples(mc, t3, tup, eps=epsilon_match_max(2)),
        lambda: tuple_weight(mc, t3),
        lambda: bmes_report(mc, t3, epsilon_bmes_max(3)),
        lambda: containment_check(mc, b3, b2),
        lambda: containment_check(mc, b2, b3),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="of dimension 3 on a measure of dimension 2"):
            call()
