import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ascent_referee as ref
import central_referee as referee
from depthlab.geometry import DEFAULT_TOL, SimplicialCone, cone_contains_many, random_rotation, sample_directions, unit
from depthlab.measures import MeasureSpec, generate_measure, make_measure
from depthlab.median import recenter, witness_tuple
from depthlab.cones import (
    GeneratingTuple,
    canonical_labeling,
    cones_of,
    epsilon_match_max,
    family_level_cap,
    family_overlap_floor,
    match_tuples,
    tuple_masses,
    tuple_weight,
)
from depthlab import central
from depthlab.central import (
    CentralConeApprox,
    _constraint_pools,
    _family_members,
    _sphere_moments,
    central_cone,
    central_patch,
    containment_check,
    structural_map,
)
from depthlab.suites import _octant_symmetric_measure, _small_rotation

OCTANT = SimplicialCone(-np.eye(3))


@pytest.fixture(scope="module")
def mixture3():
    spec = MeasureSpec("simplex_mixture", 3, 240, {"sigma": 0.02}, 7)
    m = generate_measure(spec)
    mc, _ = recenter(m, balanced=True, starts=8, iters=20, seed=7)
    tup, _ = witness_tuple(mc, np.zeros(3), seed=7)
    return mc, tup


@pytest.fixture(scope="module")
def mixture2():
    spec = MeasureSpec("simplex_mixture", 2, 240, {"sigma": 0.01}, 31)
    m = generate_measure(spec)
    mc, _ = recenter(m, balanced=True, starts=8, iters=20, seed=31)
    tup, _ = witness_tuple(mc, np.zeros(2), seed=31)
    return mc, tup


def _inside_patch(verts: np.ndarray, pts: np.ndarray, tol: float) -> np.ndarray:
    """Membership of unit rays in the convex patch with ordered vertices
    ``verts`` (an arc's ends in d = 2, a counterclockwise polygon in d = 3)."""
    if verts.shape[1] == 2:
        lo, hi = verts
        cross = lambda a, b: a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]  # noqa: E731
        turn = np.sign(cross(lo, hi))  # the arc runs either way
        return (turn * cross(lo, pts) >= -tol) & (turn * cross(pts, hi) >= -tol)
    edges = np.cross(verts, np.roll(verts, -1, axis=0))  # inward edge normals
    return np.all(pts @ edges.T >= -tol, axis=1)


@pytest.mark.parametrize("d", [2, 3])
def test_exact_vector_matches_referee(d, mixture2, mixture3):
    # the exact central vector against 10^6 rays of the frozen sampler on
    # the same approximation: within 4 of the referee's standard errors;
    # every ray lies in the exact patch and every vertex meets every
    # constraint within 1e-9
    mc, tup = mixture2 if d == 2 else mixture3
    for j, b in enumerate(cones_of(tup).cones[:2]):
        approx = central_cone(mc, b, seed=j)
        verts, e = central_patch(mc, b, seed=j)
        rays, _ = referee.sample_central_rays(mc, b, count=10**6, seed=j)
        assert rays.shape == (10**6, d)
        mean = rays.mean(axis=0)
        stderr = np.sqrt(np.mean(np.sum((rays - mean) ** 2, axis=1)) / len(rays)) / np.linalg.norm(mean)
        assert np.arccos(np.clip(e @ unit(mean), -1, 1)) <= 4 * stderr
        assert np.all(_inside_patch(verts, rays, 1e-8))
        assert np.all(verts @ approx.constraints.T <= 1e-9)
        assert np.all(cone_contains_many(b, verts, 1e-9))


def test_octant_moment_closed_form():
    # the unconstrained octant: scale and orientation of the Stokes moment
    verts, e = CentralConeApprox(OCTANT, np.empty((0, 3))).patch()
    (moment,), (perimeter,) = _sphere_moments(verts, np.array([len(verts)]))
    assert np.allclose(moment, np.full(3, np.pi / 4), atol=1e-12, rtol=0)
    assert perimeter == pytest.approx(1.5 * np.pi, abs=1e-12)
    assert np.allclose(e, np.ones(3) / np.sqrt(3), atol=1e-15)


def test_constraint_through_base_ray():
    # the plane x = y passes through the ray e3: the patch is the triangle
    # e2, e3, (e1 + e2)/sqrt 2 with a closed-form moment
    verts, e = CentralConeApprox(OCTANT, np.array([[1.0, -1.0, 0.0]]) / np.sqrt(2)).patch()
    want = {(0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (np.sqrt(0.5), np.sqrt(0.5), 0.0)}
    assert len(verts) == 3
    assert all(min(np.abs(v - w).max() for w in np.array(list(want))) < 1e-15 for v in verts)
    (moment,), _ = _sphere_moments(verts, np.array([len(verts)]))
    r = np.sqrt(0.5)
    assert np.allclose(moment, np.pi / 4 * np.array([1 - r, r, 0.5]), atol=1e-12, rtol=0)
    assert np.allclose(e, unit(moment), atol=1e-15)
    # in the plane: the line x = y through the quadrant's middle ray keeps
    # the arc from (1, 1)/sqrt 2 to e2
    quadrant = SimplicialCone(-np.eye(2))
    verts, e = CentralConeApprox(quadrant, np.array([[1.0, -1.0]]) / np.sqrt(2)).patch()
    assert np.allclose(verts, [[r, r], [0.0, 1.0]], atol=1e-15)
    assert np.allclose(e, [np.sin(np.pi / 8), np.cos(np.pi / 8)], atol=1e-15)


def test_nearly_parallel_constraints():
    # constraints 1e-10 rad apart cut as the tighter one alone does
    a = unit([1.0, -1.0, 0.2])
    b = unit(a + 1e-10 * unit(np.cross(a, [0.0, 0.0, 1.0])))
    _, one_e = CentralConeApprox(OCTANT, a[None]).patch()
    both_v, both_e = CentralConeApprox(OCTANT, np.vstack([a, b])).patch()
    assert np.all(both_v @ np.vstack([a, b]).T <= DEFAULT_TOL)
    assert np.linalg.norm(one_e - both_e) < 1e-9
    quadrant = SimplicialCone(-np.eye(2))
    c = np.array([[1.0, -1.0], [1.0, -1.0 - 1e-10]])
    verts, _ = CentralConeApprox(quadrant, c / np.linalg.norm(c, axis=1)[:, None]).patch()
    assert np.all(verts @ (c / np.linalg.norm(c, axis=1)[:, None]).T <= 1e-15)


@pytest.mark.parametrize("d", [2, 3])
def test_empty_patch_raises(d):
    base = SimplicialCone(-np.eye(d))
    a = unit(np.r_[1.0, -1.0, np.zeros(d - 2)])
    for cons in (np.ones((1, d)) / np.sqrt(d), np.vstack([a, -a])):  # nothing left; a zero-width sliver
        with pytest.raises(RuntimeError, match="empty"):
            CentralConeApprox(base, cons).patch()


def test_patch_rejects_d4():
    base = SimplicialCone(-np.eye(4))
    with pytest.raises(ValueError, match="d = 4"):
        CentralConeApprox(base, np.empty((0, 4))).patch()


def test_central_cone_subset_of_base(mixture3):
    mc, tup = mixture3
    for j, b in enumerate(cones_of(tup).cones):
        verts, e = central_patch(mc, b, seed=j)
        assert np.all(cone_contains_many(b, np.vstack([verts, e]), 1e-9))
        assert np.allclose(np.linalg.norm(verts, axis=1), 1.0, atol=1e-15)


def test_central_cone_positive_mass(mixture3):
    mc, tup = mixture3
    for b in cones_of(tup).cones:
        approx = central_cone(mc, b, seed=1)
        inside = referee.contains(approx, mc.points)
        assert float(mc.weights[inside].sum()) > 0


@pytest.mark.parametrize("d", [2, 3])
def test_constraint_pools_nest_across_sample_counts(d, mixture2, mixture3):
    # a seed's pool at more sphere directions holds its pool at fewer: the
    # sphere rows are prefix-stable and the exact block does not depend on
    # the sample count (the capped approximations need not nest)
    mc, _ = mixture2 if d == 2 else mixture3
    seeds = [0, 3, 9]
    small, small_sizes = _constraint_pools(mc, 256, seeds)
    big, big_sizes = _constraint_pools(mc, 1024, seeds)
    assert (big_sizes - small_sizes == 768).all()
    for p, q, k in zip(small, big, small_sizes, strict=True):
        assert np.array_equal(p[:256], q[:256])
        assert np.array_equal(p[256:k], q[1024 : k + 768]) and k > 256


def test_central_cone_capture_in_blocks(mixture3, monkeypatch):
    # the retained constraints are those of one float capture product over
    # all points and the whole candidate pool, and their order is the
    # stable order of the exact counts of captured mass units in B (one
    # per point for equal weights), kept where 4 k >= 3 K, which keeps what
    # the float rule keeps; the pool rows are cut by one ``_row_blocks``
    # call: the octant's 3,600 points take 57 blocks of 36 pool rows, and
    # small orthants built together take one block each, of their whole
    # pool
    blocks = []
    real = central._row_blocks
    monkeypatch.setattr(central, "_row_blocks", lambda *args: blocks.append(real(*args)) or blocks[-1])
    mc, tup = mixture3
    weighted = make_measure(mc.points, 0.5 + np.random.default_rng(3).random(mc.n))
    octant = _octant_symmetric_measure(600, 0.15)
    orthants = [referee.orthant_on(p) for p in mc.points]
    small = [b for b in orthants if 4 <= cone_contains_many(b, mc.points).sum() <= 16][:4]
    groups = [(m, [b], [2]) for m in (mc, weighted) for b in cones_of(tup).cones]
    groups += [(octant, [OCTANT], [2]), (mc, small, [2, 5, 2, 7]), (weighted, small, [2, 5, 2, 7])]
    for m, cones, seeds in groups:
        blocks.clear()
        cons, kept = central._central_cones(m, np.stack([b.normals for b in cones]), seeds, 1024)
        (got,) = blocks
        if len(cones) == 1:
            assert np.array_equal(cons[0, : kept[0]], central_cone(m, cones[0], seed=2).constraints)
        if m is octant:
            assert len(got) == 57 and got[0] == slice(0, 36)
        elif cones is small:
            assert [len(range(2048)[r]) for r in got] == [2048]
        for b, s, c, k in zip(cones, seeds, cons, kept, strict=True):
            pool = np.vstack([sample_directions(3, 1024, seed=s, mode="sphere"), referee.exact_constraint_candidates(m, 1024, s + 1)])
            assert len(pool) == 2048
            inside = cone_contains_many(b, m.points)
            assert 0 < inside.sum() <= 16 if cones is small else inside.sum() > 16
            hits = np.vstack([pool[lo : lo + 256] @ m.points.T <= DEFAULT_TOL for lo in range(0, len(pool), 256)])
            captured = hits @ (m.weights * inside)
            keep = captured >= 3 / 4 * m.weights[inside].sum() - 1e-12
            old = pool[keep][np.argsort(captured[keep], kind="stable")[:320]]
            units = ref.mass_units(m.weights)[0][inside].astype(np.int64)
            exact = hits[:, inside].astype(np.int64) @ units
            assert np.array_equal(keep, 4 * exact >= 3 * units.sum())
            assert k == min(320, keep.sum()) and not c[k:].any()
            assert np.array_equal(c[:k], pool[keep][np.argsort(exact[keep], kind="stable")[:320]])
            assert sorted(map(tuple, c[:k])) == sorted(map(tuple, old))


@pytest.mark.parametrize("weighted", [False, True])
def test_binding_order_is_the_stable_float_order(mixture3, monkeypatch, weighted):
    # the kept constraints come in the order of a stable float argsort of
    # the captures (+inf where not kept), ties in pool order (pool rows that
    # capture the same points of B tie); a uniform measure sorts int16 keys
    # (numpy's radix sort), a Dirichlet-weighted one its float captures
    mc, tup = mixture3
    m = make_measure(mc.points, np.random.default_rng(3).dirichlet(np.ones(mc.n))) if weighted else mc
    dtypes = []
    real = np.argsort
    monkeypatch.setattr(np, "argsort", lambda a, *args, **kw: dtypes.append(np.asarray(a).dtype) or real(a, *args, **kw))
    cones = cones_of(tup).cones
    cons, kept = central._central_cones(m, np.stack([b.normals for b in cones]), [4, 5, 6, 7], 384)
    monkeypatch.undo()
    assert (np.int16 in dtypes) != weighted and (np.float64 in dtypes) == weighted
    pools, sizes = _constraint_pools(m, 384, [4, 5, 6, 7])
    ties = 0
    for b, pool, size, c, k in zip(cones, pools, sizes, cons, kept, strict=True):
        inside = cone_contains_many(b, m.points)
        hits = np.vstack([pool[lo : lo + 256] @ m.points.T <= DEFAULT_TOL for lo in range(0, len(pool), 256)])
        captured = hits[:, inside] @ m.units[inside]
        keep = (4 * captured >= 3 * m.units[inside].sum()) & (np.arange(len(pool)) < size)
        order = np.argsort(np.where(keep, captured, np.inf), kind="stable")[:320]
        assert k == min(keep.sum(), 320) > 0
        assert np.array_equal(c[:k], pool[order[:k]])
        ties += k - len(np.unique(captured[order[:k]]))
    assert ties > 100  # rows that capture the same points of B


def test_map_builds_no_object_per_member(family2, monkeypatch):
    # the member tuples and cones flow as stacks: a map of 120 tuple samples
    # builds as many GeneratingTuple and SimplicialCone objects as one of 30
    mc, ref, a = family2
    built = []
    for cls in (GeneratingTuple, SimplicialCone):
        monkeypatch.setattr(cls, "__post_init__", lambda self, real=cls.__post_init__: built.append(type(self)) or real(self))
    counts = []
    for samples in (30, 120):
        built.clear()
        idx, _, _ = _family_members(mc, a, tuple_masses(mc, ref), central._tuple_samples(
            np.random.default_rng(0), ref.normals, samples))
        built.clear()
        structural_map(mc, a, tuple_samples=samples, seed=0)
        counts.append((len(idx), built.count(GeneratingTuple), built.count(SimplicialCone)))
    assert counts[0][0] < counts[1][0] - 30
    assert counts[0][1:] == counts[1][1:]


def test_central_cone_validations(mixture3):
    # an orthant at the origin that holds no point of the measure
    mc, _ = mixture3
    orthants = (SimplicialCone(-random_rotation(3, s)) for s in range(100))
    empty = next(b for b in orthants if not cone_contains_many(b, mc.points).any())
    with pytest.raises(ValueError, match="no mass"):
        central_cone(mc, empty)


def test_central_vector_unit_norm_and_axis():
    m = _octant_symmetric_measure(300, 0.15)
    _, e = central_patch(m, OCTANT, seed=2)
    assert abs(np.linalg.norm(e) - 1.0) <= 1e-12
    ang = np.degrees(np.arccos(np.clip(e @ unit(np.ones(3)), -1, 1)))
    assert ang < 2.0


def test_central_vector_in_own_approximation(mixture3):
    mc, tup = mixture3
    b = cones_of(tup).cones[2]
    approx = central_cone(mc, b, 5)  # the one central_patch clips
    _, e = central_patch(mc, b, seed=5)
    assert referee.contains(approx, e[None])[0]


def test_central_vector_concentrated_subcone():
    # measure concentrated in a 5-degree-wide bundle around a ray: the
    # central vector lands within 5 degrees of that ray
    rng = np.random.default_rng(8)
    ray = unit(np.array([1.0, 1.0, 0.5]))
    tang = rng.standard_normal((400, 3)) * np.tan(np.deg2rad(2.0))
    tang -= np.outer(tang @ ray, ray)
    pts = (rng.random(400)[:, None] * 2 + 0.5) * (ray[None, :] + tang)
    m = make_measure(pts)
    # reference with a 4x denser constraint pool
    cons, kept = central._central_cones(m, OCTANT.normals[None], [100], 4096)
    _, e_ref = CentralConeApprox(OCTANT, cons[0, : kept[0]]).patch()
    _, e = central_patch(m, OCTANT, seed=9)
    assert np.degrees(np.arccos(np.clip(e @ ray, -1, 1))) < 5.0
    assert np.degrees(np.arccos(np.clip(e @ e_ref, -1, 1))) < 2.0


def test_containment_identity(mixture3):
    mc, tup = mixture3
    b = cones_of(tup).cones[0]
    assert containment_check(mc, b, b, seed=0)


def test_containment_matched_pair(mixture3):
    mc, tup = mixture3
    t2 = tup.rotated(_small_rotation(3, np.deg2rad(2), 55))
    rep = match_tuples(mc, tup, t2, eps=epsilon_match_max(3))
    ca, cb = cones_of(tup).cones, cones_of(t2).cones
    for i in range(4):
        assert containment_check(mc, ca[i], cb[rep.permutation[i]], seed=i)


def test_containment_hypotheses_enforced(mixture3):
    mc, tup = mixture3
    cones = cones_of(tup).cones
    with pytest.raises(ValueError, match="intersection mass"):
        containment_check(mc, cones[0], cones[1], seed=0)


def test_overlap_mass_pivot(mixture3):
    # on hypothesis-passing pairs, the overlap already captures a d/(d+1)
    # share of each cone's mass
    mc, tup = mixture3
    d = 3
    t2 = tup.rotated(_small_rotation(3, np.deg2rad(2), 56))
    ca, cb = cones_of(tup).cones, cones_of(t2).cones
    for b1, b2 in zip(ca, cb):
        in1, in2 = cone_contains_many(b1, mc.points), cone_contains_many(b2, mc.points)
        m1, m2 = float(mc.weights[in1].sum()), float(mc.weights[in2].sum())
        if max(m1, m2) > family_level_cap(d):
            continue
        inter = float(mc.weights[in1 & in2].sum())
        if inter < family_overlap_floor(d):
            continue
        assert inter >= (d / (d + 1)) * m2 - 1e-12
        assert inter >= (d / (d + 1)) * m1 - 1e-12


@pytest.fixture(scope="module")
def family2():
    spec = MeasureSpec("simplex_mixture", 2, 240, {"sigma": 0.01}, 31)
    m = generate_measure(spec)
    mc, _ = recenter(m, balanced=True, starts=8, iters=20, seed=31)
    tup, _ = witness_tuple(mc, np.zeros(2), seed=31)
    a = 1 / 3 + 0.5 / 81
    return mc, canonical_labeling(tup), a


def test_family_member_cases(family2):
    mc, ref, a = family2
    # one screen of the reference tuple, non-generating normals, a reordered
    # reference and three equal normals, whose hull system is singular
    bad = np.array([[1.0, 0.0], [0.98, 0.2], [0.9, 0.43]])
    samples = np.stack([ref.normals, bad, ref.normals[[1, 2, 0]], np.tile([0.6, 0.8], (3, 1))])
    idx, w, orders = _family_members(mc, a, tuple_masses(mc, ref), samples)
    # the reference tuple is a member, labelled by the identity; the
    # non-generating and the singular normals are not; a reordered reference
    # is labelled by the inverse order
    assert idx.tolist() == [0, 2]
    assert w.tolist() == [tuple_weight(mc, ref)] * 2 and w[0] < a
    assert orders.tolist() == [[0, 1, 2], [2, 0, 1]]
    # neither is a tuple of weight above a
    assert _family_members(mc, w[0] - 1e-9, tuple_masses(mc, ref), samples)[0].size == 0


def test_structural_map_margin_and_directions(family2):
    mc, ref, a = family2
    st = structural_map(mc, a, tuple_samples=120, seed=0)
    assert st.margin > 0
    labels = np.arange(mc.n) % 3
    dirs = np.array([unit(mc.points[labels == j].mean(axis=0)) for j in range(3)])
    vhat = st.vectors / np.linalg.norm(st.vectors, axis=1)[:, None]
    cosm = vhat @ dirs.T
    # one output vector per distinct cluster direction, within 10 degrees
    best = np.degrees(np.arccos(np.clip(cosm.max(axis=1), -1, 1)))
    assert np.all(best < 10.0)
    assert len(set(int(j) for j in cosm.argmax(axis=1))) == 3


def test_structural_map_case1_dominance(family2):
    # uniform random tuples essentially never qualify, which is why the
    # estimator needs the perturbation proposal
    mc, ref, a = family2
    g = np.random.default_rng(5).standard_normal((200, 3, 2))
    idx, _, _ = _family_members(mc, a, tuple_masses(mc, ref), g / np.linalg.norm(g, axis=2)[..., None])
    assert idx.size <= 20  # below 10%


def test_structural_map_stability_under_reweighting(family2):
    mc, ref, a = family2
    st1 = structural_map(mc, a, tuple_samples=120, seed=4)
    rng = np.random.default_rng(6)
    bump = rng.random(mc.n)
    w2 = mc.weights * 0.99 + 0.01 * bump / bump.sum()
    m2 = make_measure(mc.points, w2)
    st2 = structural_map(m2, a, tuple_samples=120, seed=4)
    v1 = st1.vectors / np.abs(np.linalg.norm(st1.vectors, axis=1)).max()
    v2 = st2.vectors / np.abs(np.linalg.norm(st2.vectors, axis=1)).max()
    d = np.linalg.norm(v1[:, None, :] - v2[None, :, :], axis=2)
    h = max(d.min(axis=1).max(), d.min(axis=0).max())
    assert h < 0.05 + 0.05  # total-variation delta plus Monte Carlo slack


def test_structural_map_requires_low_depth():
    m = generate_measure(MeasureSpec("gaussian", 2, 150, {}, seed=3))
    mc, _ = recenter(m, balanced=True, starts=6, iters=10, seed=3)
    a = 1 / 3 + 0.5 / 81
    with pytest.raises(RuntimeError):
        structural_map(mc, a, tuple_samples=40, seed=0)


@pytest.mark.parametrize("d, samples, seed, match", [
    pytest.param(1, 8, 0, "d = 1", id="1"),
    pytest.param(4, 8, 0, "d = 4", id="4"),
    *(pytest.param(2, bad, 0, "tuple_samples", id=f"tuple_samples={bad!r}") for bad in (0, -3, 80.0, True)),
    *(pytest.param(2, samples, bad, "seed", id=f"seed={bad!r}")
      for bad, samples in ((-1, 40), (2**63 - 5, 240), (2**63 - 31 * 39 - 1, 40), (0.0, 40))),
])
def test_structural_map_refuses_other_dimensions_before_any_work(monkeypatch, d, samples, seed, match):
    # central-cone patches exist only in d = 2, 3, the estimate needs a
    # positive whole number of tuple samples, and numpy seeds lie in [0,
    # 2^63) (the map's last pool reads the generator of seed + 31 (samples
    # - 1) + 1), so the map refuses any other d, count or seed before it
    # evaluates a depth or searches a witness tuple
    def no_work(*args, **kwargs):
        raise AssertionError("structural_map did work before refusing its arguments")

    monkeypatch.setattr(central, "depth_bracket", no_work)
    monkeypatch.setattr(central, "witness_tuple", no_work)
    m = generate_measure(MeasureSpec("gaussian", d, 100, {}, seed=d))
    with pytest.raises(ValueError, match=match):
        structural_map(m, 1.0 / (d + 1) + 0.5 / (3.0 * (d + 1) ** 3), tuple_samples=samples, seed=seed)


@pytest.mark.parametrize("seed", [-1, 2**63 - 1, 2**64, 3.0, True])
def test_cone_seeds_out_of_range_are_refused_before_any_work(monkeypatch, mixture3, seed):
    # a cone's pool reads the generators of its seed and seed + 1: numpy
    # refuses a negative seed only after the work, and an int64 seed + 1
    # at 2^63 wraps
    def no_work(*args, **kwargs):
        raise AssertionError("did work before refusing its seed")

    mc, tup = mixture3
    b = cones_of(tup).cones[0]
    monkeypatch.setattr(central, "cone_contains_many", no_work)
    monkeypatch.setattr(central, "_central_cones", no_work)
    for call in (central_cone, central_patch, lambda m, b, seed: containment_check(m, b, b, seed=seed)):
        with pytest.raises(ValueError, match="seed"):
            call(mc, b, seed)


def test_largest_seeds_run(family2, mixture3):
    # the largest seeds whose derived seeds stay below 2^63 run without an
    # overflow warning (warnings are errors here)
    mc, tup = mixture3
    b = cones_of(tup).cones[0]
    central_patch(mc, b, seed=2**63 - 2)
    assert containment_check(mc, b, b, seed=2**63 - 2)
    mc, _, a = family2
    assert structural_map(mc, a, tuple_samples=40, seed=2**63 - 31 * 39 - 2).margin > 0


_THREADS_PROBE = """
import numpy as np
from depthlab.central import central_patch, containment_check, structural_map
from depthlab.cones import cones_of, epsilon_match_max, match_tuples
from depthlab.measures import MeasureSpec, generate_measure, make_measure
from depthlab.median import recenter, witness_tuple
from depthlab.suites import _small_rotation
for d in (2, 3):
    m = generate_measure(MeasureSpec("simplex_mixture", d, 240, {"sigma": 0.01}, 40 + d))
    mc, _ = recenter(m, balanced=True, starts=8, iters=20, seed=d)
    a = 1.0 / (d + 1) + 0.5 / (3.0 * (d + 1) ** 3)
    st = structural_map(mc, a, tuple_samples=40, seed=d)
    print(st.vectors.tobytes().hex(), float(st.margin).hex())
    bump = np.random.default_rng(d).random(mc.n)
    mw = make_measure(mc.points, 0.99 * mc.weights + 0.01 * bump / bump.sum())
    print(structural_map(mw, a, tuple_samples=40, seed=d).vectors.tobytes().hex())
    tup, _ = witness_tuple(mc, np.zeros(d), seed=d)
    t2 = tup.rotated(_small_rotation(d, np.deg2rad(2.0), d))
    rep = match_tuples(mc, tup, t2, eps=epsilon_match_max(d))
    ca, cb = cones_of(tup).cones, cones_of(t2).cones
    print([containment_check(mc, ca[i], cb[rep.permutation[i]], seed=i) for i in range(d + 1)])
    verts, e = central_patch(mc, ca[0], seed=d)
    print(verts.tobytes().hex(), e.tobytes().hex())
"""


def test_map_and_containment_bits_do_not_depend_on_blas_threads():
    # the stacked pools, tuple screens (of a uniform and a weighted measure),
    # capture counts and lockstep clips give the same bytes at any BLAS
    # thread count
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        r = subprocess.run([sys.executable, "-c", _THREADS_PROBE], capture_output=True, text=True,
                           env=env, timeout=300)
        assert r.returncode == 0, r.stderr
        outs.append(r.stdout)
    assert outs[0] == outs[1] and len(outs[0].splitlines()) == 8
