import numpy as np
import pytest

from depthlab.geometry import DEFAULT_TOL, SimplicialCone, cone_contains_many, sample_directions, unit
from depthlab.measures import MeasureSpec, cone_mass, generate_measure, make_measure
from depthlab.median import recenter, witness_tuple
from depthlab.cones import (
    canonical_labeling,
    cones_of,
    epsilon_match_max,
    family_level_cap,
    family_overlap_floor,
    match_tuples,
    tuple_weight,
)
from depthlab.central import (
    MEMBER_BLOCK,
    MEMBER_HEAD,
    CentralConeApprox,
    _exact_constraint_candidates,
    _family_member,
    _uniform_cap,
    central_cone,
    central_vector,
    containment_check,
    default_capture_fraction,
    sample_central_rays,
    structural_map,
)
from depthlab.depth import _row_blocks
from depthlab.suites import _octant_symmetric_measure, _small_rotation


@pytest.fixture(scope="module")
def mixture3():
    spec = MeasureSpec("simplex_mixture", 3, 240, {"sigma": 0.02}, 7)
    m = generate_measure(spec)
    mc, _ = recenter(m, balanced=True, starts=8, iters=20, seed=7)
    tup, _ = witness_tuple(mc, np.zeros(3), seed=7)
    return mc, tup


def test_capture_fraction_default():
    assert default_capture_fraction(3) == pytest.approx(0.75)


def test_central_cone_subset_of_base(mixture3):
    mc, tup = mixture3
    b = cones_of(tup).cones[0]
    rays, _ = sample_central_rays(mc, b, count=500, seed=0)
    assert np.all(cone_contains_many(b, rays, 1e-9))


def _full_product_membership(approx, pts):
    return cone_contains_many(approx.base, pts) & np.all(pts @ approx.constraints.T <= DEFAULT_TOL, axis=1)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_contains_many_matches_full_product(d):
    # the blocked, early-exit kernel decides every ray as one full product
    # does: on both sides of the head and block sizes, on constraint planes,
    # in the (0, tol] band beyond them, and with duplicate constraints
    rng = np.random.default_rng(40 + d)
    base = SimplicialCone(np.zeros(d), -np.eye(d))  # the positive orthant
    center = unit(np.ones(d))
    for k in (0, 1, MEMBER_HEAD - 1, MEMBER_HEAD, MEMBER_HEAD + 1, 320):
        # half-spaces <c, x> <= 0 that keep every ray within 0.77-1.27
        # rad of the central direction on the side of c
        t = rng.standard_normal((k, d))
        t -= np.outer(t @ center, center)
        t /= np.linalg.norm(t, axis=1)[:, None]
        beta = rng.uniform(0.3, 0.8, size=(k, 1))
        c = np.cos(beta) * t - np.sin(beta) * center
        if k > 2:
            c[k // 2] = c[1]  # duplicate constraints
        approx = CentralConeApprox(base, c)
        for rows in (0, 1, MEMBER_BLOCK - 1, MEMBER_BLOCK, MEMBER_BLOCK + 1, 4000):
            pts = center + 0.5 * rng.standard_normal((rows, d))
            if k and rows > 8:
                # rays exactly on a constraint plane, and rays in the band
                # (0, tol] beyond one that the tolerance still admits
                q = rows // 4
                on, band = pts[:q], pts[q : 2 * q]
                j = rng.integers(0, k, size=(2, q))
                on -= np.sum(on * c[j[0]], axis=1)[:, None] * c[j[0]]
                lift = (1.0 - rng.random(q)) * DEFAULT_TOL
                band -= (np.sum(band * c[j[1]], axis=1) - lift)[:, None] * c[j[1]]
            got = approx.contains_many(pts)
            want = _full_product_membership(approx, pts)
            assert got.dtype == bool and got.shape == (rows,)
            assert np.array_equal(got, want), (k, rows)
            if k == 320 and rows == 4000:
                # hits, misses at the head, and misses past the head
                head = _full_product_membership(CentralConeApprox(base, c[:MEMBER_HEAD]), pts)
                assert 0 < got.sum() < head.sum() < rows


def test_central_cone_positive_mass(mixture3):
    mc, tup = mixture3
    for b in cones_of(tup).cones:
        approx = central_cone(mc, b, samples=512, seed=1)
        inside = approx.contains_many(mc.points)
        assert float(mc.weights[inside].sum()) > 0


def test_central_cone_monotone_refinement(mixture3):
    # doubling the prefix-stable constraint stream only shrinks the region
    mc, tup = mixture3
    b = cones_of(tup).cones[1]
    small = central_cone(mc, b, samples=256, seed=3)
    big = central_cone(mc, b, samples=512, seed=3)
    # uniform rays in a cap twice as wide as the one that covers the patch
    _, (center, theta) = sample_central_rays(mc, b, count=100, seed=4)
    rays = _uniform_cap(center, 2.0 * theta, 20_000, seed=4)
    probe = rays[big.contains_many(rays)]
    assert 100 <= probe.shape[0] < rays.shape[0]
    assert np.all(small.contains_many(probe))  # big-approximation rays pass the small set


def test_central_cone_capture_in_blocks(mixture3):
    # the retained constraints (and their stable tie order) are those of
    # one capture product over the whole candidate pool
    mc, tup = mixture3
    for b in cones_of(tup).cones:
        approx = central_cone(mc, b, samples=1024, seed=2, max_constraints=320)
        pool = np.vstack([sample_directions(3, 1024, seed=2, mode="sphere"), _exact_constraint_candidates(mc, 1024, 3)])
        assert len(_row_blocks(pool.shape[0], mc.n)) > 1
        wb = mc.weights * cone_contains_many(b, mc.points)
        captured = (pool @ mc.points.T <= DEFAULT_TOL) @ wb
        keep = captured >= default_capture_fraction(3) * cone_mass(mc, b) - 1e-12
        order = np.argsort(captured[keep], kind="stable")[:320]
        assert np.array_equal(approx.constraints, pool[keep][order])
        assert approx.constraints.shape[0] == 320


def test_central_cone_validations(mixture3):
    mc, _ = mixture3
    far = SimplicialCone([50.0, 50.0, 50.0], -np.eye(3))
    with pytest.raises(ValueError, match="no mass"):
        central_cone(mc, far)


def test_central_vector_unit_norm_and_axis():
    m = _octant_symmetric_measure(300, 0.15)
    octant = SimplicialCone(np.zeros(3), -np.eye(3))
    e, stderr, hits = central_vector(m, octant, sphere_samples=20_000, seed=2)
    assert abs(np.linalg.norm(e) - 1.0) <= 1e-12
    ang = np.degrees(np.arccos(np.clip(e @ unit(np.ones(3)), -1, 1)))
    assert ang < 2.0
    assert stderr < 0.01 and hits == 20_000


def test_central_vector_in_own_approximation(mixture3):
    mc, tup = mixture3
    b = cones_of(tup).cones[2]
    approx = central_cone(mc, b, 1024, 5, max_constraints=320)  # the one central_vector samples
    e, _, _ = central_vector(mc, b, sphere_samples=2000, seed=5)
    assert approx.contains_many(e[None])[0]


def test_central_vector_concentrated_subcone():
    # measure concentrated in a 5-degree-wide bundle around a ray: the
    # central vector lands within 5 degrees of that ray
    rng = np.random.default_rng(8)
    ray = unit(np.array([1.0, 1.0, 0.5]))
    tang = rng.standard_normal((400, 3)) * np.tan(np.deg2rad(2.0))
    tang -= np.outer(tang @ ray, ray)
    pts = (rng.random(400)[:, None] * 2 + 0.5) * (ray[None, :] + tang)
    m = make_measure(pts)
    b = SimplicialCone(np.zeros(3), -np.eye(3))  # wide host cone
    # reference estimate with a 10x denser pool
    e_ref, _, _ = central_vector(m, b, sphere_samples=20_000, seed=100)
    e, _, _ = central_vector(m, b, sphere_samples=2000, seed=9)
    assert np.degrees(np.arccos(np.clip(e @ ray, -1, 1))) < 5.0
    assert np.degrees(np.arccos(np.clip(e @ e_ref, -1, 1))) < 2.0


def test_containment_identity(mixture3):
    mc, tup = mixture3
    b = cones_of(tup).cones[0]
    assert containment_check(mc, b, b, ray_samples=1500, seed=0)


def test_containment_matched_pair(mixture3):
    mc, tup = mixture3
    t2 = tup.rotated(_small_rotation(3, np.deg2rad(2), 55))
    rep = match_tuples(mc, tup, t2, eps=epsilon_match_max(3))
    ca, cb = cones_of(tup).cones, cones_of(t2).cones
    for i in range(4):
        assert containment_check(mc, ca[i], cb[rep.permutation[i]], ray_samples=1500, seed=i)


def test_containment_hypotheses_enforced(mixture3):
    mc, tup = mixture3
    cones = cones_of(tup).cones
    with pytest.raises(ValueError, match="intersection mass"):
        containment_check(mc, cones[0], cones[1], ray_samples=500, seed=0)


def test_overlap_mass_pivot(mixture3):
    # on hypothesis-passing pairs, the overlap already captures a d/(d+1)
    # share of each cone's mass
    mc, tup = mixture3
    d = 3
    t2 = tup.rotated(_small_rotation(3, np.deg2rad(2), 56))
    ca, cb = cones_of(tup).cones, cones_of(t2).cones
    for b1, b2 in zip(ca, cb):
        m1, m2 = cone_mass(mc, b1), cone_mass(mc, b2)
        if max(m1, m2) > family_level_cap(d):
            continue
        both = cone_contains_many(b1, mc.points) & cone_contains_many(b2, mc.points)
        inter = float(mc.weights[both].sum())
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
    # the reference tuple is a member, labelled by the identity
    t, w, order = _family_member(mc, a, ref, ref.normals)
    assert w == tuple_weight(mc, ref) and w < a
    assert np.array_equal(t.normals, ref.normals) and np.array_equal(order, np.arange(3))
    # non-generating normals are not members
    bad = np.array([[1.0, 0.0], [0.98, 0.2], [0.9, 0.43]])
    assert _family_member(mc, a, ref, bad) is None
    # neither is a tuple of weight above a
    assert _family_member(mc, w - 1e-9, ref, ref.normals) is None
    # a reordered reference is labelled by the inverse order
    _, _, order = _family_member(mc, a, ref, ref.normals[[1, 2, 0]])
    assert np.array_equal(order, [2, 0, 1])


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
    rng = np.random.default_rng(5)
    hits = 0
    for _ in range(200):
        g = rng.standard_normal((3, 2))
        nrm = g / np.linalg.norm(g, axis=1)[:, None]
        hits += int(_family_member(mc, a, ref, nrm) is not None)
    assert hits <= 20  # below 10%


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
