"""The lockstep clip of central-cone patches, the block-stacked constraint
pools, the stacked screen of tuple samples, the stacked member cones and
the structural map give the bits of the referees in ``central_referee``:
one approximation clipped at a time, one seed's candidates at a time, and
the map drawn, screened, built and clipped one tuple sample and one cone at
a time, each cone a ``SimplicialCone`` of ``cones_of``.
"""

import numpy as np
import pytest

import central_referee as referee
from depthlab import central
from depthlab.central import CentralConeApprox, _clip_patches, _constraint_pools
from depthlab.geometry import SimplicialCone, cone_contains_many, random_rotation, sample_directions, unit
from depthlab.cones import GeneratingTuple, cones_of, family_overlap_floor, tuple_masses
from depthlab.measures import MeasureSpec, generate_measure, make_measure
from depthlab.median import recenter

# tuple samples per map: 46 family members in d = 2 and 44 in d = 3, so the
# last ``MAP_BLOCK`` block of cones of each map is a partial one
MAPS = {2: 60, 3: 80}


def _map_case(d):
    spec = MeasureSpec("simplex_mixture", d, 240, {"sigma": 0.01}, 300)
    mc, _ = recenter(generate_measure(spec), balanced=True, starts=8, iters=20, seed=0)
    return mc, 1.0 / (d + 1) + 0.5 / (3.0 * (d + 1) ** 3)


def _member_cones(mc, a, d):
    """The referee's cones of the members of the map of ``_map_case(d)``, in
    order: the cones of each member's tuple, labelled by the reference."""
    ref, samples = referee.draw_tuple_samples(mc, a, MAPS[d], 0)
    members = [referee.family_member(mc, a, ref, nrm) for nrm in samples]
    return [b for t, _, order in filter(None, members) for b in cones_of(t.reordered(order)).cones]


@pytest.fixture(scope="module", params=sorted(MAPS))
def recorded(request):
    """(d, measure, a, map, [(approximations, patches, normals)] of each clip
    call): each clip's arrays, read back as the approximations of the
    referee's member cones (``_member_cones``), and the normals stack the
    map clipped."""
    d = request.param
    mc, a = _map_case(d)
    calls = []
    real = central._clip_patches

    def spy(normals, cons, nk):
        calls.append((normals, cons, nk, real(normals, cons, nk)))
        return calls[-1][-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(central, "_clip_patches", spy)
        st = central.structural_map(mc, a, tuple_samples=MAPS[d], seed=0)
    cones = _member_cones(mc, a, d)
    return d, mc, a, st, [([CentralConeApprox(b, c[:k]) for b, c, k in zip(cones, cons, nk)], patches, normals)
                          for normals, cons, nk, patches in calls]


def _clip(approxes, width: int = 1) -> list:
    """``_clip_patches`` of a list of approximations, stacked as the map
    stacks its cones: each one's constraints at the front of a zero row at
    least ``width`` wide, and as wide as the most any of them holds."""
    nk = np.array([len(x.constraints) for x in approxes])
    cons = np.zeros((len(approxes), max(width, int(nk.max())), approxes[0].base.dim))
    for row, x in zip(cons, approxes):
        row[: len(x.constraints)] = x.constraints
    return _clip_patches(np.stack([x.base.normals for x in approxes]), cons, nk)


def _referee_patch(approx):
    try:
        return referee.patch(approx)
    except RuntimeError:
        return None


def _same(p, q) -> bool:
    if p is None or q is None:
        return p is None and q is None
    return np.array_equal(p[0], q[0]) and np.array_equal(p[1], q[1])


def _sliver(normals: np.ndarray) -> np.ndarray:
    """Two opposite constraints whose plane crosses the interior of the cone
    of unit normals ``normals``: a patch of zero width."""
    r = -np.linalg.inv(normals)  # columns: B's rays
    d = len(normals)
    n = unit(np.cross(r[:, 0], r[:, 1] + r[:, 2])) if d == 3 else unit([-(r[1, 0] + r[1, 1]), r[0, 0] + r[0, 1]])
    return np.vstack([n, -n])


def test_every_cone_of_a_map_matches_referee(recorded):
    # one clip per map, holding the cones of every family member: their
    # stacked normals are those of the referee's ``cones_of`` of each
    # member, bit for bit, and so is each patch
    d, mc, a, _, calls = recorded
    ref, samples = referee.draw_tuple_samples(mc, a, MAPS[d], 0)
    members = sum(referee.family_member(mc, a, ref, nrm) is not None for nrm in samples)
    assert len(calls) == 1
    (batch, patches, normals), = calls
    assert len(batch) == members * (d + 1)
    assert np.array_equal(normals, np.stack([x.base.normals for x in batch]))
    for approx, p in zip(batch, patches, strict=True):
        assert p is not None
        assert _same(p, _referee_patch(approx))


def test_member_cones_stack_like_cones_of(recorded):
    # the map's stacked rules of GeneratingTuple (twice: the sample, then
    # its labelled order) and of SimplicialCone give each member's
    # ``cones_of(GeneratingTuple(n).reordered(order))`` bit for bit, with no
    # object per member: on the recorded map's members, and on the members
    # of 2,000 more tuple samples (in d = 3 a pass of the rule left out
    # moves bits of about one member in 17)
    d, mc, a, _, calls = recorded
    ref, samples = referee.draw_tuple_samples(mc, a, MAPS[d], 0)
    more = central._tuple_samples(np.random.default_rng(1), ref.normals, 2000)
    for normals in (np.stack(samples), more):
        idx, _, orders = central._family_members(mc, a, tuple_masses(mc, ref), normals)
        stacked = central._labelled_cones(normals[idx], orders)
        want = [np.stack([b.normals for b in cones_of(GeneratingTuple(normals[s]).reordered(o)).cones])
                for s, o in zip(idx, orders)]
        assert np.array_equal(stacked, np.stack(want))
        if normals is not more:
            assert np.array_equal(stacked.reshape(-1, d, d), calls[0][2])


def test_map_matches_referee(recorded):
    d, mc, a, st, _ = recorded
    ref = referee.structural_map(mc, a, tuple_samples=MAPS[d], seed=0)
    assert np.array_equal(st.vectors, ref.vectors)
    assert st.margin == ref.margin


def test_constraint_counts_in_one_batch(recorded):
    # 0, 1 (a matrix-vector product), 2, fewer than 320 and all of a cone's
    # constraints, clipped together, in rows as wide as the most constraints
    # or padded wider
    d, _, _, _, calls = recorded
    base = calls[0][0][0]
    cons = base.constraints
    assert cons.shape[0] == 320
    batch = [CentralConeApprox(base.base, cons[:k]) for k in (0, 1, 2, 37, 320, 1)]
    batch.append(CentralConeApprox(calls[0][0][1].base, cons[5:6]))
    for approx, p, q in zip(batch, _clip(batch), _clip(batch, 400), strict=True):
        assert _same(p, _referee_patch(approx))
        assert _same(p, approx.patch()) and _same(p, q)


def test_empty_patch_in_a_batch(recorded):
    d, _, _, _, calls = recorded
    first, second = calls[0][0][:2]
    empty = CentralConeApprox(first.base, np.vstack([first.constraints, _sliver(first.base.normals)]))
    with pytest.raises(RuntimeError, match="empty"):
        referee.patch(empty)
    with pytest.raises(RuntimeError, match="empty"):
        empty.patch()
    patches = _clip([first, empty, second])
    assert patches[1] is None
    assert _same(patches[0], referee.patch(first)) and _same(patches[2], referee.patch(second))


def test_map_skips_empty_patches_like_referee(recorded, monkeypatch):
    # cone 1 of every third sample has an empty patch (a sliver added to its
    # constraints, in the package's blocks and in the referee's one cone at
    # a time alike): both maps skip those samples, and the referee builds
    # none of their later cones.  A member's cones share the pool of seed
    # 31 s and are built in slot order, so cone j is the (j + 1)-th built
    # from that seed
    d, mc, a, _, _ = recorded
    real = central._central_cones
    hits = []

    def faulty(m, normals, seeds, samples):
        cons, kept = real(m, normals, seeds, samples)
        for i, (nrm, seed) in enumerate(zip(normals, seeds)):
            s, j = seed // 31, sum(h == seed // 31 for h, _ in hits)
            hits.append((s, j))
            if j == 1 and s % 3 == 0:
                # after its kept constraints, or over the last two of a full row
                k = min(kept[i], cons.shape[1] - 2)
                cons[i, k : k + 2] = _sliver(nrm)
                kept[i] = k + 2
        return cons, kept

    monkeypatch.setattr(central, "_central_cones", faulty)
    monkeypatch.setattr(referee, "_central_cones", faulty)
    ref = referee.structural_map(mc, a, tuple_samples=MAPS[d], seed=0)
    faulted = {s for s, j in hits if j == 1 and s % 3 == 0}
    assert faulted and not any(j == 2 and s in faulted for s, j in hits)
    hits.clear()
    st = central.structural_map(mc, a, tuple_samples=MAPS[d], seed=0)
    assert {s for s, j in hits if j == 1 and s % 3 == 0} == faulted
    assert np.array_equal(st.vectors, ref.vectors) and st.margin == ref.margin
    assert not np.array_equal(st.vectors, recorded[3].vectors)


@pytest.mark.parametrize("d", sorted(MAPS))
def test_map_draws_one_pool_per_member(d, monkeypatch):
    # the d + 1 cones of the member of sample s share the pool of seed +
    # 31 s, drawn once; a pool reads the generators of its seed and seed +
    # 1 only, so seeds at least 2 apart keep the members' pools independent
    mc, a = _map_case(d)
    seed = 5
    real_pools, real_cones = central._constraint_pools, central._central_cones
    pools, cones = [], []

    def pool_spy(m, samples, seeds):
        pools.extend(int(s) for s in seeds)
        return real_pools(m, samples, seeds)

    def cone_spy(m, normals, seeds, samples):
        cones.extend(int(s) for s in seeds)
        return real_cones(m, normals, seeds, samples)

    monkeypatch.setattr(central, "_constraint_pools", pool_spy)
    monkeypatch.setattr(central, "_central_cones", cone_spy)
    central.structural_map(mc, a, tuple_samples=MAPS[d], seed=seed)
    ref, samples = referee.draw_tuple_samples(mc, a, MAPS[d], seed)
    members = [s for s, nrm in enumerate(samples) if referee.family_member(mc, a, ref, nrm) is not None]
    assert len(members) > 10
    assert pools == [seed + 31 * s for s in members]
    assert cones == [p for p in pools for _ in range(d + 1)]
    assert min(np.diff(pools)) >= 2


def test_every_member_cone_holds_the_overlap_floor(recorded):
    # the map needs no rule for a member cone without mass: each member
    # cone is matched to a reference cone and shares more than
    # ``family_overlap_floor(d)`` of the mass with it, so it holds more,
    # counted by the referee's per-sample screen
    d, mc, a, _, calls = recorded
    ref, samples = referee.draw_tuple_samples(mc, a, MAPS[d], 0)
    members = [referee.family_member(mc, a, ref, nrm) for nrm in samples]
    cones = _member_cones(mc, a, d)
    assert len(cones) == len(calls[0][0]) > 10 * (d + 1)
    floor = family_overlap_floor(d)
    masses = [float(mc.weights[cone_contains_many(b, mc.points)].sum()) for b in cones]
    assert min(masses) > floor
    ref_cones = cones_of(ref).cones
    for t, _, order in filter(None, members):
        for b, rb in zip(cones_of(t.reordered(order)).cones, ref_cones, strict=True):
            shared = cone_contains_many(b, mc.points) & cone_contains_many(rb, mc.points)
            assert float(mc.weights[shared].sum()) > floor


@pytest.mark.parametrize("d", [2, 3])
def test_screen_matches_one_sample_at_a_time(d):
    # on every tuple sample of three seeded maps per d, the stacked draw
    # gives the referee's normals, and the stacked screen its members,
    # weights and orders; the third map's measure is weighted
    for k, (mseed, seed) in enumerate(((300, 0), (301, 4), (302, 9))):
        spec = MeasureSpec("simplex_mixture", d, 240, {"sigma": 0.01}, mseed)
        mc, _ = recenter(generate_measure(spec), balanced=True, starts=8, iters=20, seed=seed)
        if k == 2:
            bump = np.random.default_rng(seed).random(mc.n)
            mc = make_measure(mc.points, 0.99 * mc.weights + 0.01 * bump / bump.sum())
        a = 1.0 / (d + 1) + 0.5 / (3.0 * (d + 1) ** 3)
        ref, samples = referee.draw_tuple_samples(mc, a, MAPS[d], seed)
        normals = central._tuple_samples(np.random.default_rng(seed), ref.normals, MAPS[d])
        assert np.array_equal(normals, np.stack(samples))
        want = [(s, referee.family_member(mc, a, ref, nrm)) for s, nrm in enumerate(samples)]
        want = [(s, w, order) for s, member in want if member is not None for _, w, order in [member]]
        idx, weights, orders = central._family_members(mc, a, tuple_masses(mc, ref), normals)
        assert 10 < len(want) < MAPS[d]
        assert idx.tolist() == [s for s, _, _ in want]
        assert weights.tolist() == [w for _, w, _ in want]
        assert orders.tolist() == [order.tolist() for _, _, order in want]


@pytest.mark.parametrize("origin", [False, True])
@pytest.mark.parametrize("n", [2, 3, 45, 46, 240])
def test_exact_constraint_candidates_match_referee(n, origin):
    # 45 kept points give 990 pairs in d = 3 (no draw), 46 give 1,035 (one
    # draw), and 240 points' 480 signed normals in d = 2 stay undrawn; a
    # point at the origin is dropped.  Each seed's pool of a block is its
    # sphere directions, then its referee candidates, then zero rows.
    rng = np.random.default_rng(n)
    for d in (2, 3):
        pts = rng.standard_normal((n, d)) * rng.random((n, 1))
        if origin:
            pts = np.insert(pts, n // 2, 0.0, axis=0)
        m = make_measure(pts)
        seeds = [0, 1, 2, 7, 40]
        pools, sizes = _constraint_pools(m, 16, seeds)
        assert pools.shape == (len(seeds), sizes.max(), d)
        for pool, size, seed in zip(pools, sizes, seeds, strict=True):
            want = referee.exact_constraint_candidates(m, 1024, seed + 1)
            assert size == 16 + len(want)
            assert np.array_equal(pool[:16], sample_directions(d, 16, seed=seed))
            assert np.array_equal(pool[16:size], want) and not pool[size:].any()


def test_pools_with_degenerate_pairs_match_referee():
    # 40 of 46 points on one ray: of the 1,035 pairs, 1,024 are drawn and
    # those on the ray (crosses of length at most 1e-9) are dropped, so the
    # seeds of one block keep different numbers of candidates, each few
    # enough to be taken with both signs, undrawn
    rng = np.random.default_rng(3)
    pts = np.vstack([rng.standard_normal((6, 3)), np.outer(1.0 + np.arange(40), rng.standard_normal(3))])
    m = make_measure(pts)
    seeds = list(range(6))
    pools, sizes = _constraint_pools(m, 8, seeds)
    wants = [referee.exact_constraint_candidates(m, 1024, s + 1) for s in seeds]
    assert len({len(w) for w in wants}) > 1 and max(len(w) for w in wants) < 1024
    for pool, size, want in zip(pools, sizes, wants, strict=True):
        assert size == 8 + len(want) and np.array_equal(pool[8:size], want) and not pool[size:].any()


@pytest.mark.parametrize("weighted", [False, True])
def test_cones_built_together_match_each_built_alone(recorded, weighted):
    # cones of different masses, one without mass and two on one seed, in
    # one stacked build: each is its one-cone build, bit for bit
    d, mc, _, _, calls = recorded
    m = make_measure(mc.points, 0.5 + np.random.default_rng(d).random(mc.n)) if weighted else mc
    # the map's cones each hold one whole cluster; orthants with an edge on
    # two cluster centres hold parts of a cluster, and an orthant at the
    # origin holds none
    centres = [mc.points[j :: d + 1].mean(axis=0) for j in (0, 1)]
    cones = [a.base for a in calls[0][0][: 2 * (d + 1)]] + [referee.orthant_on(c) for c in centres]
    orthants = (SimplicialCone(-random_rotation(d, s)) for s in range(100))
    cones.insert(3, next(b for b in orthants if not cone_contains_many(b, m.points).any()))
    assert len({float(m.units[cone_contains_many(b, m.points)].sum()) for b in cones}) > 3
    seeds = list(range(len(cones)))
    seeds[-1] = seeds[0]
    normals = np.stack([b.normals for b in cones])
    cons, kept = central._central_cones(m, normals, seeds, 384)
    assert kept[3] == -1 and not cons[3].any() and (kept[np.arange(len(cones)) != 3] > 0).all()
    for nrm, seed, c, k in zip(normals, seeds, cons, kept, strict=True):
        alone, k1 = central._central_cones(m, nrm[None], [seed], 384)
        assert k1[0] == k and np.array_equal(c, alone[0]) and not c[max(k, 0):].any()


@pytest.mark.parametrize("d", [2, 3])
def test_random_cones_in_batches_match_referee(d):
    # generic cones of either orientation with 0 to 6 unit constraints,
    # many of them empty, clipped in batches of 25
    rng = np.random.default_rng(d)
    approxes = []
    for _ in range(150):
        k = int(rng.choice([0, 1, 1, 2, 3, 6]))
        cons = rng.standard_normal((k, d))
        approxes.append(CentralConeApprox(SimplicialCone(rng.standard_normal((d, d))),
                                          cons / np.linalg.norm(cons, axis=1, keepdims=True)))
    patches = [p for lo in range(0, 150, 25) for p in _clip(approxes[lo : lo + 25])]
    assert 10 < sum(p is None for p in patches) < 140
    for approx, p in zip(approxes, patches, strict=True):
        assert _same(p, _referee_patch(approx))
