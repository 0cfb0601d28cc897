"""Generating half-space tuples, their simplicial cones, mass bounds, matching.

A generating tuple is d + 1 closed half-spaces through the origin whose
intersection is exactly {0}; equivalently the origin lies strictly inside the
convex hull of their outer normals.  Each tuple induces d + 1 simplicial
cones (drop one half-space, intersect the rest).  Small-weight tuples have
cone masses pinned near 1/(d+1), and the cones of two small-weight tuples
match up one-to-one by shared mass, so a candidate tuple is labelled by
matching it to one reference tuple.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import DEFAULT_TOL, SimplicialCone, hull_interior_margin
from .measures import DiscreteMeasure

GENERATING_MARGIN = 1e-9
MATCH_EDGE_MASS = 1e-6  # intersection mass above which two cones share an edge


class MatchingError(RuntimeError):
    """The cone-overlap bipartite graph is not a unique perfect matching."""


def epsilon_bmes_max(d: int) -> float:
    """Largest admissible epsilon for the cone-mass bounds."""
    return 1.0 / ((d + 1) * (2 * d + 1))


def epsilon_match_max(d: int) -> float:
    """Largest admissible epsilon for the cone-matching bound."""
    return 1.0 / ((d + 1) * (3 * d + 2))


def family_level_cap(d: int) -> float:
    """Upper end of the admissible weight range of the structural map."""
    return 1.0 / (d + 1) + 1.0 / (3.0 * (d + 1) ** 3)


def family_overlap_floor(d: int) -> float:
    """Matched-cone mass floor of two tuples below ``family_level_cap``."""
    return 1.0 / (d + 1) - (3.0 * d + 2.0) / (3.0 * (d + 1) ** 3)


@dataclass(frozen=True, eq=False)
class GeneratingTuple:
    """Ordered d+1 origin half-spaces with trivial intersection.

    ``normals`` holds the outer normals as rows, shape (d+1, d).
    """

    normals: np.ndarray

    def __post_init__(self):
        nrm = np.asarray(self.normals, dtype=float)
        if nrm.ndim != 2 or nrm.shape[0] != nrm.shape[1] + 1:
            raise ValueError(f"need (d+1) x d normals, got {nrm.shape}")
        flag, margin = is_generating(nrm)
        if not flag:
            raise ValueError(
                f"not generating: hull interior margin {margin:.3g} < {GENERATING_MARGIN}"
            )
        nrm = nrm / np.linalg.norm(nrm, axis=1)[:, None]
        object.__setattr__(self, "normals", nrm)
        self.normals.setflags(write=False)

    @property
    def d(self) -> int:
        return self.normals.shape[1]

    def reordered(self, perm) -> "GeneratingTuple":
        return GeneratingTuple(self.normals[np.asarray(perm, dtype=int)])

    def rotated(self, r: np.ndarray) -> "GeneratingTuple":
        return GeneratingTuple(self.normals @ np.asarray(r, dtype=float).T)


@dataclass(frozen=True, eq=False)
class ConeTuple:
    cones: list[SimplicialCone]


@dataclass(frozen=True, eq=False)
class MatchReport:
    permutation: np.ndarray  # sigma: cones_A[i] pairs with cones_B[sigma[i]]
    intersection_masses: np.ndarray  # (d+1, d+1)


def is_generating(normals: np.ndarray):
    """Whether the d+1 origin half-spaces with these outer normals (rows)
    intersect only at the origin.

    Returns (flag, margin) where the margin quantifies how strictly the
    origin sits inside the hull of the outer normals; the flag asks for a
    margin of at least ``GENERATING_MARGIN``.  A zero or non-finite row
    raises ValueError.
    """
    d = normals.shape[1]
    if normals.shape[0] != d + 1:
        raise ValueError(f"need d+1 half-spaces, got {normals.shape[0]} in dim {d}")
    lens = np.linalg.norm(normals, axis=1)
    bad = np.flatnonzero(~(np.isfinite(lens) & (lens > 0)))
    if bad.size:
        raise ValueError(f"normal {bad[0]} is zero or not finite: {normals[bad[0]]}")
    margin = hull_interior_margin(normals / lens[:, None])
    return margin >= GENERATING_MARGIN, margin


def cones_of(t: GeneratingTuple) -> ConeTuple:
    """The d+1 simplicial cones of a tuple: cone i drops half-space i.  A cone
    whose normals are linearly dependent raises ValueError (``SimplicialCone``)."""
    return ConeTuple([SimplicialCone(np.delete(t.normals, i, axis=0)) for i in range(t.d + 1)])


def _tuple_hits(m: DiscreteMeasure, normals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(weights (N,), cone masks (N, d+1, n)) of a stack of tuples given by
    their unit outer normals (N, d+1, d): the cone layer's one membership
    rule.  A point is in an origin half-space when its product with the
    normal is at most ``DEFAULT_TOL``; one product of the points with every
    normal gives each half-space's mass, an exact count of m's mass units
    (``unit_sums``) over its scale (a tuple's weight is 1 minus its
    smallest), and each cone's points, those in every half-space but the
    one the cone drops.  A tuple dimension other than m's raises
    ValueError."""
    d = normals.shape[-1]
    if d != m.dim:
        raise ValueError(f"tuples of dimension {d} on a measure of dimension {m.dim}")
    hits = (m.points @ normals.reshape(-1, d).T <= DEFAULT_TOL).reshape(m.n, -1, d + 1)
    hits = np.ascontiguousarray(hits.transpose(1, 2, 0))  # each mask's points in a row, for its sums
    return 1.0 - (m.unit_sums(hits) / m.scale).min(axis=1), hits.sum(axis=1)[:, None] - hits == d


def tuple_weight(m: DiscreteMeasure, t: GeneratingTuple) -> float:
    """1 minus the smallest half-space mass of the tuple."""
    return float(_tuple_hits(m, t.normals[None])[0][0])


@dataclass(frozen=True, eq=False)
class BmesReport:
    cone_masses: np.ndarray
    sum_bound: float  # required strict lower bound on sum of cone masses
    lower: float  # required strict lower bound per cone
    upper: float  # required strict upper bound per cone
    sum_slack: float
    lower_slacks: np.ndarray
    upper_slacks: np.ndarray

    @property
    def sum_ok(self) -> bool:
        return self.sum_slack > 0

    @property
    def bounds_ok(self) -> bool:
        return bool(np.all(self.lower_slacks > 0) and np.all(self.upper_slacks > 0))


def bmes_report(m: DiscreteMeasure, t: GeneratingTuple, eps: float) -> BmesReport:
    """Evaluate the cone-mass bounds for a small-weight tuple.

    Requires eps in (0, 1/((d+1)(2d+1))] and tuple weight < 1/(d+1) + eps;
    then the cone masses must satisfy sum > 1 - (d+1) eps and each must lie
    in (1/(d+1) - (2d+1) eps, 1/(d+1) + eps).
    """
    d = t.d
    w, inside = _tuple_hits(m, t.normals[None])
    if not (0 < eps <= epsilon_bmes_max(d)):
        raise ValueError(f"eps must lie in (0, {epsilon_bmes_max(d)!r}], got {eps}")
    if not w[0] < 1.0 / (d + 1) + eps:
        raise ValueError(f"tuple weight {w[0]} is not below 1/(d+1) + eps = {1.0 / (d + 1) + eps}")
    masses = m.unit_sums(inside[0]) / m.scale
    sum_bound = 1.0 - (d + 1) * eps
    lower = 1.0 / (d + 1) - (2 * d + 1) * eps
    upper = 1.0 / (d + 1) + eps
    return BmesReport(
        cone_masses=masses,
        sum_bound=sum_bound,
        lower=lower,
        upper=upper,
        sum_slack=float(masses.sum() - sum_bound),
        lower_slacks=masses - lower,
        upper_slacks=upper - masses,
    )


@dataclass(frozen=True, eq=False)
class TupleMasses:
    """A tuple's weight under a measure and the membership masks of its
    cones, computed once for the many matchings of a reference tuple."""

    tuple: GeneratingTuple
    weight: float  # ``tuple_weight``
    inside: np.ndarray  # (d+1, n) bool: row i marks the points in cone i


def tuple_masses(m: DiscreteMeasure, t: GeneratingTuple) -> TupleMasses:
    """The ``TupleMasses`` of a tuple under a measure."""
    w, inside = _tuple_hits(m, t.normals[None])
    return TupleMasses(t, float(w[0]), inside[0])


def _pair_masses(m: DiscreteMeasure, A: TupleMasses, inside: np.ndarray) -> np.ndarray:
    """Masses [..., i, j] of cone i of A with cone j of one tuple or of each
    of a stack, from their masks ``inside`` ((d+1, n) or (N, d+1, n)): exact
    counts of m's mass units (``unit_sums``) over its scale."""
    flat = m.unit_sums(A.inside[:, None] & inside.reshape(-1, m.n)) / m.scale
    return np.moveaxis(flat.reshape(A.inside.shape[:1] + inside.shape[:-1]), 0, -2)


def _matchings(m: DiscreteMeasure, A: TupleMasses, inside: np.ndarray, eps: float):
    """The rule of ``match_tuples``, for A against one tuple or a stack, by
    their cone masks ``inside``: the masses, the permutation sigma pairing
    cone i of A with cone sigma[i], whether the edges form a permutation
    matrix, and whether every matched mass is above the floor."""
    d = A.tuple.d
    masses = _pair_masses(m, A, inside)
    adj = masses > MATCH_EDGE_MASS
    sigma = np.argmax(adj, axis=-1)
    perm = (adj.sum(axis=-2) == 1).all(axis=-1) & (adj.sum(axis=-1) == 1).all(axis=-1)
    floor = 1.0 / (d + 1) - (3 * d + 2) * eps
    above = (np.take_along_axis(masses, sigma[..., None], axis=-1)[..., 0] > floor).all(axis=-1)
    return masses, sigma, perm, above


def match_tuples(
    m: DiscreteMeasure,
    A: GeneratingTuple | TupleMasses,
    B: GeneratingTuple | TupleMasses,
    eps: float,
) -> MatchReport:
    """Match the cones of two small-weight tuples by shared mass.  Either
    tuple may come as its ``tuple_masses`` under m, computed beforehand.

    Builds the bipartite graph with an edge where the intersection mass
    exceeds ``MATCH_EDGE_MASS``; the graph must be a unique perfect matching,
    which with no edge off the matching means a permutation matrix (one edge
    in every row and every column), and every matched mass must exceed
    1/(d+1) - (3d+2) eps.  Violations raise MatchingError rather than
    returning silently.  The one-tuple case of ``_matchings``.
    """
    A, B = (t if isinstance(t, TupleMasses) else tuple_masses(m, t) for t in (A, B))
    d = A.tuple.d
    if not (0 < eps <= epsilon_match_max(d)):
        raise ValueError(f"eps must lie in (0, {epsilon_match_max(d)!r}], got {eps}")
    cap = 1.0 / (d + 1) + eps
    for name, side in (("first", A), ("second", B)):
        if not side.weight < cap:
            raise ValueError(f"{name} tuple has weight {side.weight}, not below 1/(d+1) + eps = {cap}")
    masses, sigma, perm, above = _matchings(m, A, B.inside, eps)
    if not perm:
        raise MatchingError(
            f"cone overlaps above the edge mass {MATCH_EDGE_MASS} are not one per row "
            f"and column; intersection masses:\n{masses}"
        )
    if not above:
        floor = 1.0 / (d + 1) - (3 * d + 2) * eps
        raise MatchingError(
            f"matched masses {masses[np.arange(d + 1), sigma]} do not all exceed the floor {floor}"
        )
    return MatchReport(sigma, masses)


def canonical_labeling(t: GeneratingTuple) -> GeneratingTuple:
    """Reorder a tuple so its normals are sorted lexicographically."""
    order = np.lexsort(t.normals.T[::-1])
    return t.reordered(order)


def _family_eps(d: int) -> float:
    """The matching epsilon of the family: 1/(3(d+1)^3), so that its
    weight cap 1/(d+1) + eps is ``family_level_cap``."""
    return 1.0 / (3.0 * (d + 1) ** 3)


def family_member_order(
    m: DiscreteMeasure, ref: GeneratingTuple | TupleMasses, t: GeneratingTuple | TupleMasses
) -> np.ndarray | None:
    """Permutation that labels a candidate tuple by matching it to the
    reference tuple (cone i of ``t.reordered(p)`` overlaps cone i of
    ``ref``), or None when the matching fails; either tuple may come as its
    ``tuple_masses``, as in ``match_tuples``."""
    try:
        rep = match_tuples(m, ref, t, eps=_family_eps(m.dim))
    except (MatchingError, ValueError):
        return None
    return np.asarray(rep.permutation, dtype=int)
