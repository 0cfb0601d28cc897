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

from .geometry import DEFAULT_TOL, HalfSpace, SimplicialCone, hull_interior_margin
from .measures import DiscreteMeasure, cone_mass, halfspace_mass

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
        lens = np.linalg.norm(nrm, axis=1)
        if np.any(lens == 0):
            raise ValueError("zero normal")
        nrm = nrm / lens[:, None]
        margin = hull_interior_margin(nrm)
        if margin < GENERATING_MARGIN:
            raise ValueError(
                f"not generating: hull interior margin {margin:.3g} < {GENERATING_MARGIN}"
            )
        object.__setattr__(self, "normals", nrm)
        self.normals.setflags(write=False)

    @property
    def d(self) -> int:
        return self.normals.shape[1]

    @property
    def halves(self) -> list[HalfSpace]:
        return [HalfSpace(n, 0.0) for n in self.normals]

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
    margin of at least ``GENERATING_MARGIN``.
    """
    d = normals.shape[1]
    if normals.shape[0] != d + 1:
        raise ValueError(f"need d+1 half-spaces, got {normals.shape[0]} in dim {d}")
    lens = np.linalg.norm(normals, axis=1)
    normals = normals / lens[:, None]
    margin = hull_interior_margin(normals)
    return margin >= GENERATING_MARGIN, float(margin)


def cones_of(t: GeneratingTuple) -> ConeTuple:
    """The d+1 simplicial cones of a tuple: cone i drops half-space i."""
    d = t.d
    cones = []
    for i in range(d + 1):
        rows = np.delete(t.normals, i, axis=0)
        if abs(np.linalg.det(rows)) <= 1e-10:
            raise ValueError(f"cone {i}: remaining normals are linearly dependent")
        cones.append(SimplicialCone(np.zeros(d), rows))
    return ConeTuple(cones)


def tuple_weight(m: DiscreteMeasure, t: GeneratingTuple) -> float:
    """1 minus the smallest half-space mass of the tuple."""
    masses = [halfspace_mass(m, h) for h in t.halves]
    return 1.0 - min(masses)


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
    if not (0 < eps <= epsilon_bmes_max(d)):
        raise ValueError(f"eps must lie in (0, {epsilon_bmes_max(d)!r}], got {eps}")
    w = tuple_weight(m, t)
    if not w < 1.0 / (d + 1) + eps:
        raise ValueError(f"tuple weight {w} is not below 1/(d+1) + eps = {1.0 / (d + 1) + eps}")
    masses = np.array([cone_mass(m, b) for b in cones_of(t).cones])
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


def tuple_masses(m: DiscreteMeasure, t: GeneratingTuple, weight: float | None = None) -> TupleMasses:
    """The ``TupleMasses`` of a tuple under a measure; ``weight`` is its
    ``tuple_weight``, when computed beforehand."""
    inside = np.stack([(m.points @ c.normals.T <= DEFAULT_TOL).all(axis=1) for c in cones_of(t).cones])
    return TupleMasses(t, tuple_weight(m, t) if weight is None else weight, inside)


def _pair_masses(m: DiscreteMeasure, A: TupleMasses, B: TupleMasses) -> np.ndarray:
    """Masses of pairwise cone intersections, via joint membership masks:
    exact counts of m's mass units over its scale."""
    return (A.inside * m.units) @ B.inside.T / m.scale


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
    returning silently.
    """
    A, B = (t if isinstance(t, TupleMasses) else tuple_masses(m, t) for t in (A, B))
    d = A.tuple.d
    if B.tuple.d != d:
        raise ValueError("tuples live in different dimensions")
    if not (0 < eps <= epsilon_match_max(d)):
        raise ValueError(f"eps must lie in (0, {epsilon_match_max(d)!r}], got {eps}")
    cap = 1.0 / (d + 1) + eps
    for name, side in (("first", A), ("second", B)):
        if not side.weight < cap:
            raise ValueError(f"{name} tuple has weight {side.weight}, not below 1/(d+1) + eps = {cap}")
    masses = _pair_masses(m, A, B)
    adj = masses > MATCH_EDGE_MASS
    if np.any(adj.sum(axis=0) != 1) or np.any(adj.sum(axis=1) != 1):
        raise MatchingError(
            f"cone overlaps above the edge mass {MATCH_EDGE_MASS} are not one per row "
            f"and column; intersection masses:\n{masses}"
        )
    sigma = np.argmax(adj, axis=1)
    floor = 1.0 / (d + 1) - (3 * d + 2) * eps
    matched = masses[np.arange(d + 1), sigma]
    if np.any(matched <= floor):
        raise MatchingError(
            f"matched masses {matched} do not all exceed the floor {floor}"
        )
    return MatchReport(sigma, masses)


def canonical_labeling(t: GeneratingTuple) -> GeneratingTuple:
    """Reorder a tuple so its normals are sorted lexicographically."""
    order = np.lexsort(t.normals.T[::-1])
    return t.reordered(order)


def family_member_order(
    m: DiscreteMeasure, ref: GeneratingTuple | TupleMasses, t: GeneratingTuple | TupleMasses
) -> np.ndarray | None:
    """Permutation that labels a candidate tuple by matching it to the
    reference tuple (cone i of ``t.reordered(p)`` overlaps cone i of
    ``ref``), or None when the matching fails; either tuple may come as its
    ``tuple_masses``, as in ``match_tuples``."""
    try:
        rep = match_tuples(m, ref, t, eps=1.0 / (3.0 * (m.dim + 1) ** 3))
    except (MatchingError, ValueError):
        return None
    return np.asarray(rep.permutation, dtype=int)
