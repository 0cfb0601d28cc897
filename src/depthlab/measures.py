"""Discrete probability measures: mass units, generators, projections, file I/O.

A measure is a finite weighted point set with weights summing to 1.  These
stand in for smooth fast-decaying densities; tests that depend on smoothness
(median uniqueness, continuity) are phrased statistically instead.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .geometry import Flat, as_vector, complement_basis

WEIGHT_SUM_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Finite weighted point set in R^dim; weights strictly positive, summing to 1.

    Every mass in the package is a sum of the measure's mass ``units``
    divided by their sum, its ``scale``, both computed once here and
    read-only.  A uniform measure (all its weights equal) counts 1.0 per
    point, so its scale is n.  Any other measure gets u_i = max(1, rint(2^52
    w_i / sum w)), sum w being the correctly rounded sum (``math.fsum``).
    Every partial sum of units is an integer below 2^53, so every mass is an
    exact count over the scale, whatever the order of the sums, the BLAS
    blocking or the thread count, and equal counts compare equal across the
    exact, sampled and certified paths.  The rint moves each weight by at
    most 2^-53 of the total, besides the rounding of the quotient (by at
    most 2^-52 where the floor of one unit lifts a weight below 2^-53 of
    it), so the scale lies within about n of 2^52.  The raw weights serve
    only what is not a mass: weighted means and draws, the exact memo's key
    and the oracle, a referee on the raw weights.

    ``unit_sums`` is the one rule that sums the units under boolean hit
    masks.  A uniform measure (``scale == n``: every unit is at least 1, so
    only then are all of them 1) sums its masks as integers, the same counts
    faster than a product with its units.
    """

    dim: int
    points: np.ndarray
    weights: np.ndarray
    units: np.ndarray = field(init=False, repr=False)
    scale: float = field(init=False, repr=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("measure needs at least one point")
        if pts.shape[1] < 1:
            raise ValueError("points have dim 0, need at least 1")
        if pts.shape[1] != self.dim:
            raise ValueError(f"points have dim {pts.shape[1]}, expected {self.dim}")
        if w.shape != (pts.shape[0],):
            raise ValueError("weights shape does not match point count")
        if not np.all(np.isfinite(pts)) or not np.all(np.isfinite(w)):
            raise ValueError("non-finite point or weight")
        if np.any(w <= 0):
            raise ValueError("weights must be strictly positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {w.sum()!r}, expected 1")
        units = np.ones(w.shape) if (w == w[0]).all() else np.maximum(1.0, np.rint(w * 2.0**52 / math.fsum(w)))
        for name, a in (("points", pts), ("weights", w), ("units", units)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        object.__setattr__(self, "scale", float(units.sum()))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def unit_sums(self, hits: np.ndarray) -> np.ndarray:
        """The units under the boolean masks hits (..., n), summed over the
        last axis: integer counts if the measure is uniform (int16 below 2^15
        points, int32 from there, which hold any count of n points), else the
        product with ``units``.  Each sum is exact and equals ``hits @
        units``, in any layout of the masks and any order of the sums."""
        if self.scale == self.n:
            return hits.view(np.uint8).sum(axis=-1, dtype=np.int16 if self.n < 2**15 else np.int32)
        return hits @ self.units

    def translated(self, shift) -> "DiscreteMeasure":
        return DiscreteMeasure(self.dim, self.points + as_vector(shift), self.weights)

    def rotated(self, r: np.ndarray) -> "DiscreteMeasure":
        return DiscreteMeasure(self.dim, self.points @ np.asarray(r, dtype=float).T, self.weights)


def make_measure(points, weights=None) -> DiscreteMeasure:
    """Build a measure from points and finite nonnegative weights.

    Zero-weight points are dropped; weights are normalized to sum 1.
    Weights default to uniform.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("need at least one point")
    n = pts.shape[0]
    if weights is None:
        w = np.full(n, 1.0 / n)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (n,):
            raise ValueError(f"{n} points but {w.size} weights")
        if not np.all(np.isfinite(w)):
            raise ValueError("non-finite weight")
        if np.any(w < 0):
            raise ValueError("negative weight")
        keep = w > 0
        if not np.any(keep):
            raise ValueError("all weights are zero")
        pts, w = pts[keep], w[keep]
        w = w / w.sum()
        if np.any(w <= 0):  # denormal inputs can underflow to 0 here
            keep = w > 0
            pts, w = pts[keep], w[keep]
            w = w / w.sum()
    return DiscreteMeasure(pts.shape[1], pts, w)


def simplex_vertices(dim: int) -> np.ndarray:
    """Vertices of a regular simplex in R^dim, centered at 0, unit circumradius."""
    d = dim
    e = np.eye(d + 1)
    centered = e - e.mean(axis=0)
    # orthonormal basis of the hyperplane sum(x)=0 in R^(d+1)
    q, _ = np.linalg.qr(centered.T[:, :d])
    verts = centered @ q
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    return verts


def cross_polytope_vertices(dim: int) -> np.ndarray:
    return np.vstack([np.eye(dim), -np.eye(dim)])


@dataclass(frozen=True)
class MeasureSpec:
    """Recipe for a generated measure; generation is a pure function of the spec."""

    kind: str
    dim: int
    n: int = 1
    params: dict = field(default_factory=dict)
    seed: int = 0

    KINDS = ("simplex_mixture", "gaussian", "uniform_ball", "cross_polytope", "point_masses")

    def __post_init__(self):
        """Checks the spec; each message starts with the field it names."""
        if self.kind not in self.KINDS:
            raise ValueError(f"kind: unknown measure kind {self.kind!r}; valid: {', '.join(self.KINDS)}")
        if self.n < 1:
            raise ValueError("n: must be >= 1")
        if not isinstance(self.params, dict):
            raise ValueError(f"params: must be an object, got {self.params!r}")
        for name in ("sigma", "radius"):
            if self.params.get(name) is not None and not _is_number(self.params[name]):
                raise ValueError(f"params.{name}: must be a number, got {self.params[name]!r}")
        scales = self.params.get("scales")
        if scales is not None and not _is_number(scales) and not (
            isinstance(scales, (list, tuple, np.ndarray)) and len(scales) in (1, self.dim)
            and all(map(_is_number, scales))
        ):
            raise ValueError(f"params.scales: must be a number or a list of 1 or {self.dim} numbers, "
                             f"got {scales!r}")
        sigma = self.params.get("sigma")
        if sigma is not None and sigma <= 0:
            raise ValueError(f"params.sigma: must be positive, got {sigma!r}")
        if self.kind == "point_masses":
            _check_point_masses(self.params, self.dim, self.n)


def _check_point_masses(params: dict, dim: int, n: int) -> None:
    """``params.points``: a nonempty list of ``n`` points of ``dim`` finite
    numbers each; ``params.weights``, if given: one finite nonnegative
    number per point, not all zero.  Each message starts with its field."""
    pts, w = params.get("points"), params.get("weights")
    if pts is None:
        raise ValueError("params.points: missing, point_masses measures need it")
    if not isinstance(pts, (list, tuple, np.ndarray)) or not len(pts):
        raise ValueError(f"params.points: must be a nonempty list of points, got {pts!r}")
    for i, p in enumerate(pts):
        if not (isinstance(p, (list, tuple, np.ndarray)) and len(p) == dim and all(map(_is_finite, p))):
            raise ValueError(f"params.points: point index {i} must be a list of {dim} finite numbers, got {p!r}")
    if n != len(pts):
        raise ValueError(f"n: {n}, but params.points holds {len(pts)} points")
    if w is None:
        return
    if not isinstance(w, (list, tuple, np.ndarray)) or len(w) != len(pts):
        raise ValueError(f"params.weights: must be a list of {len(pts)} numbers, one per point, got {w!r}")
    for i, x in enumerate(w):
        if not (_is_finite(x) and x >= 0):
            raise ValueError(f"params.weights: index {i} must be a finite number >= 0, got {x!r}")
    if not any(x > 0 for x in w):
        raise ValueError("params.weights: all zero")


def _is_number(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _is_finite(x) -> bool:
    return _is_number(x) and math.isfinite(x)


def _round_robin_assign(n: int, k: int) -> np.ndarray:
    """Cluster labels 0..k-1 cycling, so cluster sizes differ by at most 1."""
    return np.arange(n) % k


def generate_measure(spec: MeasureSpec) -> DiscreteMeasure:
    """Deterministic measure generation; bitwise identical for identical specs."""
    rng = np.random.default_rng(spec.seed)
    d, n = spec.dim, spec.n
    kind = spec.kind
    if kind == "simplex_mixture":
        sigma = float(spec.params.get("sigma", 0.01))
        verts = simplex_vertices(d)
        labels = _round_robin_assign(n, d + 1)
        pts = verts[labels] + sigma * rng.standard_normal((n, d))
        return make_measure(pts)
    if kind == "gaussian":
        sigma = float(spec.params.get("sigma", 1.0))
        scales = np.asarray(spec.params.get("scales", np.ones(d)), dtype=float)
        pts = sigma * rng.standard_normal((n, d)) * scales
        return make_measure(pts)
    if kind == "uniform_ball":
        radius = float(spec.params.get("radius", 1.0))
        g = rng.standard_normal((n, d))
        g /= np.linalg.norm(g, axis=1)[:, None]
        r = radius * rng.random(n) ** (1.0 / d)
        return make_measure(g * r[:, None])
    if kind == "cross_polytope":
        sigma = spec.params.get("sigma")
        verts = cross_polytope_vertices(d)
        labels = _round_robin_assign(n, 2 * d)
        pts = verts[labels].astype(float)
        if sigma is not None:
            pts = pts + float(sigma) * rng.standard_normal((n, d))
        return make_measure(pts)
    if kind == "point_masses":
        return make_measure(spec.params["points"], spec.params.get("weights"))
    raise ValueError(f"unknown measure kind {kind!r}")


def project_measure(m: DiscreteMeasure, f: Flat) -> DiscreteMeasure:
    """Push-forward of m under orthogonal projection along the flat f.

    Weights are unchanged; the output lives in R^(dim - k) in the coordinates
    of ``complement_basis(f)``.
    """
    if f.dim != m.dim:
        raise ValueError(f"flat ambient dim {f.dim} != measure dim {m.dim}")
    comp = complement_basis(f)
    return DiscreteMeasure(m.dim - f.k, m.points @ comp.T, m.weights)


def save_measure(m: DiscreteMeasure, path) -> None:
    """Write the measure as UTF-8 JSON with full float round-trip precision."""
    obj = {
        "dim": m.dim,
        "points": [[float(f"{x:.17g}") for x in p] for p in m.points],
        "weights": [float(f"{w:.17g}") for w in m.weights],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
        fh.write("\n")


def load_measure(path) -> DiscreteMeasure:
    """Load a measure from JSON, validating shape and weight normalization."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as e:
            raise ValueError(f"malformed measure file {path}: line {e.lineno}, col {e.colno}: {e.msg}") from e
    for key in ("dim", "points"):
        if key not in obj:
            raise ValueError(f"measure file {path}: missing field {key!r}")
    dim, raw_pts = obj["dim"], obj["points"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ValueError(f"measure file {path}: dim must be an integer >= 1, got {dim!r}")
    if not isinstance(raw_pts, list) or not raw_pts:
        raise ValueError(f"measure file {path}: points must be a nonempty list, got {raw_pts!r}")
    for i, p in enumerate(raw_pts):
        if not isinstance(p, list) or len(p) != dim:
            raise ValueError(f"measure file {path}: point index {i} must be a list of {dim} coordinates, got {p!r}")
    pts = np.asarray(raw_pts, dtype=float)
    if "weights" in obj and obj["weights"] is not None:
        w = np.asarray(obj["weights"], dtype=float)
        if w.shape != (pts.shape[0],):
            raise ValueError(
                f"measure file {path}: {pts.shape[0]} points but {w.size} weights"
            )
        total = float(w.sum())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(
                f"measure file {path}: weights sum to {total}, expected 1 within {WEIGHT_SUM_TOL}"
            )
        w = w / total
    else:
        w = np.full(pts.shape[0], 1.0 / pts.shape[0])
    return DiscreteMeasure(dim, pts, w)
