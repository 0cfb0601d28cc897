"""Geometric primitives: vectors, flats, simplicial cones, hull margins, direction sampling.

Conventions used throughout the package:

* A half-space is ``{x : <n, x> <= c}`` for a unit outer normal ``n`` and an
  offset ``c``; its boundary is ``<n, x> = c``.  The cone layer's half-spaces
  and cones pass through the origin (c = 0), and a tuple or a cone holds
  their outer normals as the rows of one array.
* Predicates and masses count points within ``DEFAULT_TOL`` of a boundary
  as on it.
* Projective directions are canonicalized so that the first coordinate whose
  magnitude exceeds a tiny threshold is positive.

Everything here is a pure function of its inputs; no shared mutable state.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-9


def as_vector(x) -> np.ndarray:
    """Coerce to a finite 1-d float64 array."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite coordinates")
    return v


def check_count(name: str, value, least: int) -> None:
    """Refuse a count that is not an integer (a bool is not one) or is below
    ``least``, with a ``ValueError`` that names the parameter."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def unit(x) -> np.ndarray:
    """Normalize to Euclidean length 1."""
    v = as_vector(x)
    nrm = float(np.linalg.norm(v))
    if nrm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return v / nrm


def _unit_rows(v: np.ndarray) -> np.ndarray:
    """The rows of v (D, d) over their Euclidean norms, each row with the
    bits of ``unit`` of it: one stacked product of row-major rows, which
    sums each row as ``np.linalg.norm`` sums a lone vector (a strided row
    would sum in another order).  A zero or non-finite row raises
    ValueError."""
    v = np.ascontiguousarray(v, dtype=float)
    if not np.isfinite(v).all():
        raise ValueError("direction vectors must be finite")
    norms = np.sqrt(np.matmul(v[:, None, :], v[:, :, None])[:, 0])
    if not norms.all():
        raise ValueError("cannot normalize the zero vector")
    return v / norms


def canonical_direction(v) -> np.ndarray:
    """Unit representative of the line through v with the canonical sign,
    or of each row of a stack v (D, d), each with the bits of its own.

    The sign rule: the first coordinate with magnitude above 1e-13 is
    positive.  Stable under small perturbations away from coordinate
    hyperplanes, and makes directions hashable/deduplicatable.  A zero or
    non-finite row raises ValueError.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim not in (1, 2) or not v.size:
        raise ValueError(f"expected a vector or a stack of them, got shape {v.shape}")
    u = _unit_rows(v.reshape(-1, v.shape[-1]))
    big = np.abs(u) > 1e-13
    if not big.any(axis=1).all():
        raise ValueError("direction vector is numerically zero")
    np.negative(u, out=u, where=np.take_along_axis(u, big.argmax(axis=1)[:, None], axis=1) < 0)
    return u.reshape(v.shape)


@dataclass(frozen=True, eq=False)
class Flat:
    """k-dimensional affine flat: base point plus an orthonormal direction basis.

    ``basis`` has shape (k, dim); k = 0 encodes a single point.
    """

    base: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        base = as_vector(self.base)
        basis = np.asarray(self.basis, dtype=float)
        if basis.ndim != 2 or basis.shape[1] != base.size:
            raise ValueError(
                f"basis shape {basis.shape} incompatible with ambient dim {base.size}"
            )
        k, d = basis.shape
        if k >= d:
            raise ValueError(f"flat dimension {k} must be < ambient dimension {d}")
        if k:
            gram = basis @ basis.T
            if not np.allclose(gram, np.eye(k), atol=1e-10):
                raise ValueError("flat basis is not orthonormal within 1e-10")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "basis", basis)
        self.base.setflags(write=False)
        self.basis.setflags(write=False)

    @property
    def k(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.base.size


def line(direction) -> Flat:
    """1-flat through the origin with the given direction."""
    u = unit(direction)
    return Flat(np.zeros_like(u), u[None, :])


def complement_basis(f: Flat) -> np.ndarray:
    """Orthonormal basis (dim - k, dim) of the orthogonal complement of f's
    directions: ``complement_bases`` of the one flat."""
    if f.k == 0:
        return np.eye(f.dim)
    return complement_bases(f.basis[None])[0]


def complement_bases(bases: np.ndarray) -> np.ndarray:
    """Complement bases (D, dim - k, dim) of a stack of flat bases (D, k,
    dim), k >= 1: one stacked full QR decomposition, each flat's with the
    bits of its own, and a fixed sign per row (its first entry of largest
    magnitude is made positive), so projections are reproducible."""
    k = bases.shape[1]
    q, _ = np.linalg.qr(bases.transpose(0, 2, 1), mode="complete")
    comp = q[:, :, k:].transpose(0, 2, 1).copy()
    j = np.argmax(np.abs(comp), axis=2)[..., None]
    np.negative(comp, out=comp, where=np.take_along_axis(comp, j, axis=2) < 0)
    return comp


@dataclass(frozen=True, eq=False)
class SimplicialCone:
    """Intersection of d half-spaces through the origin.

    ``normals`` holds the outer normals as rows; membership is
    ``<n_i, x> <= 0`` for every row.  The rows must be linearly
    independent, which also guarantees the cone contains no full line.
    """

    normals: np.ndarray

    def __post_init__(self):
        normals = np.asarray(self.normals, dtype=float)
        if normals.ndim != 2 or normals.shape[0] != normals.shape[1] or not normals.size:
            raise ValueError(f"need d x d constraint normals, got {normals.shape}")
        norms = np.linalg.norm(normals, axis=1)
        bad = np.flatnonzero(~(np.isfinite(norms) & (norms > 0)))
        if bad.size:
            raise ValueError(f"constraint normal {bad[0]} is zero or not finite: {normals[bad[0]]}")
        normals = normals / norms[:, None]
        if abs(np.linalg.det(normals)) <= 1e-10:
            raise ValueError("constraint normals are linearly dependent (tol 1e-10)")
        object.__setattr__(self, "normals", normals)
        self.normals.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.normals.shape[1]


def cone_contains_many(b: SimplicialCone, pts: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Vectorized closed-cone membership for an (n, d) array of points."""
    return np.all(np.asarray(pts, dtype=float) @ b.normals.T <= tol, axis=1)


def _fibonacci_sphere(count: int) -> np.ndarray:
    """Deterministic low-discrepancy covering of the 2-sphere."""
    i = np.arange(count, dtype=float)
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    z = 1.0 - (2.0 * i + 1.0) / count
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    theta = 2.0 * np.pi * i / phi
    return np.column_stack([r * np.cos(theta), r * np.sin(theta), z])


def _halton(count: int, dim: int) -> np.ndarray:
    from scipy.stats import qmc

    return qmc.Halton(d=dim, scramble=False).random(count)


def sample_directions(dim: int, count: int, seed: int = 0, mode: str = "sphere") -> np.ndarray:
    """Unit directions on S^(dim-1), as a row-major (count, dim) array.

    sphere      pseudo-uniform, deterministic in ``seed``; for a fixed seed the
                first k rows of a count=k' >= k call equal the count=k call
                (prefix stability, relied on by superset-sampling tests).
    grid        deterministic low-discrepancy covering, independent of seed:
                a projective angle grid for dim=2, a Fibonacci lattice for
                dim=3, and a Halton-based covering for dim >= 4.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    if mode == "grid":
        if dim == 1:
            return np.ones((count, 1))
        if dim == 2:
            ang = np.pi * np.arange(count) / count
            return np.column_stack([np.cos(ang), np.sin(ang)])
        if dim == 3:
            return _fibonacci_sphere(count)
        u = _halton(count, dim)
        from scipy.special import ndtri

        g = ndtri(np.clip(u, 1e-12, 1 - 1e-12))
        nrm = np.linalg.norm(g, axis=1)
        nrm[nrm == 0] = 1.0
        return np.ascontiguousarray(g / nrm[:, None])
    if mode != "sphere":
        raise ValueError(f"unknown sampling mode {mode!r}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((count, dim))
    nrm = np.linalg.norm(g, axis=1)
    # resample the (measure-zero) degenerate rows deterministically
    while np.any(nrm < 1e-12):
        bad = nrm < 1e-12
        g[bad] = rng.standard_normal((int(bad.sum()), dim))
        nrm = np.linalg.norm(g, axis=1)
    return g / nrm[:, None]


def random_rotation(dim: int, seed: int) -> np.ndarray:
    """Uniform random rotation matrix (det +1), deterministic in seed."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def hull_interior_margin(vectors: np.ndarray) -> float | np.ndarray:
    """Margin by which the origin sits inside conv(rows of ``vectors``).

    For d+1 vectors in R^d that affinely span, the convex combination with
    sum(lam) = 1 and sum(lam_i v_i) = 0 is unique; the margin is min(lam_i),
    negative when the combination leaves the simplex (the origin outside the
    hull: -1.0 for the rows (1, .1), (1, -.1), (2, 0)).  Returns 0.0 when
    the system is singular.  Margin > 0 iff the origin is strictly inside
    the hull.  A stack (N, d+1, d) of such arrays gives an array of N
    margins, each with the bits of its own solve: one stacked solve, or one
    solve per array when one system of the stack is exactly singular.
    """
    v = np.asarray(vectors, dtype=float)
    if v.ndim not in (2, 3) or v.shape[-2] != v.shape[-1] + 1:
        raise ValueError(f"need one or a stack of (d+1, d) arrays, got shape {v.shape}")
    d = v.shape[-1]
    a = np.concatenate([np.swapaxes(v, -1, -2), np.ones(v.shape[:-2] + (1, d + 1))], axis=-2)
    rhs = np.zeros(d + 1)
    rhs[-1] = 1.0
    try:
        lam = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        return np.array([hull_interior_margin(x) for x in v]) if v.ndim == 3 else 0.0
    return lam.min(axis=-1) if v.ndim == 3 else float(lam.min())
