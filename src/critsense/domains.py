"""Compact convex domains: intervals, boxes, and balls.

All three are contractible (Euler characteristic 1), which is what the
index audits target. Points are always length-``dim`` vectors, including
the one-dimensional case.
"""

from __future__ import annotations

import numpy as np

from .errors import UsageError


def ring_angles(n: int) -> np.ndarray:
    """``n`` polar angles in ``(0, 2 pi)``, offset by half a step."""
    return 2.0 * np.pi * (np.arange(n) + 0.5) / n


def sphere_directions(d: int, n: int) -> np.ndarray:
    """Deterministic unit vectors ``(m, d)`` for probing around a point.

    ``d = 1``: the two directions +1, -1 (``n`` is ignored). ``d = 2``: a
    ring of ``n`` angles offset by half a step, which keeps symmetric
    fields off exact sample zeros. ``d = 3``: a Fibonacci lattice of ``n``
    points. Higher ``d``: ``n`` normalized normals from a fixed seed.
    """
    if d == 1:
        return np.array([[1.0], [-1.0]])
    if d == 2:
        theta = ring_angles(n)
        return np.column_stack([np.cos(theta), np.sin(theta)])
    if d == 3:
        i = np.arange(n, dtype=float) + 0.5
        phi = np.arccos(1.0 - 2.0 * i / n)
        theta = np.pi * (1.0 + 5.0**0.5) * i
        return np.column_stack([np.sin(phi) * np.cos(theta),
                                np.sin(phi) * np.sin(theta), np.cos(phi)])
    raw = np.random.default_rng(7).standard_normal((n, d))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def _endpoint_frames(a: float, b: float):
    """The boundary {a, b} of a 1-d domain with its outward normals."""
    return np.array([[a], [b]]), np.array([[-1.0], [1.0]])


class Domain:
    """Base class; concrete domains implement the geometric queries."""

    dim: int
    euler_char: int = 1
    convex: bool = True

    def contains(self, s, tol: float = 1e-12):
        raise NotImplementedError

    def boundary_distance(self, s):
        """Distance to the boundary, positive inside, negative outside."""
        raise NotImplementedError

    def project(self, s):
        """Euclidean projection onto the (convex) domain."""
        raise NotImplementedError

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def boundary_points(self, n: int) -> np.ndarray:
        """``(m, dim)`` sample of the boundary, exact to machine precision."""
        return self.boundary_frames(n)[0]

    def boundary_frames(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Boundary samples with outward unit normals, ``(m, dim)`` each."""
        raise NotImplementedError

    @property
    def diameter(self) -> float:
        lo, hi = self.bounding_box()
        return float(np.linalg.norm(hi - lo))

    def axes(self, res: int) -> list[np.ndarray]:
        """Per-axis lattice nodes (``res + 1`` each) spanning the bounding box."""
        lo, hi = self.bounding_box()
        return [np.linspace(lo[i], hi[i], res + 1) for i in range(self.dim)]

    def lattice(self, res: int) -> np.ndarray:
        """Full lattice over the bounding box, shape ``(res+1,)*dim + (dim,)``."""
        axes = self.axes(res)
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack(grids, axis=-1)


class Interval(Domain):
    """``[a, b]`` on the line."""

    dim = 1

    def __init__(self, a: float, b: float):
        if not np.isfinite([a, b]).all():
            raise UsageError(f"interval [{a}, {b}] is not finite")
        if not b > a:
            raise UsageError(f"empty interval [{a}, {b}]")
        self.a = float(a)
        self.b = float(b)

    def __repr__(self):
        return f"Interval({self.a}, {self.b})"

    def descriptor(self) -> str:
        return f"interval:{self.a:g},{self.b:g}"

    def contains(self, s, tol: float = 1e-12):
        x = np.asarray(s, dtype=float)[..., 0]
        return (x >= self.a - tol) & (x <= self.b + tol)

    def boundary_distance(self, s):
        x = np.asarray(s, dtype=float)[..., 0]
        return np.minimum(x - self.a, self.b - x)

    def project(self, s):
        x = np.asarray(s, dtype=float)
        return np.clip(x, self.a, self.b)

    def bounding_box(self):
        return np.array([self.a]), np.array([self.b])

    def boundary_frames(self, n: int):
        return _endpoint_frames(self.a, self.b)


class Box(Domain):
    """Axis-aligned product of intervals."""

    def __init__(self, lo, hi):
        self.lo = np.atleast_1d(np.asarray(lo, dtype=float))
        self.hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if self.lo.shape != self.hi.shape or self.lo.ndim != 1:
            raise UsageError("box corners must be 1-d and congruent")
        if not np.isfinite([self.lo, self.hi]).all():
            raise UsageError("box corners must be finite")
        if not np.all(self.hi > self.lo):
            raise UsageError("box has empty extent on some axis")
        self.dim = len(self.lo)

    def __repr__(self):
        return f"Box({self.lo.tolist()}, {self.hi.tolist()})"

    def descriptor(self) -> str:
        lo = ",".join(f"{v:g}" for v in self.lo)
        hi = ",".join(f"{v:g}" for v in self.hi)
        return f"box:{lo}:{hi}"

    def contains(self, s, tol: float = 1e-12):
        p = np.asarray(s, dtype=float)
        return np.all((p >= self.lo - tol) & (p <= self.hi + tol), axis=-1)

    def boundary_distance(self, s):
        p = np.asarray(s, dtype=float)
        return np.min(np.minimum(p - self.lo, self.hi - p), axis=-1)

    def project(self, s):
        return np.clip(np.asarray(s, dtype=float), self.lo, self.hi)

    def bounding_box(self):
        return self.lo.copy(), self.hi.copy()

    def edges(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """2-d only: per-edge (start, tangent, outward normal) with unit frames."""
        if self.dim != 2:
            raise UsageError("edges() is for 2-d boxes")
        (x0, y0), (x1, y1) = self.lo, self.hi
        return [
            (np.array([x0, y0]), np.array([1.0, 0.0]), np.array([0.0, -1.0])),
            (np.array([x1, y0]), np.array([0.0, 1.0]), np.array([1.0, 0.0])),
            (np.array([x1, y1]), np.array([-1.0, 0.0]), np.array([0.0, 1.0])),
            (np.array([x0, y1]), np.array([0.0, -1.0]), np.array([-1.0, 0.0])),
        ]

    def boundary_points(self, n: int) -> np.ndarray:
        if self.dim <= 2:
            return super().boundary_points(n)
        # faces sampled on a coarse lattice for dim >= 3
        per_axis = max(2, int(round(n ** (1.0 / (self.dim - 1)))))
        pts = []
        for ax in range(self.dim):
            others = [np.linspace(self.lo[i], self.hi[i], per_axis)
                      for i in range(self.dim) if i != ax]
            mesh = np.meshgrid(*others, indexing="ij")
            flat = np.stack([m.ravel() for m in mesh], axis=-1)
            for val in (self.lo[ax], self.hi[ax]):
                face = np.insert(flat, ax, val, axis=1)
                pts.append(face)
        return np.concatenate(pts, axis=0)

    def boundary_frames(self, n: int):
        if self.dim == 1:
            return _endpoint_frames(self.lo[0], self.hi[0])
        if self.dim != 2:
            raise UsageError("boundary_frames supports dim <= 2 boxes")
        per = max(2, n // 4)
        pts, normals = [], []
        for start, tang, nrm in self.edges():
            length = np.abs(self.hi - self.lo) @ np.abs(tang)
            t = np.linspace(0.0, length, per, endpoint=False)
            pts.append(start[None, :] + t[:, None] * tang[None, :])
            normals.append(np.repeat(nrm[None, :], per, axis=0))
        return np.concatenate(pts, axis=0), np.concatenate(normals, axis=0)


class Ball(Domain):
    """Closed Euclidean ball. ``dim`` is taken from the center vector."""

    def __init__(self, center, radius: float):
        self.center = np.atleast_1d(np.asarray(center, dtype=float))
        self.radius = float(radius)
        if not np.isfinite(self.center).all():
            raise UsageError("ball center must be finite")
        if not 0 < self.radius < np.inf:
            raise UsageError("ball radius must be positive and finite")
        self.dim = len(self.center)

    def __repr__(self):
        return f"Ball({self.center.tolist()}, {self.radius})"

    def descriptor(self) -> str:
        c = ",".join(f"{v:g}" for v in self.center)
        return f"ball:{c}:{self.radius:g}"

    def contains(self, s, tol: float = 1e-12):
        p = np.asarray(s, dtype=float)
        return np.linalg.norm(p - self.center, axis=-1) <= self.radius + tol

    def boundary_distance(self, s):
        p = np.asarray(s, dtype=float)
        return self.radius - np.linalg.norm(p - self.center, axis=-1)

    def project(self, s):
        p = np.asarray(s, dtype=float)
        off = p - self.center
        r = np.linalg.norm(off, axis=-1, keepdims=True)
        scale = np.where(r > self.radius, self.radius / np.maximum(r, 1e-300), 1.0)
        return self.center + off * scale

    def bounding_box(self):
        return self.center - self.radius, self.center + self.radius

    def boundary_frames(self, n: int):
        if self.dim == 1:
            return _endpoint_frames(self.center[0] - self.radius,
                                    self.center[0] + self.radius)
        if self.dim > 3:
            raise UsageError("ball boundaries sampled for dim <= 3 only")
        normals = sphere_directions(self.dim, n)
        return self.center + self.radius * normals, normals

    def angle_point(self, theta: float) -> np.ndarray:
        """2-d only: boundary point at polar angle ``theta``."""
        return self.center + self.radius * np.array([np.cos(theta), np.sin(theta)])

