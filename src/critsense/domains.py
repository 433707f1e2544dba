"""Compact convex domains: intervals, boxes, and balls.

All three are contractible (Euler characteristic 1), which is what the
index audits target. An interval is a 1-d box. Points are always
length-``dim`` vectors, including the one-dimensional case. The 2-d box
and disk also give their boundary as smooth pieces (``boundary_curves``).
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Callable, NamedTuple

import numpy as np

from .errors import UnsupportedError, UsageError

LATTICE_LIMIT_BYTES = 1 << 27  # the largest lattice array a run may build


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


class BoundaryCurve(NamedTuple):
    """One smooth piece of a 2-d boundary, parametrized on ``[0, length)``.

    ``point(t)``, the unit counter-clockwise ``tangent(t)`` and the outward
    unit ``normal(t)`` are ``(..., 2)`` for ``t`` of shape ``(...)``;
    ``locate(p)`` is the parameter of the point nearest ``p`` on the piece
    or on its extension. A ``cyclic`` piece closes on itself and is
    parametrized by angle.
    """

    point: Callable
    tangent: Callable
    normal: Callable
    locate: Callable
    length: float
    cyclic: bool


def _pair(a, b) -> np.ndarray:
    """``a`` and ``b`` stacked on a new last axis; a 2-vector for scalars,
    built without ``np.stack``'s overhead, as bisection calls it often."""
    if isinstance(a, np.ndarray):
        return np.stack([a, b], axis=-1)
    return np.array([a, b])


def _constant(v) -> Callable:
    """``t -> v``, broadcast to the shape of an array ``t``."""
    v = np.array(v)
    v.flags.writeable = False
    return lambda t: np.broadcast_to(v, t.shape + v.shape) if isinstance(
        t, np.ndarray) else v


# the four box edges from the bottom one: unit tangent, tangent(u), normal(u)
_BOX_EDGES = [(np.array(t), _constant(t), _constant(n)) for t, n in (
    ((1.0, 0.0), (0.0, -1.0)), ((0.0, 1.0), (1.0, 0.0)),
    ((-1.0, 0.0), (0.0, 1.0)), ((0.0, -1.0), (-1.0, 0.0)))]


class Domain:
    """Base class; concrete domains implement the geometric queries."""

    dim: int
    euler_char: int = 1

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

    def boundary_frames(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """About ``n`` boundary samples, exact to machine precision, with
        outward unit normals, ``(m, dim)`` each."""
        raise NotImplementedError

    def boundary_curves(self) -> list[BoundaryCurve]:
        """2-d only: the boundary as smooth pieces, counter-clockwise."""
        raise UnsupportedError(
            f"no boundary curves for {self.dim}-d {type(self).__name__}")

    @property
    def diameter(self) -> float:
        lo, hi = self.bounding_box()
        return float(np.linalg.norm(hi - lo))

    def lattice(self, res: int) -> np.ndarray:
        """Full lattice over the bounding box, shape ``(res+1,)*dim + (dim,)``.
        A lattice over ``LATTICE_LIMIT_BYTES`` is refused before any of it
        is built."""
        nbytes = 8 * (int(res) + 1) ** self.dim * self.dim
        if nbytes > LATTICE_LIMIT_BYTES:
            raise UsageError(
                f"a lattice at grid {res} would take {nbytes} bytes, over "
                f"the limit of {LATTICE_LIMIT_BYTES}", bytes=nbytes,
                limit=LATTICE_LIMIT_BYTES, grid_res=res)
        lo, hi = self.bounding_box()
        axes = [np.linspace(lo[i], hi[i], res + 1) for i in range(self.dim)]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


class LatticeUnionFind:
    """Union-find over lattice vertices joined by the full 3^d stencil.

    A vertex is a flat index into the lattice padded by one layer on every
    side, so its neighbours are its index plus fixed ``offsets`` and never
    wrap to another row; padding vertices are never added. ``count`` is
    the number of components among the added vertices.
    """

    def __init__(self, shape):
        self.shape = tuple(s + 2 for s in shape)
        centre = np.ravel_multi_index((1,) * len(shape), self.shape)
        self.offsets = [
            int(np.ravel_multi_index(np.add(o, 1), self.shape)) - centre
            for o in itertools.product((-1, 0, 1), repeat=len(shape))
            if any(o)]
        self.parent = [-1] * int(np.prod(self.shape))  # -1: not added
        self.count = 0

    def find(self, i: int) -> int:
        parent = self.parent
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]  # path halving
        return i

    def add(self, i: int) -> None:
        """Add vertex ``i`` and join it to its added neighbours."""
        parent = self.parent
        roots = set()
        for o in self.offsets:
            r = parent[i + o]
            if r >= 0:
                roots.add(r if parent[r] == r else self.find(r))
        self.count += 1 - len(roots)
        # hang the vertex and the other trees under one existing root, so
        # a growing component keeps its root and its depth
        root = roots.pop() if roots else i
        parent[i] = root
        for r in roots:
            parent[r] = root

    def path(self, a: int, b: int) -> list:
        """A breadth-first path of added vertices from ``a`` to ``b``."""
        prev = {a: a}
        queue = deque([a])
        while b not in prev:
            i = queue.popleft()
            for j in [i + o for o in self.offsets]:
                if self.parent[j] >= 0 and j not in prev:
                    prev[j] = i
                    queue.append(j)
        out = [b]
        while out[-1] != a:
            out.append(prev[out[-1]])
        return out[::-1]


def components(mask) -> int:
    """Connected components of the true cells of ``mask`` under the full
    3^d stencil."""
    uf = LatticeUnionFind(np.shape(mask))
    for i in np.flatnonzero(np.pad(mask, 1)).tolist():
        uf.add(i)
    return uf.count


def superlevel_join(values, inside, a, b):
    """Sweep the ``inside`` vertices of a lattice of ``values`` from the
    top until the vertices ``a`` and ``b`` (index tuples, both inside)
    join.

    Vertices enter in descending value, ties in flat order (a stable
    sort). Returns the joining vertex and a breadth-first path of swept
    vertices from ``a`` to ``b``, ``(m, d)`` indices. Every such path runs
    through the joining vertex, so its value is the path's minimum: the
    lattice pass value between ``a`` and ``b``.
    """
    uf = LatticeUnionFind(np.shape(values))
    flat = np.flatnonzero(np.pad(inside, 1))
    order = flat[np.argsort(-np.pad(values, 1).ravel()[flat], kind="stable")]
    a, b = (int(np.ravel_multi_index(np.add(p, 1), uf.shape)) for p in (a, b))
    for i in order.tolist():
        uf.add(i)
        if min(uf.parent[a], uf.parent[b]) >= 0 and uf.find(a) == uf.find(b):
            break
    path = np.stack(np.unravel_index(uf.path(a, b), uf.shape), axis=-1) - 1
    return tuple(int(x) - 1 for x in np.unravel_index(i, uf.shape)), path


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
        return ((p >= self.lo - tol) & (p <= self.hi + tol)).all(axis=-1)

    def boundary_distance(self, s):
        p = np.asarray(s, dtype=float)
        return np.minimum(p - self.lo, self.hi - p).min(axis=-1)

    def project(self, s):
        return np.clip(np.asarray(s, dtype=float), self.lo, self.hi)

    def bounding_box(self):
        return self.lo.copy(), self.hi.copy()

    def boundary_curves(self) -> list[BoundaryCurve]:
        """2-d only: the four edges from the lower-left corner, in arc
        length."""
        if self.dim != 2:
            return super().boundary_curves()
        (x0, y0), (x1, y1) = self.lo, self.hi
        starts = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])
        return [BoundaryCurve(lambda u, s=s, v=v: s + np.multiply.outer(u, v),
                              tangent, normal,
                              lambda p, s=s, v=v: float(np.dot(p - s, v)),
                              float(length), False)
                for s, length, (v, tangent, normal) in zip(
                    starts, (x1 - x0, y1 - y0) * 2, _BOX_EDGES)]

    def boundary_frames(self, n: int):
        """The ends of an interval; ``n // 4`` samples along each edge of
        a 2-d box from its start corner; for dim >= 3, a coarse lattice on
        each face, with normal -e_axis or +e_axis."""
        if self.dim == 1:
            return _endpoint_frames(self.lo[0], self.hi[0])
        pts, normals = [], []
        if self.dim == 2:
            for c in self.boundary_curves():
                t = np.linspace(0.0, c.length, max(2, n // 4),
                                endpoint=False)
                pts.append(c.point(t))
                normals.append(c.normal(t))
            return np.concatenate(pts), np.concatenate(normals)
        per_axis = max(2, int(round(n ** (1.0 / (self.dim - 1)))))
        for ax, e in enumerate(np.eye(self.dim)):
            others = [np.linspace(self.lo[i], self.hi[i], per_axis)
                      for i in range(self.dim) if i != ax]
            mesh = np.meshgrid(*others, indexing="ij")
            flat = np.stack([m.ravel() for m in mesh], axis=-1)
            for val, nrm in ((self.lo[ax], -e), (self.hi[ax], e)):
                pts.append(np.insert(flat, ax, val, axis=1))
                normals.append(np.broadcast_to(nrm, (len(flat), self.dim)))
        return np.concatenate(pts), np.concatenate(normals)


class Interval(Box):
    """``[a, b]`` on the line: a 1-d box."""

    def __init__(self, a: float, b: float):
        if not np.isfinite([a, b]).all():
            raise UsageError(f"interval [{a}, {b}] is not finite")
        if not b > a:
            raise UsageError(f"empty interval [{a}, {b}]")
        super().__init__([a], [b])
        self.a = float(a)
        self.b = float(b)

    def __repr__(self):
        return f"Interval({self.a}, {self.b})"

    def descriptor(self) -> str:
        return f"interval:{self.a:g},{self.b:g}"


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

    def boundary_curves(self) -> list[BoundaryCurve]:
        """2-d only: the circle as one cyclic piece in polar angle."""
        if self.dim != 2:
            return super().boundary_curves()
        c, r = self.center, self.radius
        return [BoundaryCurve(
            lambda t: c + r * _pair(np.cos(t), np.sin(t)),
            lambda t: _pair(-np.sin(t), np.cos(t)),
            lambda t: _pair(np.cos(t), np.sin(t)),
            lambda p: float(np.arctan2(p[1] - c[1], p[0] - c[0])),
            2.0 * np.pi, True)]

