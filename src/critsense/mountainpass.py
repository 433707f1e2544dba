"""Discretized minimax path search between two peaks on a convex domain.

Between two probe-verified local maxima, the pass value is the largest
achievable minimum of f along a connecting path. Piecewise-linear paths
are improved by projected gradient ascent on their minimal knots; the
final pass point is certified either as an interior critical point or as
a boundary point where the level set runs tangent to the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detect import refine_newton
from .domains import Domain, sphere_directions
from .errors import (ConvexityError, NoConvergenceError, NoSeparationError,
                     PreconditionError, UsageError)
from .fields import ScalarField
from .homindex import bisect_root, sign_change_brackets

_SMOOTH = 0.3
_BOW_FACTORS = (-0.6, 0.0, 0.6)
_PATH_TOL = 1e-9  # how far below f(p1) a pass value must sit


@dataclass
class PassResult:
    p3: np.ndarray
    c: float
    kind: str  # "InteriorCritical" or "BoundaryTangency"
    path: np.ndarray
    certificate: dict
    f_p1: float
    f_p2: float


def _perp_direction(delta: np.ndarray) -> np.ndarray | None:
    d = len(delta)
    if d < 2:
        return None
    n = np.linalg.norm(delta)
    if n == 0:
        return None
    u = delta / n
    if d == 2:
        return np.array([-u[1], u[0]])
    basis = np.eye(d)
    cand = basis[int(np.argmin(np.abs(u)))]
    v = cand - np.dot(cand, u) * u
    return v / np.linalg.norm(v)


def _initial_path(p1, p2, n_knots: int, bow: float) -> np.ndarray:
    if n_knots < 1:
        raise UsageError("n_knots must be >= 1")
    t = np.linspace(0.0, 1.0, n_knots + 2)
    base = p1[None, :] + t[:, None] * (p2 - p1)[None, :]
    if bow != 0.0:
        perp = _perp_direction(p2 - p1)
        if perp is not None:
            amp = bow * 0.5 * float(np.linalg.norm(p2 - p1))
            base = base + (amp * np.sin(np.pi * t))[:, None] * perp[None, :]
    return base


def _resample_path(knots: np.ndarray) -> np.ndarray:
    """Redistribute knots to equal arc length along the polyline.

    Without this, ascent tears the path apart: knots drift up both
    peaks, the spanning segment skips the valley, and the knot minimum
    stops measuring the path minimum."""
    seg = np.linalg.norm(np.diff(knots, axis=0), axis=1)
    total = float(np.sum(seg))
    if total == 0.0:
        return knots.copy()
    s = np.concatenate([[0.0], np.cumsum(seg)])
    targets = np.linspace(0.0, total, len(knots))
    out = np.empty_like(knots)
    for j in range(knots.shape[1]):
        out[:, j] = np.interp(targets, s, knots[:, j])
    out[0] = knots[0]
    out[-1] = knots[-1]
    return out


def _ascend_path(field: ScalarField, domain: Domain, knots: np.ndarray):
    """Projected gradient ascent on the minimal knots with neighbor
    smoothing and arc-length resampling: 400 iterations from the step
    0.02 * diameter. The path minimum never decreases across accepted
    iterations. The end knots (the peaks) stay fixed; ``_initial_path``
    guarantees at least one movable knot."""
    step = 0.02 * domain.diameter
    knots = domain.project(knots)
    vals = np.asarray(field.value(knots), dtype=float)
    cur_min = float(np.min(vals[1:-1]))
    h = step
    for _ in range(400):
        if np.ptp(vals) == 0.0:
            break  # constant along the path, nothing to improve
        inner = knots[1:-1]
        ivals = vals[1:-1]
        tie_tol = 1e-12 * max(1.0, abs(cur_min))
        tied = ivals <= cur_min + tie_tol
        grads = field.grad(inner[tied])
        cand = knots.copy()
        cand[1:-1][tied] += h * grads
        # tangential-only smoothing: isotropic smoothing cuts corners,
        # dragging outward-bowed paths off the boundary they must hug
        mid = 0.5 * (cand[:-2] + cand[2:])
        disp = _SMOOTH * (mid - cand[1:-1])
        tang = cand[2:] - cand[:-2]
        tnorm = np.linalg.norm(tang, axis=1, keepdims=True)
        tang = np.divide(tang, tnorm, out=np.zeros_like(tang),
                         where=tnorm > 0)
        cand[1:-1] += np.sum(disp * tang, axis=1, keepdims=True) * tang
        cand = _resample_path(cand)
        cand[1:-1] = domain.project(cand[1:-1])
        cvals = np.asarray(field.value(cand), dtype=float)
        new_min = float(np.min(cvals[1:-1]))
        if new_min >= cur_min:
            knots, vals, cur_min = cand, cvals, new_min
            h = min(h * 1.2, step * 10.0)
        else:
            h *= 0.5
            if h < 1e-15 * max(1.0, step):
                break
    return knots, cur_min


def _probe_local_max(field: ScalarField, domain: Domain, p: np.ndarray,
                     radius: float) -> bool:
    """Whether f is lower at every probe inside the domain on a sphere of
    48 directions (2 in 1-d) around ``p``. A quarter of the probes, and
    at least two, must be inside; the radius halves up to four times to
    get them."""
    fp = float(field.value(p))
    dirs = sphere_directions(field.dim, 48)
    r = radius
    for _ in range(5):
        ring = p[None, :] + r * dirs
        ok = np.asarray(domain.contains(ring))
        if np.sum(ok) >= max(2, len(dirs) // 4):
            return bool(np.all(np.asarray(field.value(ring[ok])) < fp))
        r *= 0.5
    return False


def _boundary_tangency(field: ScalarField, curves: list, p: np.ndarray):
    """Boundary point near ``p`` where the level set runs tangent to the
    boundary pieces ``curves`` of a 2-d domain.

    h is the tangential derivative along the piece whose line passes
    nearest ``p``; the sign change of h nearest ``p`` in a window around
    it is bisected: +-0.6 rad on a closed curve, +-0.3 of the length,
    clipped to the piece, on an edge. Returns ``(point, |h| there)``, or
    None when h keeps its sign over the window.
    """
    def offset(c):
        t = c.locate(p)
        return abs(float(np.dot(p - c.point(t), c.normal(t))))

    c = min(curves, key=offset)
    t0 = c.locate(p)
    if c.cyclic:
        ts = t0 + np.linspace(-0.6, 0.6, 96)
    else:
        ts = np.linspace(max(0.02 * c.length, t0 - 0.3 * c.length),
                         min(0.98 * c.length, t0 + 0.3 * c.length), 64)

    def h(t: float) -> float:
        return float(np.dot(field.grad(c.point(t)), c.tangent(t)))

    hs = np.array([h(t) for t in ts])
    brackets = sign_change_brackets(ts, hs, 0.0, cyclic=False)
    if not brackets:
        return None
    a, b, fa, _ = min(brackets, key=lambda br: abs(0.5 * (br[0] + br[1]) - t0))
    t = bisect_root(h, a, b, fa)
    return c.point(t), abs(h(t))


def mountain_pass_point(field: ScalarField, domain: Domain, p1, p2,
                        n_knots: int = 16,
                        pass_tol: float = 1e-6) -> PassResult:
    """Best pass point between the peaks ``p1`` and ``p2``.

    Three initial paths (straight plus two perpendicular bows) are
    optimized independently; the highest pass value wins, ties broken by
    lexicographically smaller pass point. The winning minimum is then
    certified: interior Newton refinement when it lands inside, else a
    tangency root-find on the boundary.
    """
    if not domain.convex:
        raise ConvexityError("theorem requires a convex domain")
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    for name, p in (("p1", p1), ("p2", p2)):
        if not _probe_local_max(field, domain, p, 0.02 * domain.diameter):
            raise PreconditionError(f"{name} is not a probe-verified "
                                    "local maximum", point=p.tolist())
    f1, f2 = float(field.value(p1)), float(field.value(p2))
    if f1 > f2:
        p1, p2, f1, f2 = p2, p1, f2, f1

    candidates = []
    for bow in _BOW_FACTORS:
        knots = _initial_path(p1, p2, n_knots, bow)
        path, value = _ascend_path(field, domain, knots)
        inner = path[1:-1]
        vals = np.asarray(field.value(inner), dtype=float)
        argmin = inner[int(np.argmin(vals))]
        candidates.append((value, tuple(argmin), path))
    candidates.sort(key=lambda c: (-c[0], c[1]))
    best_value, p3_raw, best_path = candidates[0]
    p3_raw = np.array(p3_raw)

    if best_value >= f1 - _PATH_TOL:
        raise NoSeparationError(
            "no path dips below the lower peak",
            best_value=best_value, f_p1=f1)

    spacing = float(np.max(np.linalg.norm(np.diff(best_path, axis=0),
                                          axis=1)))
    # interior branch
    interior = None
    try:
        q = refine_newton(field, p3_raw, tol=min(pass_tol, 1e-9) * 1e-3,
                          max_iter=200)
        if (domain.boundary_distance(q) > 1e-9
                and np.linalg.norm(q - p3_raw) <= 3.0 * spacing
                and float(field.value(q)) < f1 - _PATH_TOL):
            interior = q
    except NoConvergenceError:
        interior = None
    if interior is not None:
        c = float(field.value(interior))
        gn = float(np.linalg.norm(field.grad(interior)))
        if gn <= pass_tol:
            return PassResult(interior, c, "InteriorCritical", best_path,
                              {"grad_norm": gn}, f1, f2)

    # boundary branch: only when the optimized path actually pressed
    # against the boundary at its minimum
    near = domain.boundary_distance(p3_raw) <= max(2.0 * spacing,
                                                   1e-3 * domain.diameter)
    hit = None
    if near and domain.dim == 2:
        hit = _boundary_tangency(field, domain.boundary_curves(),
                                 domain.project(p3_raw))
    if hit is not None:
        p3, align = hit
        c = float(field.value(p3))
        if align <= pass_tol and c < f1 - _PATH_TOL:
            return PassResult(np.asarray(p3), c, "BoundaryTangency",
                              best_path, {"boundary_alignment": align},
                              f1, f2)
    raise NoConvergenceError(
        "pass point failed both certificates",
        p3_raw=p3_raw.tolist(), best_value=best_value)
