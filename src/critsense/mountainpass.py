"""Mountain pass between two peaks on a convex domain.

The pass value between two probe-verified local maxima is the level at
which their superlevel sets {f >= c} first join; a union-find sweep of a
lattice from the top finds it exactly there (Carr, Snoeyink & Axen 2003,
Comput. Geom. 24:75-94). A peak is probe-verified by the rule of
``classify --point``: it lies strictly inside the domain, and
``classify_by_index`` at its ``probe_radius`` calls it Max. The joining
vertex seeds the pass point, which is certified either as an interior
critical point or as a boundary point where the level set runs tangent to
the boundary, found as the audit finds its tangential zeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detect import refine_newton
from .domains import Domain, superlevel_join
from .errors import (NoConvergenceError, NoSeparationError,
                     PreconditionError, UsageError)
from .fields import ScalarField, bisect_root, row_dots
from .homindex import classify_by_index, probe_radius, tangential_zeros

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


def _boundary_tangency(field: ScalarField, curves: list, p: np.ndarray):
    """Boundary point near ``p`` where the level set runs tangent to the
    boundary pieces ``curves`` of a 2-d domain.

    On the piece whose line passes nearest ``p``, the tangential zero
    nearest ``p`` in a window around it (see
    :func:`~critsense.homindex.tangential_zeros`): +-0.6 rad on a closed
    curve, +-0.3 of the length, clipped to the piece, on an edge, sampled
    by one gradient call. Returns ``(point, |grad f . tangent| there)``,
    or None when the window holds no sign change.
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
    hs = row_dots(field.grad(c.point(ts)), c.tangent(ts))
    zeros = tangential_zeros(field, c, ts, hs, 0.0, cyclic=False)
    if not zeros:
        return None
    t = min(zeros, key=lambda z: abs(z[0] - t0))[0]
    q = c.point(t)
    return q, abs(float(np.dot(field.grad(q), c.tangent(t))))


def mountain_pass_point(field: ScalarField, domain: Domain, p1, p2,
                        grid_res: int = 64,
                        pass_tol: float = 1e-6) -> PassResult:
    """Pass point between the peaks ``p1`` and ``p2``.

    ``domain.lattice(grid_res)`` is swept from the top until the vertices
    nearest the peaks join at a vertex v of value c_h; ``path`` is p1, a
    breadth-first lattice path inside {f >= c_h}, then p2. Newton
    refinement, else a tangency root-find on the boundary, certifies the
    pass from v, or from the minimum of f on a path segment at v along
    which the derivative changes sign. Each peak is probe-verified (see
    the module docstring) with ``(p1, p2)`` as the zeros its radius sees.
    """
    if grid_res < 8:
        raise UsageError("grid_res must be at least 8")
    p1, p2 = np.asarray(p1, dtype=float), np.asarray(p2, dtype=float)
    for name, p in (("p1", p1), ("p2", p2)):
        if not (domain.boundary_distance(p) > 0 and classify_by_index(
                field, p, probe_radius(p, (p1, p2), domain))[1] == "Max"):
            raise PreconditionError(f"{name} is not a probe-verified "
                                    "local maximum", point=p.tolist())
    f1, f2 = float(field.value(p1)), float(field.value(p2))
    if f1 > f2:
        p1, p2, f1, f2 = p2, p1, f2, f1

    lat = domain.lattice(grid_res)
    vals = np.asarray(field.value(lat), dtype=float)
    inside = np.asarray(domain.contains(lat))
    ends = [np.unravel_index(np.argmin(np.where(
        inside, np.linalg.norm(lat - p, axis=-1), np.inf)), inside.shape)
        for p in (p1, p2)]
    v, idx = superlevel_join(vals, inside, *ends)
    best_value = float(vals[v])
    if best_value >= f1 - _PATH_TOL:
        raise NoSeparationError(
            "no path dips below the lower peak",
            best_value=best_value, f_p1=f1)

    path = np.concatenate([p1[None], lat[tuple(idx.T)], p2[None]])
    k = 1 + int(np.flatnonzero(np.all(idx == v, axis=1))[0])
    lows = []  # minima of f inside the two path segments at v
    for e in (path[k - 1] - path[k], path[k + 1] - path[k]):
        def slope(t: float) -> float:
            return float(np.dot(field.grad(path[k] + t * e), e))

        s0 = slope(0.0)
        if s0 < 0.0 < slope(1.0):
            lo, hi = bisect_root(slope, 0.0, 1.0, s0)
            lows.append(path[k] + 0.5 * (lo + hi) * e)
    p3_raw = min(lows, key=lambda m: float(field.value(m)),
                 default=path[k])
    spacing = domain.diameter / grid_res  # one cell diagonal
    try:
        q = refine_newton(field, p3_raw, tol=min(pass_tol, 1e-9) * 1e-3,
                          max_iter=200)
    except NoConvergenceError:
        q = None
    if (q is not None and domain.boundary_distance(q) > 1e-9
            and np.linalg.norm(q - p3_raw) <= 3.0 * spacing):
        c = float(field.value(q))
        gn = float(np.linalg.norm(field.grad(q)))
        if c < f1 - _PATH_TOL and gn <= pass_tol:
            return PassResult(q, c, "InteriorCritical", path,
                              {"grad_norm": gn}, f1, f2)
    # the boundary certificate, only where the lattice pass is near it
    if domain.dim == 2 and domain.boundary_distance(p3_raw) <= max(
            2.0 * spacing, 1e-3 * domain.diameter):
        hit = _boundary_tangency(field, domain.boundary_curves(),
                                 domain.project(p3_raw))
        if hit is not None:
            p3, align = hit
            c = float(field.value(p3))
            if align <= pass_tol and c < f1 - _PATH_TOL:
                return PassResult(np.asarray(p3), c, "BoundaryTangency",
                                  path, {"boundary_alignment": align},
                                  f1, f2)
    raise NoConvergenceError(
        "pass point failed both certificates",
        p3_raw=p3_raw.tolist(), best_value=best_value)
