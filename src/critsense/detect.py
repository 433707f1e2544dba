"""Critical point location, refinement, and audit statistics.

The detector scans a lattice for cells whose gradient components can all
plausibly cross zero, refines each candidate by Newton iteration with a
Levenberg-damped fallback for singular Hessians, deduplicates, and attaches
index-based classifications. Cells whose refinement diverges are reported,
never dropped.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.optimize import least_squares

from .domains import Domain
from .errors import NoConvergenceError, UsageError
from .fields import ScalarField, sym_eigvalsh
from .morse import morse_classify
from . import homindex

_SIGN_SLACK = 0.5  # relaxed cell test: catches touch zeros like 3x^2
_DET_FLOOR = 1e-10


@dataclass
class CriticalPoint:
    location: np.ndarray
    value: float
    grad_norm: float
    hess_spectrum: np.ndarray
    morse_index: int | None = None  # None: Hessian numerically singular
    hom_index: int | None = None    # None: unavailable (degenerate, D >= 3)
    classification: str = "Unclassified"
    near_boundary: bool = False

    def as_record(self) -> dict:
        return {
            "location": self.location.tolist(),
            "value": self.value,
            "grad_norm": self.grad_norm,
            "eigenvalues": self.hess_spectrum.tolist(),
            "morse_index": self.morse_index,
            "hom_index": self.hom_index,
            "classification": self.classification,
            "near_boundary": self.near_boundary,
        }


class DetectionResult(list):
    """List of critical points plus the cells that refused to resolve."""

    def __init__(self, points: list, unresolved: list):
        super().__init__(points)
        self.unresolved = unresolved


def _newton_polish(field: ScalarField, x: np.ndarray, gn: float,
                   tol: float, iters: int):
    """Unsafeguarded Newton on the gradient system, keeping the best
    iterate by gradient norm.

    Monotone line searches stall on degenerate zeros: the full step
    overshoots the curved valley and |grad f| oscillates, yet the orbit
    itself contracts. Run only after the safeguarded phase localized the
    zero; a distance guard aborts genuine divergence.
    """
    best_x, best_gn = x.copy(), gn
    cur = x.copy()
    scale = max(1.0, float(np.linalg.norm(x)))
    stall = 0
    for _ in range(iters):
        g = field.grad(cur)
        gnc = float(np.linalg.norm(g))
        if np.isfinite(gnc) and gnc < best_gn:
            best_x, best_gn = cur.copy(), gnc
            stall = 0
        else:
            stall += 1
            if stall > 30:
                break
        if best_gn <= tol:
            break
        H = field.hess(cur)
        try:
            step = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            break
        cur = cur + step
        if (not np.all(np.isfinite(cur))
                or np.linalg.norm(cur - best_x) > 1e3 * scale):
            break
    return best_x, best_gn


def refine_newton(field: ScalarField, s0, tol: float = 1e-9,
                  max_iter: int = 80):
    """Drive the gradient to ``tol`` from ``s0``.

    Newton steps while the Hessian is comfortably nonsingular; otherwise a
    Levenberg-damped least-squares step on the gradient, which still
    contracts on degenerate zeros (Peano-type valleys defeat plain damped
    descent). Raises NoConvergence with the best iterate attached.
    """
    x = np.asarray(s0, dtype=float).copy()
    d = field.dim
    mu = 1e-3
    force_damped = False
    g = field.grad(x)
    gn = float(np.linalg.norm(g))
    best_x, best_gn = x.copy(), gn
    for _ in range(max_iter):
        if gn <= tol:
            return x
        H = field.hess(x)
        hnorm = float(np.max(np.abs(H))) + 1e-300
        det = float(np.linalg.det(H))
        use_newton = (not force_damped) and abs(det) >= _DET_FLOOR * hnorm**d
        delta = None
        if use_newton:
            try:
                delta = np.linalg.solve(H, -g)
            except np.linalg.LinAlgError:
                use_newton = False
        if not use_newton:
            A = H.T @ H
            lam = mu * (float(np.trace(A)) / d + 1e-300)
            try:
                delta = np.linalg.solve(A + lam * np.eye(d), -H.T @ g)
            except np.linalg.LinAlgError:
                raise NoConvergenceError("normal equations singular",
                                         best=best_x.tolist(),
                                         grad_norm=best_gn)
        accepted = False
        for _ in range(25):
            xn = x + delta
            g_new = field.grad(xn)
            gn_new = float(np.linalg.norm(g_new))
            if gn_new < gn:
                x, g, gn = xn, g_new, gn_new
                accepted = True
                break
            delta = 0.5 * delta
        if accepted:
            mu = max(mu / 3.0, 1e-12)
            if gn < best_gn:
                best_x, best_gn = x.copy(), gn
        elif use_newton:
            # near-degenerate Hessian the determinant test missed
            force_damped = True
            mu = max(mu, 1e-3)
        else:
            mu *= 10.0
            if mu > 1e12:
                break
    if gn <= tol:
        return x

    # Monotone steps stall in curved |grad f| valleys around degenerate
    # zeros. Rescue with a trust-region least-squares pass, then an
    # unsafeguarded Newton polish (the nonmonotone orbit contracts where
    # line searches cannot).
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        res = least_squares(lambda s: field.grad(s), best_x,
                            jac=lambda s: field.hess(s), method="trf",
                            x_scale="jac", xtol=2.3e-16, ftol=2.3e-16,
                            gtol=None, max_nfev=max(600, 4 * max_iter))
    rgn = float(np.linalg.norm(field.grad(res.x)))
    if np.isfinite(rgn) and rgn < best_gn:
        best_x, best_gn = np.asarray(res.x, dtype=float), rgn
    if best_gn <= tol:
        return best_x
    px, pgn = _newton_polish(field, best_x, best_gn, tol, max(120, max_iter))
    if pgn <= tol:
        return px
    if pgn < best_gn:
        best_x, best_gn = px, pgn
    raise NoConvergenceError("gradient refinement stalled",
                             best=best_x.tolist(), grad_norm=best_gn,
                             tol=tol)


def _candidate_cells(g: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """Boolean mask over cells passing the relaxed per-component sign test."""
    d = g.shape[-1]
    corner_slices = list(itertools.product((slice(None, -1), slice(1, None)),
                                           repeat=d))
    lo = None
    hi = None
    any_inside = None
    for sl in corner_slices:
        c = g[sl]
        lo = c if lo is None else np.minimum(lo, c)
        hi = c if hi is None else np.maximum(hi, c)
        ins = inside[sl]
        any_inside = ins if any_inside is None else (any_inside | ins)
    rng = hi - lo
    ok = np.all((lo <= _SIGN_SLACK * rng) & (hi >= -_SIGN_SLACK * rng),
                axis=-1)
    return ok & any_inside


def find_critical_points(field: ScalarField, domain: Domain,
                         grid_res: int = 32, newton_tol: float = 1e-9
                         ) -> DetectionResult:
    """Grid scan for gradient sign-change cells, Newton refinement,
    dedupe, and classification.

    Refined points closer than two cell diagonals are merged. Points
    landing within one grid cell of the boundary are flagged
    near_boundary. Ordering is lexicographic by location.
    """
    if grid_res < 8:
        raise UsageError("grid_res must be at least 8")
    d = field.dim
    if d != domain.dim:
        raise UsageError(f"field dim {d} vs domain dim {domain.dim}")
    lat = domain.lattice(grid_res)
    g = field.grad(lat)
    inside = domain.contains(lat)
    mask = _candidate_cells(g, inside)
    centers = 0.5 * (lat[(slice(None, -1),) * d] + lat[(slice(1, None),) * d])
    cells = centers[mask]

    lo, hi = domain.bounding_box()
    spacing = (hi - lo) / grid_res
    dedupe_radius = 2.0 * float(np.linalg.norm(spacing))
    boundary_margin = float(np.max(spacing))

    refined = []
    unresolved = []
    for c in cells:
        try:
            x = refine_newton(field, c, tol=newton_tol)
        except NoConvergenceError as exc:
            unresolved.append({"cell_center": c.tolist(),
                               "best": exc.context.get("best"),
                               "grad_norm": exc.context.get("grad_norm")})
            continue
        if not bool(domain.contains(x, tol=1e-9)):
            continue  # the cell's pull was toward a zero outside the domain
        refined.append(x)

    # dedupe: strongest (smallest gradient) representative wins
    scored = []
    for x in refined:
        gn = float(np.linalg.norm(field.grad(x)))
        scored.append((gn, tuple(x.tolist()), x))
    scored.sort(key=lambda t: (t[0], t[1]))
    kept: list[tuple[float, np.ndarray]] = []
    for gn, _, x in scored:
        if all(np.linalg.norm(x - y) >= dedupe_radius for _, y in kept):
            kept.append((gn, x))
    kept.sort(key=lambda k: tuple(k[1].tolist()))

    locs = [x for _, x in kept]
    points = []
    for i, (gn, x) in enumerate(kept):
        spec = sym_eigvalsh(field.hess(x))
        value = float(field.value(x))
        near = bool(domain.boundary_distance(x) < boundary_margin)
        # At a degenerate zero the refined point sits a residual-sized
        # step away, leaving spurious eigenvalues of order sqrt(|grad|).
        dtol = max(1e-8, 10.0 * float(np.sqrt(max(gn, 0.0))))
        morse_index = morse_classify(field, x, degeneracy_tol=dtol)
        probe = homindex.probe_radius(x, locs[:i] + locs[i + 1:], domain)
        hom_index, cls = homindex.classify_by_index(field, x, probe)
        points.append(CriticalPoint(x, value, gn, spec, morse_index,
                                    hom_index, cls, near))
    return DetectionResult(points, unresolved)


def resolution(points) -> float:
    """Minimum pairwise distance; +inf when fewer than two points."""
    locs = [np.asarray(getattr(p, "location", p), dtype=float)
            for p in points]
    if len(locs) < 2:
        return float("inf")
    best = np.inf
    for i in range(len(locs)):
        for j in range(i + 1, len(locs)):
            best = min(best, float(np.linalg.norm(locs[i] - locs[j])))
    return best


def boundary_min_gradient(field: ScalarField, domain: Domain) -> float:
    """Infimum of |grad f| over 256 boundary samples; positive certifies
    the no-boundary-critical-point assumption numerically."""
    g = field.grad(domain.boundary_frames(256)[0])
    return float(np.min(np.linalg.norm(g, axis=-1)))


def improper_extrema(field: ScalarField, domain: Domain,
                     grid_res: int = 64) -> dict:
    """Counts of weak local maxima and minima over the interior lattice.

    A node qualifies when its full 3^D neighbor stencil exists and lies
    inside the domain, and comparisons use a relative tolerance so exact
    plateaus tie. Tied plateau components count once (full-connectivity
    labeling)."""
    d = field.dim
    lat = domain.lattice(grid_res)
    v = np.asarray(field.value(lat), dtype=float)
    inside = np.asarray(domain.contains(lat))
    tau = 1e-12 * max(1.0, float(np.max(np.abs(v))))

    core = tuple(slice(1, -1) for _ in range(d))
    vc = v[core]
    ge_all = np.ones(vc.shape, dtype=bool)
    le_all = np.ones(vc.shape, dtype=bool)
    valid = inside[core].copy()
    for off in itertools.product((0, 1, 2), repeat=d):
        if off == (1,) * d:
            continue
        sl = tuple(slice(o, o + s) for o, s in zip(off, vc.shape))
        vn = v[sl]
        ge_all &= vc >= vn - tau
        le_all &= vc <= vn + tau
        valid &= inside[sl]

    structure = np.ones((3,) * d, dtype=int)
    _, n_max = ndimage.label(ge_all & valid, structure=structure)
    _, n_min = ndimage.label(le_all & valid, structure=structure)
    return {"n_improper_max": int(n_max), "n_improper_min": int(n_min)}
