"""Critical point location, refinement, and audit statistics.

The detector scans a lattice for cells whose gradient components can all
plausibly cross zero, refines all candidates together by Newton iteration
with a Levenberg-damped fallback for singular Hessians, deduplicates, and
attaches index-based classifications. Cells whose refinement diverges are
reported, never dropped; cells whose refinement leaves the domain's box
are listed apart, as escaped.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.optimize import least_squares

from .domains import Domain
from .errors import NoConvergenceError, UsageError
from .fields import ScalarField, row_norms, sym_eigvalsh
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
    """List of critical points plus the cells that refused to resolve and
    the cells whose refinement left the domain's box (``escaped``, kept in
    memory only)."""

    def __init__(self, points: list, unresolved: list, escaped: list):
        super().__init__(points)
        self.unresolved = unresolved
        self.escaped = escaped


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


def _solve(A: np.ndarray, b: np.ndarray):
    """Solve each ``A[i] x = b[i]``; returns ``(x, ok)``. A batched solve
    raises if any system is singular, so that case goes row by row."""
    x = np.empty_like(b)
    ok = np.ones(len(b), dtype=bool)
    if not len(b):
        return x, ok
    try:
        x[:] = np.linalg.solve(A, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        for i in range(len(b)):
            try:
                x[i] = np.linalg.solve(A[i], b[i])
            except np.linalg.LinAlgError:
                ok[i] = False
    return x, ok


def refine_newton(field: ScalarField, s0, tol: float = 1e-9,
                  max_iter: int = 80, box=None):
    """Drive the gradient to ``tol`` from ``s0``, one seed ``(d,)`` or a
    batch of seeds ``(m, d)``.

    Newton steps while the Hessian is comfortably nonsingular; otherwise a
    Levenberg-damped least-squares step on the gradient, which still
    contracts on degenerate zeros (Peano-type valleys defeat plain damped
    descent). ``box`` is an optional ``(lo, hi)`` pair: an accepted iterate
    outside it ends the seed as escaped.

    All seeds step in lockstep, one field call per step for the batch;
    each keeps its own damping and line search, so a seed's outcome does
    not depend on the rest of the batch. Seeds that stall above ``tol``
    go on, one at a time, to the rescue.

    One seed returns the refined point or raises NoConvergence with the
    best iterate attached (an escape raises it too). A batch returns one
    outcome per seed: the point, the NoConvergenceError, or None when the
    seed escaped.
    """
    s = np.asarray(s0, dtype=float)
    outcomes = _refine_batch(field, np.atleast_2d(s), tol, max_iter, box)
    if s.ndim == 2:
        return outcomes
    out = outcomes[0]
    if out is None:
        raise NoConvergenceError("iterate left the box",
                                 box=[np.asarray(b).tolist() for b in box],
                                 tol=tol)
    if isinstance(out, NoConvergenceError):
        raise out
    return out


def _refine_batch(field: ScalarField, X: np.ndarray, tol: float,
                  max_iter: int, box) -> list:
    """The outcomes of :func:`refine_newton` for the seeds ``X`` ``(m, d)``.

    The monotone phase keeps only the current iterate: a step is accepted
    only when it lowers |grad f|, so the current iterate is the best one.
    """
    m, d = X.shape
    X = X.copy()
    G = np.array(field.grad(X), dtype=float)
    GN = row_norms(G)
    mu = np.full(m, 1e-3)
    force_damped = np.zeros(m, dtype=bool)
    out: list = [None] * m
    live = np.arange(m)     # seeds still in the monotone phase
    stalled = []            # seeds that left it above tol
    for it in range(max_iter + 1):
        done = GN[live] <= tol
        for i in live[done]:
            out[i] = X[i].copy()
        live = live[~done]
        if not live.size or it == max_iter:
            break
        x, g, gn = X[live], G[live], GN[live]
        H = field.hess(x)
        hnorm = np.max(np.abs(H), axis=(-2, -1)) + 1e-300
        newton = (~force_damped[live]
                  & (np.abs(np.linalg.det(H)) >= _DET_FLOOR * hnorm**d))
        delta = np.empty_like(x)
        step, ok = _solve(H[newton], -g[newton])
        delta[newton] = step
        newton[np.flatnonzero(newton)[~ok]] = False
        Ht = np.swapaxes(H[~newton], -1, -2)
        A = Ht @ H[~newton]
        lam = mu[live[~newton]] * (np.trace(A, axis1=-2, axis2=-1) / d
                                   + 1e-300)
        # A = H'H is positive semidefinite and lam > 0, so A + lam I is
        # positive definite: the solve cannot meet a singular system
        delta[~newton] = np.linalg.solve(
            A + lam[:, None, None] * np.eye(d),
            -Ht @ g[~newton][..., None])[..., 0]

        accepted = np.zeros(len(live), dtype=bool)
        todo = np.arange(len(live))
        for _ in range(25):
            if not todo.size:
                break
            xn = x[todo] + delta[todo]
            g_new = field.grad(xn)
            gn_new = row_norms(g_new)
            hit = gn_new < gn[todo]
            rows = todo[hit]
            x[rows], g[rows], gn[rows] = xn[hit], g_new[hit], gn_new[hit]
            accepted[rows] = True
            todo = todo[~hit]
            delta[todo] = 0.5 * delta[todo]
        X[live], G[live], GN[live] = x, g, gn

        ended = np.zeros(len(live), dtype=bool)
        if box is not None:  # an escaped seed's outcome stays None
            ended = accepted & (np.any(x < box[0], axis=-1)
                                | np.any(x > box[1], axis=-1))
        mu_l = mu[live]
        mu_l[accepted] = np.maximum(mu_l[accepted] / 3.0, 1e-12)
        rejected = ~accepted
        # near-degenerate Hessian the determinant test missed
        missed = rejected & newton
        force_damped[live[missed]] = True
        mu_l[missed] = np.maximum(mu_l[missed], 1e-3)
        damped = rejected & ~newton
        mu_l[damped] *= 10.0
        mu[live] = mu_l
        given_up = damped & (mu_l > 1e12)
        stalled.extend(live[given_up])
        live = live[~(ended | given_up)]
    for i in [*stalled, *live]:
        try:
            out[i] = _rescue(field, X[i].copy(), G[i], float(GN[i]), tol,
                             max_iter)
        except NoConvergenceError as exc:
            out[i] = exc
    return out


def _rescue(field: ScalarField, best_x: np.ndarray, g: np.ndarray,
            best_gn: float, tol: float, max_iter: int) -> np.ndarray:
    """Refine one seed the monotone phase left at ``best_x`` with gradient
    ``g`` and |g| = ``best_gn`` > ``tol``; raises NoConvergence."""
    # Where H' grad f = 0 the trust-region model is flat and the polish's
    # Newton system is singular: no later stage can move the seed.
    if not np.any(field.hess(best_x).T @ g):
        raise NoConvergenceError("gradient refinement stalled",
                                 best=best_x.tolist(), grad_norm=best_gn,
                                 tol=tol)

    # Monotone steps stall in curved |grad f| valleys around degenerate
    # zeros. Rescue with a trust-region least-squares pass, then an
    # unsafeguarded Newton polish (the nonmonotone orbit contracts where
    # line searches cannot). The pass stops once |grad f| <= tol.
    def stop_at_tol(intermediate_result):
        if np.linalg.norm(intermediate_result.fun) <= tol:
            raise StopIteration

    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        res = least_squares(lambda s: field.grad(s), best_x,
                            jac=lambda s: field.hess(s), method="trf",
                            x_scale="jac", xtol=2.3e-16, ftol=2.3e-16,
                            gtol=None, max_nfev=max(600, 4 * max_iter),
                            callback=stop_at_tol)
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
    near_boundary. Ordering is lexicographic by location. A cell whose
    refinement leaves the bounding box widened by one cell is listed in
    ``escaped``.
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
    escaped = []
    outcomes = refine_newton(field, cells, tol=newton_tol,
                             box=(lo - spacing, hi + spacing))
    for c, x in zip(cells, outcomes):
        if x is None:
            escaped.append(c.tolist())
        elif isinstance(x, NoConvergenceError):
            unresolved.append({"cell_center": c.tolist(),
                               "best": x.context.get("best"),
                               "grad_norm": x.context.get("grad_norm")})
        elif bool(domain.contains(x, tol=1e-9)):
            refined.append(x)
        # else the cell's pull was toward a zero outside the domain

    # dedupe: strongest (smallest gradient) representative wins
    scores = (row_norms(field.grad(np.array(refined))).tolist()
              if refined else [])
    scored = sorted(zip(scores, (tuple(x.tolist()) for x in refined),
                        refined), key=lambda t: (t[0], t[1]))
    kept: list[tuple[float, np.ndarray]] = []
    kept_locs = np.empty((len(scored), d))
    for gn, _, x in scored:
        if (row_norms(x - kept_locs[:len(kept)]) >= dedupe_radius).all():
            kept_locs[len(kept)] = x
            kept.append((gn, x))
    kept.sort(key=lambda k: tuple(k[1].tolist()))

    if not kept:
        return DetectionResult([], unresolved, escaped)
    locs = np.array([x for _, x in kept])
    values, _, hess = field.jet(locs, 2)
    specs = sym_eigvalsh(hess)
    # x itself is among locs: probe_radius skips zero distances
    probes = [homindex.probe_radius(x, locs, domain) for _, x in kept]
    classes = homindex.classify_by_index(field, locs, probes, eigs=specs)
    points = []
    for (gn, x), value, spec, (hom_index, cls) in zip(kept, values, specs,
                                                      classes):
        near = bool(domain.boundary_distance(x) < boundary_margin)
        # At a degenerate zero the refined point sits a residual-sized
        # step away, leaving spurious eigenvalues of order sqrt(|grad|).
        dtol = max(1e-8, 10.0 * float(np.sqrt(max(gn, 0.0))))
        morse_index = morse_classify(field, x, degeneracy_tol=dtol,
                                     eigs=spec)
        points.append(CriticalPoint(x, float(value), gn, spec, morse_index,
                                    hom_index, cls, near))
    return DetectionResult(points, unresolved, escaped)


def locations(points) -> np.ndarray:
    """(m, d) coordinates of CriticalPoints or raw points; (0, 1) if none."""
    locs = [np.asarray(getattr(p, "location", p), dtype=float)
            for p in points]
    return np.array(locs).reshape(len(locs), -1) if locs else np.zeros((0, 1))


def resolution(points) -> float:
    """Minimum pairwise distance; +inf when fewer than two points."""
    locs = locations(points)
    if len(locs) < 2:
        return float("inf")
    return min(float(row_norms(locs[i] - locs[i + 1:]).min())
               for i in range(len(locs) - 1))


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
