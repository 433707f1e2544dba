"""Critical point location, refinement, and audit statistics.

The detector scans a lattice for cells whose gradient components can all
plausibly cross zero, refines all candidates together by Newton iteration,
hands every seed that Newton cannot help (a singular Hessian, a stalled
line search) to a trust-region pass and a Newton polish, deduplicates, and
attaches index-based classifications. Cells whose refinement diverges are
reported, never dropped; cells whose refinement leaves the domain's box
are listed apart, as escaped. The members of a stacked field go through
all of it together, every seed on its own member.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .domains import Domain, components
from .errors import NoConvergenceError, UsageError
from .fields import (ScalarField, near_pairs, row_adder, row_dots,
                     row_norms, sym_eigvalsh)
from .morse import morse_classify
from . import homindex

_SIGN_SLACK = 0.5  # relaxed cell test: catches touch zeros like 3x^2


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
    memory only). A stacked detection lists every member's; ``split``
    gives one result per member."""

    def __init__(self, points: list, unresolved: list, escaped: list,
                 members: int = 1):
        """Each item of the three lists is ``(member, item)``."""
        super().__init__(p for _, p in points)
        self.unresolved = [u for _, u in unresolved]
        self.escaped = [e for _, e in escaped]
        self._parts = members, points, unresolved, escaped

    def split(self) -> list:
        """One result per member of the stack, in member order."""
        n, *parts = self._parts
        lists = [[[] for _ in parts] for _ in range(n)]
        for j, part in enumerate(parts):
            for k, x in part:
                lists[k][j].append((0, x))
        return [DetectionResult(*own) for own in lists]


def _newton_polish(field: ScalarField, X: np.ndarray, G: np.ndarray,
                   GN: np.ndarray, tol: float, iters: int):
    """Unsafeguarded Newton from each seed of ``X`` ``(k, d)``, with
    gradients ``G`` and their norms ``GN``, on its own member of a stacked
    ``field``, in lockstep (one ``grad`` and one ``hess`` call per step);
    returns the best iterates by gradient norm and their norms.

    Monotone line searches stall on degenerate zeros: the full step
    overshoots the curved valley and |grad f| oscillates, yet the orbit
    itself contracts. A seed stops at tol, after 30 steps that do not
    improve its best, at a singular system, or at an iterate that is not
    finite or lies over 1e3 max(1, |x0|) from its best. Of the ``iters``
    gradients the first is ``G``, which counts as a step that did not
    improve.
    """
    cur, best_x, best_gn = X.copy(), X.copy(), GN.copy()
    scale = 1e3 * np.maximum(1.0, row_norms(X))
    stall = np.ones(len(X), dtype=int)
    live, g = np.arange(len(X)), G
    for _ in range(iters - 1):
        go_on = (stall[live] <= 30) & (best_gn[live] > tol)
        live = live[go_on]
        if not live.size:
            break
        step, ok = _solve(field.rows(live).hess(cur[live]), -g[go_on])
        live = live[ok]
        cur[live] += step[ok]
        live = live[np.all(np.isfinite(cur[live]), axis=-1)
                    & (row_norms(cur[live] - best_x[live]) <= scale[live])]
        if not live.size:
            break
        g = field.rows(live).grad(cur[live])
        gn = row_norms(g)
        better = np.isfinite(gn) & (gn < best_gn[live])
        rows = live[better]
        best_x[rows], best_gn[rows] = cur[rows], gn[better]
        stall[live] = np.where(better, 0, stall[live] + 1)
    return best_x, best_gn


def _trial_grads(field: ScalarField, P: np.ndarray):
    """Gradients ``(..., k, d)`` and their norms ``(..., k)`` at the trial
    points ``P`` ``(..., k, d)`` of k seeds, from one call. A long Newton
    step can land where the field overflows; a non-finite norm is never a
    descent."""
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        g = field.grad(P)
        return g, row_norms(g.reshape(-1, P.shape[-1])).reshape(P.shape[:-1])


def _solve(A: np.ndarray, b: np.ndarray):
    """Solve each ``A[i] x = b[i]``; returns ``(x, ok)``. A batched solve
    raises if any system is singular, so that case goes row by row."""
    x = np.empty_like(b)
    ok = np.ones(len(b), dtype=bool)
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
    batch of seeds ``(m, d)``; seed j refines on member j of a stacked
    ``field`` (see :meth:`ScalarField.rows`).

    Newton steps, each halved up to 24 times until it lowers |grad f|.
    ``box`` is an optional ``(lo, hi)`` pair: an accepted iterate outside
    it ends the seed as escaped.

    All seeds step in lockstep, with one Hessian call and at most two
    gradient calls per step for the batch; every evaluation is row-wise,
    so a seed's outcome does not depend on the rest of the batch, nor on
    the other members of a stack. Seeds that stall above ``tol`` go on
    together to the rescue (:func:`_rescue`), whose lockstep trust-region
    pass and Newton polish contract on degenerate zeros (Peano valleys).

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

    A step is accepted only when it lowers |grad f|, so the current
    iterate is the best one. A seed stalls where its Newton system is
    singular, its step is not finite, or no halving lowers |grad f|; the
    stalled seeds, and any left after ``max_iter`` steps, go on together
    to the rescue.
    """
    X = X.copy()
    G = np.array(field.grad(X), dtype=float)
    GN = row_norms(G)
    out: list = [None] * len(X)
    live = np.arange(len(X))    # seeds still in the Newton phase
    stalled = []                # seeds that left it above tol
    for it in range(max_iter + 1):
        done = GN[live] <= tol
        for i in live[done]:
            out[i] = X[i].copy()
        live = live[~done]
        if not live.size or it == max_iter:
            break
        delta, ok = _solve(field.rows(live).hess(X[live]), -G[live])
        ok &= np.all(np.isfinite(delta), axis=-1)
        stalled.extend(live[~ok])
        live, delta = live[ok], delta[ok]
        if not live.size:
            break
        x, g, gn = X[live], G[live], GN[live]
        f = field.rows(live)

        # the full steps in one grad call, then all 24 halvings of each
        # rejected step in one more; a seed takes its first trial that
        # lowers |grad f|. Each halving multiplies the one before by 0.5,
        # as halving after every rejection would.
        xn = x + delta
        g_new, gn_new = _trial_grads(f, xn)
        accepted = gn_new < gn
        x[accepted], g[accepted], gn[accepted] = (
            xn[accepted], g_new[accepted], gn_new[accepted])
        todo = np.flatnonzero(~accepted)
        if todo.size:
            halves = [0.5 * delta[todo]]
            for _ in range(23):
                halves.append(0.5 * halves[-1])
            xn = x[todo] + np.stack(halves)          # (halving, seed, d)
            g_new, gn_new = _trial_grads(f.rows(todo), xn)
            hit = gn_new < gn[todo]
            cols = np.flatnonzero(hit.any(axis=0))
            j = np.argmax(hit[:, cols], axis=0)
            rows = todo[cols]
            x[rows], g[rows], gn[rows] = (xn[j, cols], g_new[j, cols],
                                          gn_new[j, cols])
            accepted[rows] = True
        X[live], G[live], GN[live] = x, g, gn

        stalled.extend(live[~accepted])
        if box is not None:  # an escaped seed's outcome stays None
            accepted &= ~(np.any(x < box[0], axis=-1)
                          | np.any(x > box[1], axis=-1))
        live = live[accepted]
    rest = np.array([*stalled, *live], dtype=int)
    if rest.size:
        for i, o in zip(rest, _rescue(field.rows(rest), X[rest], G[rest],
                                      GN[rest], tol, max_iter)):
            out[i] = o
    return out


def _rescue(field: ScalarField, X: np.ndarray, G: np.ndarray,
            GN: np.ndarray, tol: float, max_iter: int) -> list:
    """Outcomes of the seeds the Newton phase left at ``X`` ``(k, d)``
    with gradients ``G`` whose norms ``GN`` exceed ``tol``, each on its
    own member of a stacked ``field``: a refined point or a
    NoConvergenceError each.

    Newton stalls at singular Hessians and in curved |grad f| valleys
    around degenerate zeros. The rescue runs a trust-region least-squares
    pass over all the seeds, then the Newton polish over those still above
    ``tol``: its nonmonotone orbit contracts where line searches cannot.
    The polish starts from the gradients it is handed, so it evaluates
    none where the pass or the Newton phase left a seed.
    """
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        rx, rg = least_squares(field, X, tol, max(600, 4 * max_iter))
        rgn = row_norms(rg)
        better = np.isfinite(rgn) & (rgn < GN)
        best_x = np.where(better[:, None], rx, X)
        best_g = np.where(better[:, None], rg, G)
        best_gn = np.where(better, rgn, GN)
        rows = np.flatnonzero(best_gn > tol)
        if rows.size:
            best_x[rows], best_gn[rows] = _newton_polish(
                field.rows(rows), best_x[rows], best_g[rows], best_gn[rows],
                tol, max(120, max_iter))
    return [x if gn <= tol else NoConvergenceError(
        "gradient refinement stalled", best=x.tolist(), grad_norm=gn,
        tol=tol) for x, gn in zip(best_x, best_gn.tolist())]


def _mv(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Each ``A[i] @ v[i]`` for ``A`` ``(k, d, d)`` and ``v`` ``(k, d)``,
    by the BLAS call ``np.dot`` makes for one matrix and vector."""
    return (A @ v[..., None])[..., 0]


_EPS = np.finfo(float).eps
_XTOL = _FTOL = 2.3e-16


def least_squares(field: ScalarField, X: np.ndarray, tol: float,
                  max_nfev: int):
    """Trust-region least squares on the gradient system from each seed of
    ``X`` ``(k, d)``, seed j on member j of a stacked ``field``; returns
    the final iterates and their gradients.

    This is the Levenberg-Marquardt trust-region method of Moré (1978,
    LNM 630) as SciPy's ``least_squares(method="trf", x_scale="jac")``
    runs it without bounds: the exact subproblem solved from an SVD of the
    Jacobian scaled by its column norms, xtol = ftol = 2.3e-16, no gtol,
    and at most ``max_nfev`` gradient evaluations per seed, so each row
    gets SciPy's iterates bit for bit. A seed also stops once
    |grad f| <= ``tol``, where the gradient or Hessian at its iterate is
    not finite (SciPy raises there), and once it can no longer move.

    Every live seed makes one trial step per tick: one batched SVD for the
    seeds whose Jacobian changed, one ``grad`` call for the trial points
    and one ``hess`` call where a step was accepted. Each seed keeps its
    own radius, LM parameter, scale and count, and only per-row LAPACK and
    BLAS calls, elementwise ufuncs and row sums touch it, so its bits do
    not depend on the rest of the batch.
    """
    X = np.array(X, dtype=float)
    k, d = X.shape
    F = np.array(field.grad(X), dtype=float)
    J = np.array(field.hess(X), dtype=float)
    G = _mv(np.swapaxes(J, -1, -2), F)
    cost = 0.5 * row_dots(F, F)
    colsum = row_adder(d, signed=False)
    scale_inv = np.sqrt(colsum(np.swapaxes(J * J, -1, -2)))
    scale_inv[scale_inv == 0] = 1.0
    scale = 1.0 / scale_inv
    delta = row_norms(X * scale_inv)
    delta[delta == 0] = 1.0
    alpha = np.zeros(k)
    nfev = np.ones(k, dtype=int)
    fresh = np.ones(k, dtype=bool)     # Jacobian changed since its SVD
    Jh, V = np.empty_like(J), np.empty_like(J)
    S, UF, Gh = np.empty_like(X), np.empty_like(X), np.empty_like(X)
    live = np.flatnonzero(np.all(np.isfinite(F), axis=-1)
                          & np.all(np.isfinite(J), axis=(-2, -1))
                          & (row_norms(F) > tol))
    while live.size:
        new = live[fresh[live]]
        if new.size:
            Jh[new] = J[new] * scale[new, None, :]
            U, S[new], Vt = np.linalg.svd(Jh[new])
            # V and U' row-major, as the transposes of SciPy's column-major
            # factors are: np.dot picks its BLAS kernel, and so its bits,
            # by memory layout
            V[new] = np.swapaxes(Vt, -1, -2)
            UF[new] = _mv(np.ascontiguousarray(np.swapaxes(U, -1, -2)),
                          F[new])
            Gh[new] = scale[new] * G[new]
            fresh[new] = False
        D = delta[live]
        step_h, alpha[live] = _tr_step(UF[live], S[live], V[live], D,
                                       alpha[live])
        Js = _mv(Jh[live], step_h)
        predicted = -(0.5 * row_dots(Js, Js) + row_dots(step_h, Gh[live]))
        x = X[live]
        step = scale[live] * step_h
        xn = x + step
        fn = field.rows(live).grad(xn)
        nfev[live] += 1
        hn = row_norms(step_h)

        finite = np.all(np.isfinite(fn), axis=-1)
        cost_new = 0.5 * row_dots(fn, fn)
        actual = cost[live] - cost_new
        ratio = np.where(predicted > 0, actual / predicted,
                         np.where((predicted == actual) & (actual == 0),
                                  1.0, 0.0))
        grown = np.where((ratio > 0.75) & (hn > 0.95 * D), D * 2.0, D)
        D_new = np.where(ratio < 0.25, 0.25 * hn, grown)
        ended = finite & (((actual < _FTOL * cost[live]) & (ratio > 0.25))
                          | (row_norms(step)
                             < _XTOL * (_XTOL + row_norms(x))))
        go_on = finite & ~ended
        alpha[live[go_on]] *= D[go_on] / D_new[go_on]
        delta[live] = np.where(finite, np.where(ended, D, D_new), 0.25 * hn)

        acc = finite & (actual > 0)
        rows = live[acc]
        X[rows], F[rows], cost[rows] = xn[acc], fn[acc], cost_new[acc]
        # a rejected all-NaN trial point leaves the radius NaN, so every
        # later trial repeats that point: the seed can never move again
        stuck = ~acc & np.all(np.isnan(xn), axis=-1)
        done = ended | stuck | (nfev[live] >= max_nfev)
        done[acc] |= row_norms(fn[acc]) <= tol
        moved = acc & ~done
        rows = live[moved]
        if rows.size:
            Jr = J[rows] = field.rows(rows).hess(X[rows])
            G[rows] = _mv(np.swapaxes(Jr, -1, -2), F[rows])
            scale_inv[rows] = np.maximum(
                np.sqrt(colsum(np.swapaxes(Jr * Jr, -1, -2))),
                scale_inv[rows])
            scale[rows] = 1.0 / scale_inv[rows]
            fresh[rows] = True
            done[moved] = ~np.all(np.isfinite(Jr), axis=(-2, -1))
        live = live[~done]
    return X, F


def _tr_step(uf: np.ndarray, s: np.ndarray, V: np.ndarray,
             delta: np.ndarray, alpha: np.ndarray):
    """Each row's step ``p`` with |p| <= ``delta`` minimizing the model
    |J p + f| from the SVD ``J = U diag(s) V'`` (``uf = U' f``), and its
    LM parameter: the Gauss-Newton step where J has full rank and the step
    fits, else Moré's secular-equation iteration on |p(alpha)| = delta,
    at most 10 steps to 1% accuracy, started from ``alpha``."""
    n = s.shape[-1]
    suf = s * uf
    full = s[:, -1] > _EPS * n * s[:, 0]
    p = -_mv(V, uf / s)
    gauss = full & (row_norms(p) <= delta)
    alpha = np.where(gauss, 0.0, alpha)
    r = np.flatnonzero(~gauss)
    if not r.size:
        return p, alpha
    suf, s, D, full = suf[r], s[r], delta[r], full[r]
    upper = row_norms(suf) / D
    lower = np.zeros(len(r))
    phi, dphi = _phi(np.zeros(len(r)), suf, s, D)
    lower[full] = -phi[full] / dphi[full]
    a = alpha[r]
    a = np.where(~full & (a == 0), _alpha_guess(lower, upper), a)
    act = np.arange(len(r))
    for _ in range(10):
        lo, up, aa, Da = lower[act], upper[act], a[act], D[act]
        aa = np.where((aa < lo) | (aa > up), _alpha_guess(lo, up), aa)
        phi, dphi = _phi(aa, suf[act], s[act], Da)
        upper[act] = np.where(phi < 0, aa, up)
        ratio = phi / dphi
        lower[act] = np.where(aa - ratio > lo, aa - ratio, lo)
        a[act] = aa - (phi + Da) * ratio / Da
        act = act[~(np.abs(phi) < 0.01 * Da)]
        if not act.size:
            break
    q = -_mv(V[r], suf / (s ** 2 + a[:, None]))
    p[r] = q * (D / row_norms(q))[:, None]
    alpha[r] = a
    return p, alpha


def _alpha_guess(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Moré's restart value max(upper / 1000, sqrt(lower * upper)), with
    Python's ``max`` order of comparison. The root is ``float_power``,
    which rounds as libm's scalar ``pow`` does; ``sqrt`` and numpy's SIMD
    ``power`` differ from it in the last bit on under 1 input in 1,000."""
    a, b = 0.001 * upper, np.float_power(lower * upper, 0.5)
    return np.where(b > a, b, a)


def _phi(alpha, suf, s, delta):
    """|p(alpha)| - delta and its alpha derivative, per row."""
    denom = s ** 2 + alpha[:, None]
    pn = row_norms(suf / denom)
    return (pn - delta,
            -row_adder(s.shape[-1], signed=False)(suf ** 2 / denom ** 3) / pn)


def _candidate_cells(g: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """Boolean mask over cells passing the relaxed per-component sign test,
    from the lattice gradient ``g``; leading axes of ``g`` (members of a
    stack) lead the mask too."""
    first, *rest = itertools.product((slice(None, -1), slice(1, None)),
                                     repeat=g.shape[-1])
    lo = g[(..., *first, slice(None))].copy()
    hi, any_inside = lo.copy(), inside[first].copy()
    for sl in rest:  # in place: on a 3-d lattice these are the peak arrays
        c = g[(..., *sl, slice(None))]
        np.minimum(lo, c, out=lo)
        np.maximum(hi, c, out=hi)
        any_inside |= inside[sl]
    rng = hi - lo
    rng *= _SIGN_SLACK
    ok = lo <= rng
    ok &= np.negative(hi, out=hi) <= rng    # hi >= -rng
    return np.all(ok, axis=-1) & any_inside


def find_critical_points(field: ScalarField, domain: Domain,
                         grid_res: int = 32, newton_tol: float = 1e-9
                         ) -> DetectionResult:
    """Grid scan for gradient sign-change cells, Newton refinement,
    dedupe, and classification.

    Refined points closer than two cell diagonals are merged, greedily in
    order of member, then |grad f|, then location: a point is dropped
    when one kept before it lies that close. Points landing within one
    grid cell of the boundary are flagged near_boundary. Ordering is
    lexicographic by location. A cell whose refinement leaves the
    bounding box widened by one cell is listed in ``escaped``.

    A stacked ``field`` (see :meth:`ScalarField.rows`) is detected in one
    pass: one lattice scan of every member, one lockstep refinement of
    all their cells, and one classification of all their points. Each
    member's points and cells come out as its own detection would give
    them, member after member; :meth:`DetectionResult.split` parts them.
    A plain field is the stack of one member.
    """
    if grid_res < 8:
        raise UsageError("grid_res must be at least 8")
    d = field.dim
    if d != domain.dim:
        raise UsageError(f"field dim {d} vs domain dim {domain.dim}")
    lat = domain.lattice(grid_res)
    # every member at every vertex, members first: (members, ..., d)
    g = np.moveaxis(field.grad(lat[..., None, :]), -2, 0)
    inside = domain.contains(lat)
    member, *cell = np.nonzero(_candidate_cells(g, inside))
    centers = 0.5 * (lat[(slice(None, -1),) * d] + lat[(slice(1, None),) * d])
    cells = centers[tuple(cell)]

    lo, hi = domain.bounding_box()
    spacing = (hi - lo) / grid_res
    dedupe_radius = 2.0 * float(np.linalg.norm(spacing))
    boundary_margin = float(np.max(spacing))

    refined, unresolved, escaped, points = [], [], [], []
    outcomes = refine_newton(field.rows(member), cells, tol=newton_tol,
                             box=(lo - spacing, hi + spacing))
    for c, x, k in zip(cells, outcomes, member.tolist()):
        if x is None:
            escaped.append((k, c.tolist()))
        elif isinstance(x, NoConvergenceError):
            unresolved.append((k, {"cell_center": c.tolist(),
                                   "best": x.context.get("best"),
                                   "grad_norm": x.context.get("grad_norm")}))
        else:
            refined.append((k, x))
    if refined:
        mem = np.array([k for k, _ in refined])
        locs = np.array([x for _, x in refined])
        # a cell's pull may lead to a zero outside the domain
        ok = domain.contains(locs, tol=1e-9)
        if ok.any():
            points = _classified(field, domain, mem[ok], locs[ok],
                                 dedupe_radius, boundary_margin)
    return DetectionResult(points, unresolved, escaped, len(g))


def _classified(field: ScalarField, domain: Domain, mem: np.ndarray,
                locs: np.ndarray, dedupe_radius: float,
                boundary_margin: float) -> list:
    """``(member, CriticalPoint)`` of the refined points ``locs``
    ``(m, d)`` of members ``mem`` that survive their member's dedupe, in
    member and then lexicographic order, all classified together."""
    # greedy dedupe in order of member, |grad f| and location: a point is
    # dropped when a kept point of its member lies closer than the
    # radius. Pairs come with i ascending, so keep[i] is final when read.
    gns = row_norms(field.rows(mem).grad(locs))
    order = np.lexsort((*locs.T[::-1], gns, mem))
    mem, locs, gns = mem[order], locs[order], gns[order]
    i, j, dist = near_pairs(locs, locs, dedupe_radius)
    clash = (i < j) & (mem[i] == mem[j]) & (dist < dedupe_radius)
    keep = [True] * len(locs)
    for a, b in zip(i[clash].tolist(), j[clash].tolist()):
        keep[b] &= not keep[a]
    order = np.flatnonzero(keep)
    order = order[np.lexsort((*locs[order].T[::-1], mem[order]))]
    mem, locs, gns = mem[order], locs[order], gns[order]
    f = field.rows(mem)
    values, _, hess = f.jet(locs, 2)
    specs = sym_eigvalsh(hess)
    # each member's points are one run of the sorted points, and each
    # point's own location is among its run's: probe_radius skips zero
    # distances
    runs = np.split(locs, np.flatnonzero(np.diff(mem)) + 1)
    probes = np.concatenate([homindex.probe_radius(run, run, domain)
                             for run in runs])
    classes = homindex.classify_by_index(f, locs, probes, eigs=specs)
    near = (domain.boundary_distance(locs) < boundary_margin).tolist()
    # At a degenerate zero the refined point sits a residual-sized step
    # away, leaving spurious eigenvalues of order sqrt(|grad|).
    dtol = np.fmax(1e-8, 10.0 * np.sqrt(np.maximum(gns, 0.0)))
    morse = morse_classify(f, locs, degeneracy_tol=dtol, eigs=specs)
    return [(k, CriticalPoint(x, value, gn, spec, mi, hom_index, cls, nb))
            for k, x, value, gn, spec, mi, (hom_index, cls), nb
            in zip(mem.tolist(), locs, values.tolist(), gns.tolist(), specs,
                   morse, classes, near)]


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
    # neighbours in first coordinate bound the minimum from above
    by_first = locs[np.argsort(locs[:, 0])]
    bound = row_norms(by_first[1:] - by_first[:-1]).min()
    i, j, dist = near_pairs(locs, locs, bound)
    return float(dist[i != j].min())


def boundary_min_gradient(field: ScalarField, domain: Domain):
    """Infimum of |grad f| over 256 boundary samples; positive certifies
    the no-boundary-critical-point assumption numerically. A stacked
    ``field`` gives a list, one value per member, each with the bits of
    its member alone."""
    pts = domain.boundary_frames(256)[0]
    if field.members is None:
        return float(np.min(np.linalg.norm(field.grad(pts), axis=-1)))
    g = field.grad(pts[:, None, :])   # every member at every sample
    return np.min(np.linalg.norm(g, axis=-1), axis=0).tolist()


def improper_extrema(field: ScalarField, domain: Domain,
                     grid_res: int = 64, *, on_lattice=None) -> dict:
    """Counts of weak local maxima and minima over the interior lattice.

    A node qualifies when its full 3^D neighbor stencil exists and lies
    inside the domain, and comparisons use a relative tolerance so exact
    plateaus tie. Tied plateau components count once (full-connectivity
    labeling).

    ``on_lattice``, if given, is ``(inside, values)``: the
    ``domain.contains`` mask and the field's values on
    ``domain.lattice(grid_res)``, which a caller that has already
    evaluated the field there passes in instead of evaluating it again."""
    d = field.dim
    if on_lattice is None:
        lat = domain.lattice(grid_res)
        on_lattice = (domain.contains(lat), field.value(lat))
    inside = np.asarray(on_lattice[0])
    v = np.asarray(on_lattice[1], dtype=float)
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

    return {"n_improper_max": components(ge_all & valid),
            "n_improper_min": components(le_all & valid)}
