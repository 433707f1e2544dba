"""Morse classification and explicit Morse-neighborhood construction.

Around a nondegenerate critical point the field equals its Hessian
quadratic form after a change of coordinates. This module computes a
certified radius for that neighborhood from spectral norms, then builds
the coordinate change by integrating a homotopy flow, so the defining
identity f(Gamma(x)) = f(p) + (x-p)'H(x-p)/2 can be checked numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domains import Domain, sphere_directions
from .errors import (CoverageError, FlowSingularError, NotMorseError,
                     UsageError)
from .fields import (ScalarField, bisect_root, row_adder, row_norms,
                     spectral_norms, sup_spectral_norm, sym_eigvalsh)


def morse_classify(field: ScalarField, z, degeneracy_tol=1e-8, eigs=None):
    """Number of negative Hessian eigenvalues, or None when the smallest
    |eigenvalue| sits below the degeneracy tolerance. ``eigs``, the
    Hessian spectrum at ``z`` when the caller already has it, saves
    computing it again. For zeros ``z`` ``(k, d)``, with spectra ``(k, d)``
    and one tolerance or one per zero, a list of ``k`` such results."""
    if eigs is None:
        eigs = sym_eigvalsh(field.hess(np.asarray(z, dtype=float)))
    a = np.abs(eigs)
    # fmax, as Python's max(1.0, nan) is 1.0
    degenerate = np.min(a, axis=-1) <= degeneracy_tol * np.fmax(
        1.0, np.max(a, axis=-1))
    index = np.sum(eigs < 0, axis=-1)
    out = [None if dg else k for dg, k in zip(np.atleast_1d(degenerate),
                                              np.atleast_1d(index).tolist())]
    return out if np.ndim(eigs) == 2 else out[0]


def morse_statistic(field: ScalarField, domain: Domain,
                    grid_res: int = 64):
    """Grid infimum of max(|grad f|, smallest singular value of H_f).

    Positive certifies Morseness numerically: wherever the gradient
    vanishes the Hessian is invertible. The Hessian enters through its
    smallest singular value; the operator norm would miss directionally
    degenerate Hessians (rank-deficient but nonzero) and certify
    non-Morse fields.

    A stacked ``field`` gives a list, one value per member, each with the
    bits of its member alone, from one lattice and one ``jet`` call.
    """
    lat = domain.lattice(grid_res)
    inside = np.asarray(domain.contains(lat))
    stack = field.members is not None
    # points (..., 1, d) reach every member of a stack
    _, grad, hess = field.jet(lat[..., None, :] if stack else lat, 2)
    g = np.linalg.norm(grad, axis=-1)
    h_min = np.min(np.abs(sym_eigvalsh(hess)), axis=-1)
    stat = np.maximum(g, h_min)[inside]
    return np.min(stat, axis=0).tolist() if stack else float(np.min(stat))


# ---------------------------------------------------------------- #
# radius constants
# ---------------------------------------------------------------- #

# The corollary's m in (0, 1), which splits its Hessian budget; every chart
# is computed with this one value, and its record reports it.
_M = 0.5


def corollary_constants(H: np.ndarray) -> dict:
    """Hessian-variation bound K1 and radius cap K2 for m = 1/2 from the
    spectral norms of H and its inverse."""
    eigs = sym_eigvalsh(H)
    lo = float(np.min(np.abs(eigs)))
    if lo == 0.0:
        raise NotMorseError("Hessian is singular")
    h = float(np.max(np.abs(eigs)))
    hi = 1.0 / lo
    k1 = (1.0 / hi) * min(1.0 - _M, _M * _M * np.log(2.0) / (6.0 * h * hi))
    k2 = _M / (4.0 * h * hi)
    return {"K1": k1, "K2": k2, "H_norm": h, "H_inv_norm": hi}


MIN_ODE_STEP = 1e-5  # at most 100,000 RK4 steps per flow


def check_ode_step(h: float) -> None:
    """Raise UsageError unless the RK4 step ``h`` lies in
    [MIN_ODE_STEP, 0.5]."""
    if not 0.0 < h <= 0.5:
        raise UsageError("ode_step must lie in (0, 0.5]")
    if h < MIN_ODE_STEP:
        raise UsageError(f"ode_step must be at least {MIN_ODE_STEP:g}")


@dataclass
class FlowChart:
    """Certified Morse neighborhood: center, Hessian, radius, the
    constants backing the bi-Lipschitz bounds, and the RK4 step of its
    flow. Another step is ``dataclasses.replace(chart, ode_step=h)``."""

    center: np.ndarray
    H: np.ndarray
    radius: float
    K1: float
    K2: float
    L: float
    c: float
    C: float
    a1: float
    ode_step: float = 1e-3
    residual_sup: float | None = None

    def __post_init__(self):
        check_ode_step(self.ode_step)

    @property
    def n_steps(self) -> int:
        return int(np.ceil(1.0 / self.ode_step))

    @property
    def bilip_hi_bound(self) -> float:
        return float(np.exp(self.a1))

    @property
    def bilip_lo_bound(self) -> float:
        return 2.0 - float(np.exp(self.a1))

    def as_record(self) -> dict:
        return {
            "center": self.center.tolist(),
            "hessian": self.H.tolist(),
            "radius": self.radius,
            "constants": {"K1": self.K1, "K2": self.K2, "L": self.L,
                          "c": self.c, "C": self.C, "a1": self.a1},
            "m": _M,
            "ode_step": self.ode_step,
            "residual_sup": self.residual_sup,
            "bilip_hi_bound": self.bilip_hi_bound,
            "bilip_lo_bound": self.bilip_lo_bound,
        }


def _shell_sampler(d: int):
    """Chart-shell offsets in ``d`` dimensions: ``shells(r, k)`` is ``k``
    radial shells r*j/k, j = 1..k, times one direction set (64 in 2-d,
    128 in 3-d, 64 per axis above), flattened to ``(k * n_dirs, d)``."""
    dirs = sphere_directions(d, 64 if d == 2 else max(128, 64 * d))

    def shells(r: float, k: int) -> np.ndarray:
        return ((r * (np.arange(1, k + 1) / k))[:, None, None]
                * dirs).reshape(-1, d)
    return shells


def make_chart(field: ScalarField, p, search_cap: float = 1.0,
               ode_step: float = 1e-3) -> FlowChart:
    """Morse chart at ``p``: the largest radius (up to ``search_cap``) on
    which the sampled Hessian variation stays under the admissible bound
    K1 for m = 1/2.

    The variation sup is sampled on 16 chart shells. The radius is the low
    end of the final bracket of :func:`~critsense.fields.bisect_root` on
    the predicate "variation < K1" over [0, cap]. A constant Hessian gives
    the radius cap itself.
    """
    p = np.asarray(p, dtype=float)
    H = np.asarray(field.hess(p), dtype=float)
    consts = corollary_constants(H)
    k1, k2, hi = consts["K1"], consts["K2"], consts["H_inv_norm"]
    cap = min(search_cap, k2 * (1.0 - 1e-12))
    shells = _shell_sampler(len(p))

    def variation(r: float) -> float:
        Hs = np.asarray(field.hess(p + shells(r, 16)))
        return sup_spectral_norm(Hs - H)

    v_cap = variation(cap)
    if v_cap < k1:
        r, L = cap, v_cap
    else:
        # the variation is 0 < K1 at r = 0, so the predicate starts at -1
        r = bisect_root(lambda s: -1.0 if variation(s) < k1 else 1.0,
                        0.0, cap, -1.0)[0]
        L = variation(r) if r > 0 else 0.0
    c = 1.0 / hi - L
    C = consts["H_norm"] + L
    a1 = (L / c) * (2.0 + 3.0 * C / c) if L > 0 else 0.0
    return FlowChart(p, H, r, k1, k2, L, c, C, a1, ode_step=ode_step)


# ---------------------------------------------------------------- #
# the flow
# ---------------------------------------------------------------- #

def morse_flow_map(field: ScalarField, chart: FlowChart, x,
                   path=None) -> np.ndarray:
    """Integrate the homotopy flow from t=0 to 1, carrying ``x`` to the
    point where the field takes its exact quadratic value.

    Accepts batched points. Fixed-step classical RK4 at the chart's
    ``ode_step``; the velocity is -phi(y) y_t(y) / |y_t(y)|^2 with
    y_t = H y + t grad(phi) and phi the non-quadratic remainder, which
    vanishes at the center. With ``path``, an ``(n_steps + 1, d)`` array
    for ``x`` of shape ``(m, d)``, ``path[k]`` receives the last row's
    point at t_k; no other state is kept.

    Last-bit rule: every row is computed only with operations whose
    per-row result does not depend on the other rows (rows of ``y @ H``,
    elementwise ufuncs, row sums), so with a field that evaluates row by
    row, as the gallery's do, a row's bits do not depend on its batch,
    and ``path`` is the path that row takes alone. For d <= 3 a row sum
    is written as column adds, ``0.0 + a[..., 0] + a[..., 1] +
    a[..., 2]`` (see :func:`~critsense.fields.row_adder`), which sum from
    the left as ``np.add.reduce`` along the last axis does and give its
    bits; sums of squares leave out the +0.0 start, which can only change
    the sign of a zero sum. A 3-operand ``einsum`` breaks the rule.
    With numpy's OpenBLAS, ``y @ H`` keeps its rows for d <= 3, every
    gallery dimension; a 1-d ``y``, or d >= 4, can round otherwise.
    """
    p, H, r = chart.center, chart.H, chart.radius
    xi = np.asarray(x, dtype=float) - p
    if np.any(np.linalg.norm(xi, axis=-1) > r * (1.0 + 1e-9)):
        raise UsageError("point outside the chart radius")
    f_p = float(field.value(p))
    ratio_floor = (1e-14 * max(1.0, float(spectral_norms(H)))) ** 2
    row_sum = row_adder(len(p))
    square_sum = row_adder(len(p), signed=False)
    jet = field.jet
    # p per row: adding it costs a third of a broadcast add
    p_rows = np.broadcast_to(p, xi.shape).copy()

    # Each stage runs thousands of times on few points, so numpy call
    # overhead dominates: one field call per stage, every term computed
    # once, and the quadratic term reuses yH. ``neg_vel`` returns minus
    # the velocity and the RK4 update subtracts it: rounding is symmetric
    # in sign, so only the sign of a zero can differ, and p + state
    # gives the same point either way.
    def neg_vel(t: float, y: np.ndarray) -> np.ndarray:
        v, g = jet(p_rows + y, 1)
        yH = y @ H
        phi = v - f_p - 0.5 * row_sum(yH * y)
        yt = yH + t * (g - yH)
        n2 = square_sum(yt * yt)
        y2 = square_sum(y * y)
        bad = n2 < ratio_floor * y2  # n2 >= 0, so this implies y2 > 0
        if np.count_nonzero(bad):
            raise FlowSingularError(
                "flow denominator vanished away from the center",
                t=t, worst=float(np.min(n2[bad] / y2[bad])))
        moving = n2 > 0
        if np.count_nonzero(moving) == moving.size:
            return (phi / n2)[..., None] * yt
        # rows at the centre stay there; -0.0, so that subtracting it
        # adds +0.0
        safe = np.where(moving, n2, 1.0)
        return np.where(moving[..., None], (phi / safe)[..., None] * yt,
                        -0.0)

    n_steps = chart.n_steps
    dt = 1.0 / n_steps
    half = 0.5 * dt
    sixth = dt / 6.0
    state = xi
    if path is not None:
        path[0] = state[-1]
    t = 0.0
    for k in range(1, n_steps + 1):
        t_half = t + half
        k1 = neg_vel(t, state)
        k2 = neg_vel(t_half, state - half * k1)
        k3 = neg_vel(t_half, state - half * k2)
        k4 = neg_vel(t + dt, state - dt * k3)
        state = state - sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += dt
        if path is not None:
            path[k] = state[-1]
    if path is not None:
        path += p
    return p + state


def morse_flow_trajectory(field: ScalarField, chart: FlowChart, x):
    """The integration path from the one point ``x``, as (t grid,
    points) with points[k] the state at t_k."""
    path = np.empty((chart.n_steps + 1, len(chart.center)))
    morse_flow_map(field, chart, np.reshape(x, (1, -1)), path)
    return np.linspace(0.0, 1.0, len(path)), path


def _ball_samples(d: int, r: float, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, d))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    radii = r * rng.uniform(0.0, 1.0, size=n) ** (1.0 / d)
    return raw * radii[:, None]


def verify_morse_chart(field: ScalarField, chart: FlowChart,
                       seed: int = 0, path=None) -> dict:
    """Sample 100 points of the chart ball, measure the defining residual
    and empirical Lipschitz ratios of the flow map, and record them on
    the chart.

    With ``path``, an ``(n_steps + 1, d)`` array whose first row is a
    start point, that point is integrated as row 101 of the same batch
    and its path written into ``path``, as by
    :func:`morse_flow_trajectory`.
    """
    p, H, r = chart.center, chart.H, chart.radius
    d = len(p)
    xi = _ball_samples(d, r, 100, seed)
    pts = p + xi
    batch = pts if path is None else np.vstack([pts, path[:1]])
    out = morse_flow_map(field, chart, batch, path)[:100]
    quad = 0.5 * np.einsum("...i,ij,...j->...", xi, H, xi)
    resid = np.abs(np.asarray(field.value(out)) - float(field.value(p)) - quad)
    residual_sup = float(np.max(resid))

    # ratios of consecutive samples, skipping coincident pairs
    dx = row_norms(np.diff(pts, axis=0))
    far = ~(dx < 1e-12 * max(1.0, r))
    ratios = row_norms(np.diff(out, axis=0))[far] / dx[far]
    chart.residual_sup = residual_sup
    return {
        "residual_sup": residual_sup,
        "bilip_lo": float(np.min(ratios)) if ratios.size else 1.0,
        "bilip_hi": float(np.max(ratios)) if ratios.size else 1.0,
        "bilip_lo_bound": chart.bilip_lo_bound,
        "bilip_hi_bound": chart.bilip_hi_bound,
    }


def flow_pair_distance(field_n: ScalarField, field: ScalarField,
                       p_n, p, r_shared: float) -> float:
    """Sup over about 64 sampled offsets of the distance between the two
    flow maps, both recentered at their own critical points."""
    p = np.asarray(p, dtype=float)
    p_n = np.asarray(p_n, dtype=float)
    chart = make_chart(field, p, search_cap=r_shared)
    chart_n = make_chart(field_n, p_n, search_cap=r_shared)
    slack = 1.0 - 1e-9
    if chart.radius < r_shared * slack or chart_n.radius < r_shared * slack:
        raise CoverageError("charts do not cover the shared ball",
                            r_shared=r_shared, r=chart.radius,
                            r_n=chart_n.radius)
    xi = _shell_sampler(len(p))(min(chart.radius, chart_n.radius), 8)
    if 64 < len(xi):
        xi = xi[::len(xi) // 64]
    g_lim = morse_flow_map(field, chart, p + xi) - p
    g_n = morse_flow_map(field_n, chart_n, p_n + xi) - p_n
    return float(np.max(np.linalg.norm(g_n - g_lim, axis=-1)))
