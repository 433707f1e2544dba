"""Independent reference computations the tests freeze values against.

Nothing here shares code paths with the package: windings come from a
dense unwrap, roots from scipy brentq on a fine grid, extrema from plain
neighbor comparisons, assignments from brute-force permutations,
distances from one scalar ``np.linalg.norm`` per pair, lattice
connectivity from breadth-first search over index tuples, bisection
midpoints from a plain loop that returns the midpoint, and derivatives from
central differences with step ``h = 1e-5 (1 + |s|)``.
"""

from __future__ import annotations

import itertools
from collections import deque

import numpy as np
from scipy.optimize import brentq


def brute_winding(field, z, eps: float, n: int = 40000) -> int:
    """Winding of grad f around z by dense sampling and angle unwrap."""
    z = np.asarray(z, dtype=float)
    th = np.linspace(0.0, 2.0 * np.pi, n, endpoint=True)
    ring = z + eps * np.stack([np.cos(th), np.sin(th)], axis=1)
    g = field.grad(ring)
    ang = np.unwrap(np.arctan2(g[:, 1], g[:, 0]))
    turns = (ang[-1] - ang[0]) / (2.0 * np.pi)
    return int(np.round(turns))


def _boundary_loop(domain, n: int = 8192) -> np.ndarray:
    """``n`` points once around the boundary of a 2-d box (from its
    lower-left corner) or disk, counter-clockwise, from its corners or
    its center and radius alone."""
    if hasattr(domain, "radius"):
        th = 2.0 * np.pi * np.arange(n) / n
        return np.asarray(domain.center) + domain.radius * np.stack(
            [np.cos(th), np.sin(th)], axis=1)
    (x0, y0), (x1, y1) = domain.lo, domain.hi
    corners = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])
    s = (np.arange(n // 4) / (n // 4))[:, None]
    return np.concatenate([a + s * (b - a) for a, b in
                           zip(corners, np.roll(corners, -1, axis=0))])


def boundary_degree(field, domain):
    """Winding of grad f once around the boundary of a 2-d box or disk,
    by dense sampling and angle unwrap: 2^13 samples, or up to 2^20 until
    no step reaches pi/2. None when |grad f| comes within the audit's zero
    tolerance, 1e-9 times the largest sampled |grad f| (at least 1), where
    the degree is not defined."""
    for n in (2 ** 13, 2 ** 16, 2 ** 20):
        loop = _boundary_loop(domain, n)
        g = field.grad(np.concatenate([loop, loop[:1]]))
        norms = np.linalg.norm(g, axis=1)
        if norms.min() <= 1e-9 * max(1.0, norms.max()):
            return None
        ang = np.unwrap(np.arctan2(g[:, 1], g[:, 0]))
        if np.max(np.abs(np.diff(ang))) < 0.5 * np.pi:
            return int(np.round((ang[-1] - ang[0]) / (2.0 * np.pi)))
    raise AssertionError("boundary loop undersampled at 2^20 samples")


def midpoint_bisection(fn, a: float, b: float, fa: float) -> float:
    """The midpoint of the last bracket of up to 80 bisection steps on a
    sign change of ``fn`` over ``[a, b]``, ``fa = fn(a)``, or the first
    midpoint where ``fn`` is exactly 0; the loop stops early once the
    midpoint is an end."""
    for _ in range(80):
        m = 0.5 * (a + b)
        if m == a or m == b:
            break
        fm = fn(m)
        if fm == 0.0:
            return m
        if (fm > 0) == (fa > 0):
            a, fa = m, fm
        else:
            b = m
    return 0.5 * (a + b)


def brute_roots_1d(fn, a: float, b: float, n: int = 20001) -> list:
    """All simple roots of fn on [a, b] via sign scan plus brentq."""
    xs = np.linspace(a, b, n)
    vals = np.array([fn(x) for x in xs])
    roots = []
    for i in range(n - 1):
        va, vb = vals[i], vals[i + 1]
        if va == 0.0:
            roots.append(xs[i])
        elif va * vb < 0:
            roots.append(brentq(fn, xs[i], xs[i + 1], xtol=1e-14))
    if vals[-1] == 0.0:
        roots.append(xs[-1])
    return roots


def strict_extrema_2d(values: np.ndarray) -> tuple:
    """(n_max, n_min) by strict 8-neighbor comparison on interior nodes."""
    v = values
    c = v[1:-1, 1:-1]
    is_max = np.ones(c.shape, dtype=bool)
    is_min = np.ones(c.shape, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == dj == 0:
                continue
            nb = v[1 + di:v.shape[0] - 1 + di, 1 + dj:v.shape[1] - 1 + dj]
            is_max &= c > nb
            is_min &= c < nb
    return int(np.sum(is_max)), int(np.sum(is_min))


def _bfs_mark(mask, start, seen) -> None:
    """Mark in ``seen`` every true cell of ``mask`` that the full 3^d
    stencil connects to the true cell ``start``."""
    steps = [o for o in itertools.product((-1, 0, 1), repeat=mask.ndim)
             if any(o)]
    seen[start] = True
    queue = deque([start])
    while queue:
        cell = queue.popleft()
        for step in steps:
            nb = tuple(int(c) + s for c, s in zip(cell, step))
            if (all(0 <= x < n for x, n in zip(nb, mask.shape))
                    and mask[nb] and not seen[nb]):
                seen[nb] = True
                queue.append(nb)


def bfs_components(mask) -> int:
    """Connected components of the true cells under the full 3^d stencil,
    one breadth-first search from each cell not yet reached."""
    mask = np.asarray(mask, dtype=bool)
    seen = np.zeros(mask.shape, dtype=bool)
    count = 0
    for cell in zip(*np.nonzero(mask)):
        if not seen[cell]:
            count += 1
            _bfs_mark(mask, cell, seen)
    return count


def brute_pass_value(values, inside, a, b) -> float:
    """The highest level c at which the cells ``a`` and ``b`` are connected
    inside ``inside & (values >= c)``, trying every level from the top."""
    for c in sorted(set(values[inside].tolist()), reverse=True):
        mask = inside & (values >= c)
        if mask[a] and mask[b]:
            seen = np.zeros(mask.shape, dtype=bool)
            _bfs_mark(mask, a, seen)
            if seen[b]:
                return c
    raise ValueError("a and b are never connected")


def optimal_matching(locs_a, locs_b, radius: float) -> int:
    """Maximum number of pairs under the radius cap, O(n!) search."""
    locs_a = np.asarray(locs_a, dtype=float)
    locs_b = np.asarray(locs_b, dtype=float)
    na, nb = len(locs_a), len(locs_b)
    if na == 0 or nb == 0:
        return 0
    dist = np.linalg.norm(locs_a[:, None, :] - locs_b[None, :, :], axis=-1)
    best = 0
    idx_b = range(nb)
    for k in range(min(na, nb), 0, -1):
        for rows in itertools.combinations(range(na), k):
            for cols in itertools.permutations(idx_b, k):
                if all(dist[r, c] <= radius for r, c in zip(rows, cols)):
                    return k
    return best


def brute_resolution(locs) -> float:
    """Minimum pairwise distance, one scalar norm per pair."""
    best = np.inf
    for i in range(len(locs)):
        for j in range(i + 1, len(locs)):
            best = min(best, float(np.linalg.norm(locs[i] - locs[j])))
    return best


def brute_probe_radius(z, others, boundary_distance: float) -> float:
    """A quarter of the distance to the nearest other zero or to a positive
    boundary distance, at most 0.25 and at least 1e-12."""
    cands = [0.25]
    if boundary_distance > 0:
        cands.append(0.25 * boundary_distance)
    for o in others:
        d = float(np.linalg.norm(o - z))
        if d > 0:
            cands.append(0.25 * d)
    return max(min(cands), 1e-12)


def brute_dedupe(field, refined, radius: float) -> list:
    """Greedy merge of refined points, smallest |grad f| (then location)
    first: a point is kept unless a kept one lies closer than ``radius``.
    Returns ``(grad_norm, location)`` pairs in lexicographic order."""
    scored = sorted(((float(np.linalg.norm(field.grad(x))), tuple(x), x)
                     for x in refined), key=lambda t: t[:2])
    kept = []
    for gn, _, x in scored:
        if all(np.linalg.norm(x - y) >= radius for _, y in kept):
            kept.append((gn, x))
    return sorted(kept, key=lambda k: tuple(k[1]))


def brute_matching(locs_n, locs_l, radius: float) -> list:
    """Greedy nearest pairs under the radius cap, ties broken by the sorted
    location pair: ``[(i_n, i_limit, distance)]`` in matching order."""
    cands = []
    for i, a in enumerate(locs_n):
        for j, b in enumerate(locs_l):
            d = float(np.linalg.norm(a - b))
            if d <= radius:
                cands.append((d, *sorted([tuple(a), tuple(b)]), i, j))
    used_n, used_l, pairs = set(), set(), []
    for d, _, _, i, j in sorted(cands):
        if i not in used_n and j not in used_l:
            used_n.add(i)
            used_l.add(j)
            pairs.append((i, j, d))
    return pairs


def increment_mean_field(G, noise_spec, n_list, n: int, seed: int,
                         trial: int = 0):
    """Coefficients of Ghat_n = G + S_n / n for the n of ``n_list``, with
    S_n built on its own from S_0 = 0, one increment at a time:
    S_j = S_{j-1} + sqrt(n_j - n_{j-1}) Z_j over the distinct entries
    n_1 < ... < n_j = n, each Z_j the noise field drawn from a freshly
    keyed Philox generator on stream j of the trial."""
    from critsense.randfield import _scale_tensor

    def draw(stream):
        rng = np.random.Generator(np.random.Philox(
            key=np.array([seed, trial << 20 | stream], dtype=np.uint64)))
        z = rng.standard_normal(
            size=(2 * noise_spec.degree + 1,) * noise_spec.dim)
        return z * _scale_tensor(noise_spec)

    def embed(coeffs, m):
        if coeffs.shape[0] == m:
            return coeffs
        out = np.zeros((m,) * coeffs.ndim)
        out[tuple(slice(0, coeffs.shape[0])
                  for _ in range(coeffs.ndim))] = coeffs
        return out

    m = 2 * max(G.degree, noise_spec.degree) + 1
    acc = np.zeros((2 * noise_spec.degree + 1,) * noise_spec.dim)
    prev = 0
    for j, nj in enumerate(sorted(set(n_list)), start=1):
        if nj > n:
            break
        acc = acc + np.sqrt(float(nj - prev)) * draw(j)
        prev = nj
    return embed(G.coeffs, m) + embed(acc, m) / n


def rice_maxima(spec, noise_spec=None, n=None) -> float:
    """Rice's expected number of local maxima of a 1-d random
    trigonometric field on [0, 2pi): sqrt(lam4 / lam2), with
    lam_k = sum_j j^k s_j^2 over the harmonics j and their coefficient
    variances s_j^2. G has s_j = amplitude (1 + j)^-decay; Ghat_n adds the
    noise's s_j^2 / n (Rice 1944, Bell Syst. Tech. J. 23:282-332)."""
    top = max(spec.degree, noise_spec.degree if noise_spec else 0)
    j = np.arange(1, top + 1)

    def var(s):
        return np.where(j <= s.degree, (s.amplitude * (1.0 + j)
                                        ** -s.decay) ** 2, 0.0)

    w = var(spec)
    if noise_spec is not None:
        w = w + var(noise_spec) / n
    return float(np.sqrt(np.sum(j ** 4 * w) / np.sum(j ** 2 * w)))


def per_field_trial(spec, noise_spec, n_list, seed: int, trial: int,
                    grid_res: int) -> dict:
    """One Monte Carlo trial record from one detection per field: G first,
    then each Ghat_n on its own, as trials ran before detection stacked
    them."""
    from critsense import detect
    from critsense.morse import morse_statistic
    from critsense.randfield import (HYPOTHESIS_M_TOL, _counts, _TRIPLE,
                                     empirical_mean_field, sample_limit_field,
                                     standard_domain)
    from critsense.sequence import (HYPOTHESIS_BOUNDARY_TOL,
                                    HYPOTHESIS_RESOLUTION_TOL)

    dom = standard_domain(spec.dim)
    G = sample_limit_field(spec, seed, trial)
    pts_G = detect.find_critical_points(G, dom, grid_res=grid_res)
    stat_l = detect.boundary_min_gradient(G, dom)
    stat_r = detect.resolution(pts_G)
    stat_m = morse_statistic(G, dom, grid_res=grid_res)
    counts_G = _counts(pts_G)
    rec = {
        "trial": trial, "failed": False,
        "L": stat_l, "R": stat_r, "M": stat_m,
        "counts_G": counts_G,
        "hypothesis_ok": bool(stat_l > HYPOTHESIS_BOUNDARY_TOL
                              and stat_r > HYPOTHESIS_RESOLUTION_TOL
                              and stat_m > HYPOTHESIS_M_TOL),
        "per_n": [],
    }
    fields = empirical_mean_field(G, noise_spec, n_list, seed, trial)
    for n, Ghat in zip(n_list, fields):
        pts_n = detect.find_critical_points(Ghat, dom, grid_res=grid_res)
        counts_n = _counts(pts_n)
        rec["per_n"].append({
            "n": int(n), "failed": False,
            "counts": counts_n,
            "R_hat": detect.resolution(pts_n),
            "match": all(counts_n[k] == counts_G[k] for k in _TRIPLE),
        })
    return rec


def _steps(s: np.ndarray) -> np.ndarray:
    return 1e-5 * (1.0 + np.linalg.norm(s, axis=-1))


def fd_gradient(fn, s) -> np.ndarray:
    """Central differences of ``fn`` along each coordinate, stacked on a
    new last axis: the gradient of a scalar ``fn``, the Jacobian of a
    vector-valued one."""
    s = np.asarray(s, dtype=float)
    hh = _steps(s)
    cols = []
    for e in np.eye(s.shape[-1]):
        step = hh[..., None] * e
        diff = np.asarray(fn(s + step)) - np.asarray(fn(s - step))
        # the step is per point; a vector-valued fn adds trailing axes
        cols.append(diff / (2.0 * hh).reshape(
            hh.shape + (1,) * (diff.ndim - hh.ndim)))
    return np.stack(cols, axis=-1)


def fd_hessian(fn, s) -> np.ndarray:
    """Second differences of the values of ``fn``, on a stencil ten times
    wider than :func:`fd_gradient`'s, as second differences lose
    precision."""
    s = np.asarray(s, dtype=float)
    d = s.shape[-1]
    hh = _steps(s) * 10.0
    f0 = np.asarray(fn(s), dtype=float)
    out = np.empty(s.shape[:-1] + (d, d), dtype=float)
    eyes = np.eye(d)
    for i in range(d):
        step_i = hh[..., None] * eyes[i]
        out[..., i, i] = (np.asarray(fn(s + step_i)) - 2.0 * f0
                          + np.asarray(fn(s - step_i))) / hh**2
        for j in range(i + 1, d):
            step_j = hh[..., None] * eyes[j]
            mixed = (np.asarray(fn(s + step_i + step_j))
                     - np.asarray(fn(s + step_i - step_j))
                     - np.asarray(fn(s - step_i + step_j))
                     + np.asarray(fn(s - step_i - step_j))) / (4.0 * hh**2)
            out[..., i, j] = mixed
            out[..., j, i] = mixed
    return out
