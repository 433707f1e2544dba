"""Topological-degree classification of gradient zeros.

The index of an isolated zero, the degree of the normalized gradient on a
small sphere around it (+1 at a planar extremum, -(j-1) at a j-pronged
saddle, 0 at an undulation point), comes for a batch of zeros from one
field call. Tangential boundary zeros, box corners included, carry
half-integer weights; interior plus boundary sums are exact rationals, so
the audit identity is checked without tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field as _dcfield
from fractions import Fraction

import numpy as np

from .domains import Ball, Domain, ring_angles, sphere_directions
from .errors import (DegenerateError, NonGenericBoundaryError,
                     NonIsolatedZeroError, PreconditionError,
                     UnderSampledError, UnsupportedError, UsageError)
from .fields import ScalarField, bisect_root, near_pairs, sym_eigvalsh
from .morse import morse_classify


# ---------------------------------------------------------------- #
# winding machinery
# ---------------------------------------------------------------- #

def winding_index_2d(field: ScalarField, z, eps):
    """Degree of the normalized gradient on the circle of radius ``eps``
    around ``z`` ``(2,)``. For zeros ``z`` ``(k, 2)`` with radii ``eps``
    ``(k,)``, a list with each zero's degree or the NonIsolatedZeroError
    or UnderSampledError it met, from one gradient call for all ``256 k``
    probes, circle j on member j of a stack (see ``ScalarField.rows``).

    Signed angle steps are summed over 256 samples, sample to sample, and
    divided by 2 pi; the rounding residual must stay under 0.1. A step of
    pi/2 or more is bisected on the zero's own member (:func:`_settled`).
    """
    if field.dim != 2:
        raise UsageError("winding_index_2d needs a 2-d field")
    Z, eps, _, one = _as_batch(z, eps, None)
    if np.any(eps <= 0):
        raise UsageError("need eps > 0")
    thetas = ring_angles(256)
    thetas = np.append(thetas, thetas[0] + 2.0 * np.pi)
    # (256, k, 2): probe i of circle j
    g = field.grad(Z + eps[:, None] * sphere_directions(2, 256)[:, None, :])
    norms = np.linalg.norm(g, axis=-1)
    angles = np.arctan2(g[..., 1], g[..., 0])
    angles = np.concatenate([angles, angles[:1]])
    steps = (angles[1:] - angles[:-1] + np.pi) % (2.0 * np.pi) - np.pi
    floors = 1e-12 * (1.0 + np.max(norms, axis=0))
    out = []
    for j, (zj, ej, floor) in enumerate(zip(Z, eps.tolist(), floors)):
        try:
            if np.min(norms[:, j]) < 10.0 * floor:
                raise NonIsolatedZeroError(
                    "gradient vanishes on the sampling circle",
                    center=zj.tolist(), eps=ej,
                    min_norm=float(np.min(norms[:, j])))
            for i in np.flatnonzero(np.abs(steps[:, j]) >= 0.5 * np.pi):
                steps[i, j] = _settled(field.rows(j), zj, ej, floor,
                                       thetas[i:i + 2], angles[i:i + 2, j])
            w = sum(steps[:, j].tolist()) / (2.0 * np.pi)
            if abs(w - round(w)) >= 0.1:
                raise UnderSampledError("winding residual too large",
                                        residual=abs(w - round(w)))
            out.append(round(w))
        except (NonIsolatedZeroError, UnderSampledError) as exc:
            out.append(exc)
    return _single(out) if one else out


def _settled(field, z, eps, floor, t, a, depth=0) -> float:
    """The angle the gradient sweeps on the circle between the angles
    ``t`` ``(2,)``, with directions ``a`` ``(2,)`` at the ends, bisected
    (later half first) until every step is under pi/2, 48 levels deep."""
    d = float((a[1] - a[0] + np.pi) % (2.0 * np.pi) - np.pi)
    if abs(d) < 0.5 * np.pi:
        return d
    if depth >= 48:
        raise UnderSampledError("angle step failed to settle under "
                                "subdivision", theta=t[0], step=d)
    tm = 0.5 * (t[0] + t[1])
    v = field.grad(z + eps * np.array([np.cos(tm), np.sin(tm)]))
    nv = float(np.hypot(v[0], v[1]))
    if nv < 10.0 * floor:
        raise NonIsolatedZeroError(
            "gradient vanishes on the sampling circle", theta=tm, norm=nv)
    am = float(np.arctan2(v[1], v[0]))
    later = _settled(field, z, eps, floor, (tm, t[1]), (am, a[1]), depth + 1)
    return later + _settled(field, z, eps, floor, (t[0], tm), (a[0], am),
                            depth + 1)


def _index_nd(field: ScalarField, Z: np.ndarray, eigs) -> list:
    """(-1)^(number of negative Hessian eigenvalues) at each zero of ``Z``
    ``(k, d)`` from one ``morse_classify`` call on the spectra ``eigs``
    (one Hessian call when None); a DegenerateError where it is singular."""
    eigs = sym_eigvalsh(field.hess(Z)) if eigs is None else np.asarray(
        eigs, dtype=float)
    return [DegenerateError("Hessian is numerically singular",
                            point=z.tolist(), eigenvalues=e.tolist())
            if k is None else (-1) ** k
            for z, e, k in zip(Z, eigs, morse_classify(field, Z, eigs=eigs))]


def _index_1d(field: ScalarField, Z: np.ndarray, eps: np.ndarray) -> list:
    """Sign comparisons at the 1-d zeros ``Z`` ``(k, 1)``, each probed at
    ``eps[i]`` on both sides, from one gradient call: an index, or the
    NonIsolatedZeroError of a zero whose probe meets a zero."""
    g = field.grad(np.stack([Z + eps[:, None], Z - eps[:, None]]))
    out = []
    for z, e, right, left in zip(Z, eps.tolist(), g[0, :, 0].tolist(),
                                 g[1, :, 0].tolist()):
        floor = 1e-14 * (1.0 + abs(right) + abs(left))
        vanish = [side for side, v in (("left", left), ("right", right))
                  if abs(v) < floor]
        if not vanish:
            out.append((int(np.sign(right)) - int(np.sign(left))) // 2)
        else:
            where = "both probe sides" if len(vanish) == 2 else (
                f"the {vanish[0]} probe side")
            out.append(NonIsolatedZeroError(
                f"derivative vanishes on {where}", point=z.tolist(), eps=e))
    return out


def probe_radius(z, others, domain: Domain):
    """A quarter of the distance from ``z`` ``(d,)`` to the nearest other
    known zero in ``others`` ``(n, d)`` or to the boundary, at most 0.25.
    Zero distances and nonpositive boundary distances (``z`` on or
    outside the boundary) are skipped.

    For zeros ``z`` ``(k, d)``, an array of ``k`` radii, each with the
    bits of the one-zero form.
    """
    z = np.asarray(z, dtype=float)
    Z = z.reshape(-1, z.shape[-1])
    k, d = Z.shape
    others = np.asarray(others, dtype=float).reshape(-1, d)
    # a zero 1 or more away gives 0.25 * dist >= 0.25, the cap, exactly
    i, _, dist = near_pairs(Z, others, 1.0)
    near = np.full(k, np.inf)
    np.minimum.at(near, i[dist > 0], dist[dist > 0])
    bd = np.asarray(domain.boundary_distance(Z))
    r = np.minimum(np.minimum(0.25, np.where(bd > 0, 0.25 * bd, np.inf)),
                   0.25 * near)
    r = np.maximum(r, 1e-12)
    return float(r[0]) if z.ndim == 1 else r


def _as_batch(z, eps, eigs):
    """``(Z, eps, eigs, one)``: the zeros ``(k, d)``, their radii and
    spectra as a batch, and whether ``z`` was one zero ``(d,)``."""
    z = np.asarray(z, dtype=float)
    if z.ndim == 2:
        return z, np.asarray(eps, dtype=float), eigs, False
    return (z[None], np.array([eps], dtype=float),
            None if eigs is None else np.asarray(eigs)[None], True)


def _single(out: list):
    """The one result of a batch of one zero, raising its error."""
    if isinstance(out[0], Exception):
        raise out[0]
    return out[0]


def homological_index(field: ScalarField, z, eps, eigs=None):
    """Index of the isolated interior zero at ``z`` ``(d,)``, probed at
    radius ``eps`` (see :func:`probe_radius`). For zeros ``z`` ``(k, d)``
    with radii ``eps`` ``(k,)``, a list with each zero's index or the
    DegenerateError, NonIsolatedZeroError or UnderSampledError it met.

    Dimension dispatch, each from one field call for all the zeros: sign
    comparison in 1-d, winding number in 2-d, and Hessian sign for
    nondegenerate zeros in higher dimension, from ``eigs`` (``(d,)``, or
    ``(k, d)`` for a batch) when the caller has the spectrum. A probe
    that meets a zero raises NonIsolatedZero at that ``eps``.
    """
    Z, eps, eigs, one = _as_batch(z, eps, eigs)
    if field.dim == 1:
        out = _index_1d(field, Z, eps)
    elif field.dim == 2:
        out = winding_index_2d(field, Z, eps)
    else:
        out = _index_nd(field, Z, eigs)
    return _single(out) if one else out


# ---------------------------------------------------------------- #
# classification
# ---------------------------------------------------------------- #

def classify_by_index(field: ScalarField, z, eps, eigs=None):
    """Index and class of the zero at ``z`` ``(d,)``, or a list of them
    for zeros ``z`` ``(k, d)`` with radii ``eps`` ``(k,)``: the one place
    where a zero is classified, for detection and ``classify --point``
    alike.

    The index is :func:`homological_index` at ``eps`` (and ``eigs``),
    None when it cannot be computed. A ring of 64 probes decides first:
    strictly lower values all around give Max, strictly higher Min.
    Otherwise a non-isolated or under-sampled index error is raised,
    index 0 gives Undulation, a negative index Saddle (with 1 - index
    prongs in 2-d), and the rest (index +1 or degenerate) Unclassified.
    A batch takes every zero's value and probe ring from one value call
    and raises the error of its first zero that has one.
    """
    Z, eps, eigs, one = _as_batch(z, eps, eigs)
    d = Z.shape[-1]
    indices = homological_index(field, Z, eps, eigs=eigs)
    # (1 + 64 probes, k, d): each column is one zero and its ring
    ring = Z + eps[:, None] * sphere_directions(d, 64)[:, None, :]
    values = np.asarray(field.value(np.concatenate([Z[None], ring])),
                        dtype=float)
    vals = values[1:] - values[0]
    # fmax, as Python's max skips a nan
    tau = 1e-12 * np.fmax(np.fmax(1.0, np.abs(values[0])),
                          np.max(np.abs(vals), axis=0))
    out = []
    for index, below, above in zip(indices,
                                   np.all(vals < -tau, axis=0).tolist(),
                                   np.all(vals > tau, axis=0).tolist()):
        held = index if isinstance(
            index, (NonIsolatedZeroError, UnderSampledError)) else None
        if isinstance(index, Exception):
            index = None
        if below:
            out.append((index, "Max"))
        elif above:
            out.append((index, "Min"))
        elif held is not None:
            raise held
        elif index == 0:
            out.append((index, "Undulation"))
        elif index is not None and index < 0:
            out.append((index, f"Saddle({1 - index})" if d == 2
                        else "Saddle"))
        else:
            out.append((index, "Unclassified"))
    return out[0] if one else out


# ---------------------------------------------------------------- #
# boundary index
# ---------------------------------------------------------------- #

HALF = Fraction(1, 2)


@dataclass
class BoundaryZero:
    location: np.ndarray
    index: int
    weight: Fraction

    @property
    def contribution(self) -> Fraction:
        return self.weight * self.index


@dataclass
class BoundaryIndexResult:
    total: Fraction
    zeros: list
    perturbed: bool = False


def _perturbed(field: ScalarField, delta: float, direction: np.ndarray) -> ScalarField:
    u = np.asarray(direction, dtype=float)

    def fn(s, f=field.fn):
        return np.asarray(f(s)) + delta * np.sum(u * s, axis=-1)

    def grad(s):
        return field.grad(s) + delta * u

    # linear terms leave the Hessian untouched
    return ScalarField(fn, field.dim, grad_fn=grad, hess_fn=field.hess)


def _has_zero_run(flags: np.ndarray, cyclic: bool) -> bool:
    """Whether three or more consecutive flags are set, or all of them."""
    f = np.concatenate([flags, flags[:2]]) if cyclic else flags
    return bool(np.any(flags) and (
        np.all(flags) or np.any(f[:-2] & f[1:-1] & f[2:])))


def _weighted_zero(field: ScalarField, loc, index: int, nrm,
                   zero_tol: float) -> BoundaryZero:
    """The half-weight rule: a boundary zero counts +1/2 when the full
    gradient points into the domain (against the outward normal ``nrm``),
    -1/2 when it points out, and is nongeneric when it is tangent."""
    radial = float(np.dot(field.grad(loc), nrm))
    if abs(radial) <= zero_tol:
        raise NonGenericBoundaryError(
            "full gradient vanishes on the boundary",
            location=np.asarray(loc).tolist())
    return BoundaryZero(np.asarray(loc, dtype=float), index,
                        HALF if radial < 0 else -HALF)


def boundary_index(field: ScalarField, domain: Domain) -> BoundaryIndexResult:
    """Half-weighted index sum of the tangential gradient zeros on the
    domain boundary, sampled at about 512 points. The largest sampled
    gradient sets the zero tolerance and the perturbation strength.

    Each zero contributes its tangential index times +1/2 when the full
    gradient points into the domain there, -1/2 when it points out. The
    index is +1 at an interval endpoint, the 1-d crossing index of a sign
    change along a whole 2-d boundary piece or across a box corner, and on
    the sphere of a 3-ball the index of a critical point of f on the
    sphere, detected on two stereographic charts. Tangential components
    that vanish along whole sample runs (radial fields) or at a corner get
    one seeded linear perturbation before NonGenericBoundary is raised.
    """
    d = field.dim
    if d == 2:
        pieces = [(c, ring_angles(512) if c.cyclic
                   else np.linspace(0.0, c.length, 129))
                  for c in domain.boundary_curves()]
        samples = [c.point(t) for c, t in pieces]
    elif d == 1 or (d == 3 and isinstance(domain, Ball)):
        pts, normals = domain.boundary_frames(512)
        samples = [pts]
    else:
        raise UnsupportedError(f"boundary index not implemented for dim {d} "
                               f"on {type(domain).__name__}")
    u = np.random.default_rng(20411).standard_normal(d)
    u /= np.linalg.norm(u)
    f = field
    for attempt in range(2):
        gs = [f.grad(p) for p in samples]
        scale = max(float(np.max(np.linalg.norm(np.concatenate(gs),
                                                axis=-1))), 1e-12)
        zero_tol = 1e-9 * max(1.0, scale)
        if d == 1:
            zeros = _endpoint_zeros(f, pts, normals, zero_tol)
        elif d == 2:
            zeros = _curve_zeros(f, pieces, gs, zero_tol)
        else:
            zeros = _sphere_zeros(f, domain, normals, gs[0], zero_tol)
        if zeros is not None:
            return BoundaryIndexResult(
                sum((z.contribution for z in zeros), Fraction(0)), zeros,
                attempt > 0)
        f = _perturbed(f, 1e-6 * max(scale, 1e-6), u)
    raise NonGenericBoundaryError(
        "tangential component still degenerate after perturbation",
        retries=1)


def _endpoint_zeros(field, pts, normals, zero_tol):
    """Each endpoint of a 1-d domain is a zero of the (empty) tangential
    component; None when the derivative vanishes at one."""
    if any(abs(float(field.grad(p)[0] * nrm[0])) <= zero_tol
           for p, nrm in zip(pts, normals)):
        return None
    return [_weighted_zero(field, p, 1, nrm, zero_tol)
            for p, nrm in zip(pts, normals)]


def _along(g, v):
    """Row-wise component of the 2-vectors ``g`` along ``v``, summed
    product by product: a BLAS dot may fuse the multiply-add."""
    return g[..., 0] * v[..., 0] + g[..., 1] * v[..., 1]


def tangential_zeros(field: ScalarField, c, t, vpar, zero_tol: float,
                     cyclic: bool) -> list:
    """Zeros ``(s, index)`` of the tangential component grad f . c'(s)
    along the boundary piece ``c``, sampled as ``vpar`` at the strictly
    increasing params ``t``: each sign change between samples bisected to
    the midpoint of its final bracket.

    Samples within ``zero_tol`` of zero are skipped, so touch zeros (no
    sign change) contribute nothing, as their 1-d index is 0. ``index`` is
    the 1-d crossing index: +1 upward, -1 downward. ``cyclic`` also pairs
    the last sample with the first, one period on.
    """
    def vpar_at(s):
        return float(_along(field.grad(c.point(s)), c.tangent(s)))

    idx = np.flatnonzero(np.abs(vpar) > zero_tol)
    if len(idx) < 2:
        return []
    left, right = (idx, np.roll(idx, -1)) if cyclic else (idx[:-1], idx[1:])
    sign = np.sign(vpar)
    change = sign[left] != sign[right]
    period = t[-1] - t[0] + (t[1] - t[0])
    out = []
    for i, j in zip(left[change], right[change]):
        a, b = t[i], t[j]
        if b <= a:
            b = b + period
        lo, hi = bisect_root(vpar_at, a, b, vpar[i])
        out.append((0.5 * (lo + hi), int(sign[j] - sign[i]) // 2))
    return out


def _curve_zeros(field, pieces, grads, zero_tol):
    """Tangential zeros along the smooth pieces ``(curve, params)`` of a
    2-d boundary, counter-clockwise, with ``grads`` the gradient at each
    piece's samples, and the zeros of its corners, where a non-cyclic
    piece starts and the one before it ends. None when the tangential
    component vanishes over a run of samples or at a corner.

    A corner is the limit of a rounded arc whose tangent turns from t_in
    to t_out (Morse 1929). With a = grad f . t_in and b = grad f . t_out,
    the arc holds a zero of index (sign b - sign a)/2 when the signs
    differ, weighted against the normal n_in + n_out.
    """
    zeros = []
    for j, ((c, t), g) in enumerate(zip(pieces, grads)):
        vpar = _along(g, c.tangent(t))
        if _has_zero_run(np.abs(vpar) <= zero_tol, c.cyclic):
            return None
        if not c.cyclic:
            into = pieces[j - 1][0]
            a, b = float(_along(g[0], into.tangent(into.length))), vpar[0]
            if min(abs(a), abs(b)) <= zero_tol:
                return None
            if (a > 0) != (b > 0):
                zeros.append(_weighted_zero(
                    field, c.point(0.0), 1 if b > 0 else -1,
                    into.normal(into.length) + c.normal(0.0), zero_tol))

        for s, ind in tangential_zeros(field, c, t, vpar, zero_tol,
                                       c.cyclic):
            zeros.append(_weighted_zero(field, c.point(s), ind, c.normal(s),
                                        zero_tol))
    return zeros


_CHART_GRID = 48  # the audit's default grid


def _stereographic(u: np.ndarray, pole: float):
    """The inverse stereographic map from the pole ``(0, 0, -pole)``:
    the unit normals ``(..., 3)`` at the chart points ``u`` ``(..., 2)``,
    with ``u = 0`` at the pole ``(0, 0, pole)``, and ``q = 1 + |u|^2``."""
    q = 1.0 + np.sum(u * u, axis=-1)
    return np.concatenate([2.0 * u, (pole * (2.0 - q))[..., None]],
                          axis=-1) / q[..., None], q


def _chart(field: ScalarField, c, r: float, pole: float) -> ScalarField:
    """f(c + r sigma(u)) on the chart of :func:`_stereographic` at
    ``pole``, with J = d sigma / du: rows (2 q delta_kj - 4 u_k u_j)/q^2
    for k < 2 and -4 pole u_j / q^2, q = 1 + |u|^2. Gradient r J' g
    (g = grad f); Hessian r^2 J' H_f J + r sum_k g_k d2 sigma_k from one
    order-2 ``jet`` of f, the sum being -4 (g_i u_j + u_i g_j +
    delta_ij w)/q^2 + 16 u_i u_j w / q^3, w = u . g[:2] + pole g[2]."""
    def fn(u):
        return field.value(c + r * _stereographic(u, pole)[0])

    def grad(u):
        n, q = _stereographic(u, pole)
        gf = field.grad(c + r * n)
        ug = np.sum(u * gf[..., :2], axis=-1) + pole * gf[..., 2]
        return r * (2.0 * q[..., None] * gf[..., :2]
                    - 4.0 * u * ug[..., None]) / (q * q)[..., None]

    def hess(u):
        n, q = _stereographic(u, pole)
        _, g, H = field.jet(c + r * n, 2)
        q2 = (q * q)[..., None, None]
        uu = u[..., :, None] * u[..., None, :]
        J = np.concatenate([2.0 * q[..., None, None] * np.eye(2) - 4.0 * uu,
                            -4.0 * pole * u[..., None, :]], axis=-2) / q2
        w = np.sum(u * g[..., :2], axis=-1) + pole * g[..., 2]
        gu = g[..., :2, None] * u[..., None, :]
        bend = (-4.0 * (gu + np.swapaxes(gu, -1, -2)
                        + w[..., None, None] * np.eye(2)) / q2
                + 16.0 * uu * (w / (q * q * q))[..., None, None])
        return r * r * (np.swapaxes(J, -1, -2) @ H @ J) + r * bend

    return ScalarField(fn, 2, grad, hess)


def _sphere_zeros(field, domain, normals, g, zero_tol):
    """Tangential zeros on the sphere boundary of a 3-ball: the critical
    points of f on the sphere, from ``find_critical_points`` on two
    stereographic charts (:func:`_chart`) over the disk |u| <= 1.25. The
    north chart keeps |u|^2 <= 1 + 1e-6 and the south one
    |u|^2 < 1 - 1e-6, so each zero counts once (|u_N| |u_S| = 1), with its
    chart's index. None, for the caller to perturb f, when v_par vanishes
    over a run of the normals' gradients ``g`` or a chart meets a
    non-isolated zero; unresolved chart cells or an unindexed zero raise
    NonGenericBoundary."""
    from .detect import find_critical_points

    vpar = g - np.sum(g * normals, axis=-1, keepdims=True) * normals
    if _has_zero_run(np.linalg.norm(vpar, axis=-1) <= zero_tol,
                     cyclic=False):
        return None
    c, r = domain.center, domain.radius
    zeros = []
    for pole, keep in ((1.0, lambda q: q <= 2.0 + 1e-6),
                       (-1.0, lambda q: q < 2.0 - 1e-6)):
        try:
            pts = find_critical_points(_chart(field, c, r, pole),
                                       Ball((0.0, 0.0), 1.25),
                                       grid_res=_CHART_GRID)
        except NonIsolatedZeroError:
            return None
        kept = [p for p in pts if keep(1.0 + float(p.location @ p.location))]
        bad = [p.location.tolist() for p in kept if p.hom_index is None]
        if pts.unresolved or bad:
            raise NonGenericBoundaryError(
                "sphere chart left zeros unresolved or unindexed", pole=pole,
                cells=[x["cell_center"] for x in pts.unresolved],
                unindexed=bad)
        for p in kept:
            nrm = _stereographic(p.location, pole)[0]
            zeros.append(_weighted_zero(field, c + r * nrm, p.hom_index,
                                        nrm, zero_tol))
    return zeros


# ---------------------------------------------------------------- #
# the audit
# ---------------------------------------------------------------- #

@dataclass
class IndexResult:
    interior_index: int
    boundary_index: Fraction
    total: Fraction
    euler_target: Fraction
    per_point: list = _dcfield(default_factory=list)
    passed: bool = False
    boundary: BoundaryIndexResult | None = None

    def as_record(self) -> dict:
        return {
            "interior": self.interior_index,
            "boundary": str(self.boundary_index),
            "total": str(self.total),
            "target": str(self.euler_target),
            "pass": self.passed,
            "per_point": [{
                "location": np.asarray(loc).tolist(),
                "index": int(ind),
                "weight": str(w),
            } for loc, ind, w in self.per_point],
        }


def poincare_hopf_audit(field: ScalarField, domain: Domain,
                        grid_res: int = 48, newton_tol: float = 1e-9
                        ) -> IndexResult:
    """Interior index sum plus boundary index against the Euler target:
    1 for these contractible domains in even dimension, 0 in odd. The
    interior sum takes every detected point strictly inside the domain,
    those flagged ``near_boundary`` too."""
    from .detect import find_critical_points

    pts = find_critical_points(field, domain, grid_res=grid_res,
                               newton_tol=newton_tol)
    if pts.unresolved:
        raise PreconditionError(
            "unresolved critical cells block the audit",
            cells=[u["cell_center"] for u in pts.unresolved])
    per_point = []
    interior = 0
    for p in pts:
        if domain.boundary_distance(p.location) <= 0:
            continue
        if p.hom_index is None:
            raise PreconditionError(
                "interior zero with unavailable index",
                location=p.location.tolist())
        interior += p.hom_index
        per_point.append((p.location, p.hom_index, Fraction(1)))
    bres = boundary_index(field, domain)
    for z in bres.zeros:
        per_point.append((z.location, z.index, z.weight))
    total = interior + bres.total
    target = Fraction(domain.euler_char) if field.dim % 2 == 0 else Fraction(0)
    return IndexResult(interior, bres.total, total, target, per_point,
                       passed=(total == target), boundary=bres)

