"""Catalogue of scalar fields used throughout the toolkit.

Static entries are classical surfaces (bowl, saddle, monkey saddle, Peano
surface, ...). Family entries take a sharpness parameter ``n >= 1`` and come
with the field they converge to, so the sequence experiments can measure
convergence against a known limit. Every entry carries analytic gradients
and Hessians.

Entries tagged ``origin="classical"`` follow published closed forms;
``origin="reconstructed"`` entries are minimal families built here to
realize a documented limit behavior (plateaus, merging maxima, oscillation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .domains import Ball, Box, Domain, Interval
from .errors import CatalogueError, UsageError
from .fields import (ScalarField, bump1_vgh, bump_vgh, row_adder,
                     transition_vgh)


@dataclass(frozen=True)
class GalleryEntry:
    name: str
    dim: int
    make: Callable[[int], ScalarField]
    domain: Domain
    origin: str  # "classical" or "reconstructed"
    note: str
    limit: Callable[[], ScalarField] | None = None

    @property
    def family(self) -> bool:
        """Families take a sharpness ``n`` and come with their limit."""
        return self.limit is not None


def _wrap1d(parts) -> ScalarField:
    """1-d field from ``parts(x) -> (value, f', f'')``, elementwise in x;
    its jet is one ``parts`` call. ``x`` keeps the points' last axis, so
    one point is a 1-element array and never a numpy scalar, whose
    arithmetic rounds ``**`` differently: a point has the bits it has in
    a batch."""
    def jet(s, order):
        v, d1, d2 = parts(s[..., :1])
        if order == 1:
            return v[..., 0], d1
        return v[..., 0], d1, d2[..., None]

    return ScalarField(lambda s: parts(s[..., :1])[0][..., 0], 1,
                       lambda s: parts(s[..., :1])[1],
                       lambda s: parts(s[..., :1])[2][..., None], jet)


def _wrap2d(value, grad, hess) -> ScalarField:
    """2-d field from closed forms in ``(x, y)``, elementwise: ``value``,
    ``grad -> (f_x, f_y)`` and ``hess -> (f_xx, f_xy, f_yy)``. Three
    callables, so a value or gradient call computes nothing more."""
    def fn(s):
        return value(s[..., 0], s[..., 1])

    def gfn(s):
        return np.stack(grad(s[..., 0], s[..., 1]), axis=-1)

    def hfn(s):
        fxx, fxy, fyy = hess(s[..., 0], s[..., 1])
        out = np.empty(s.shape[:-1] + (2, 2))
        out[..., 0, 0] = fxx
        out[..., 0, 1] = out[..., 1, 0] = fxy
        out[..., 1, 1] = fyy
        return out

    return ScalarField(fn, 2, gfn, hfn)


def _linear(dim, axis) -> ScalarField:
    """f = s[axis]: a constant gradient, no critical points."""
    def fn(s):
        return s[..., axis].copy()

    def grad(s):
        g = np.zeros_like(np.asarray(s, dtype=float))
        g[..., axis] = 1.0
        return g

    def hess(s):
        return np.zeros(np.asarray(s).shape[:-1] + (dim, dim))

    return ScalarField(fn, dim, grad, hess)


# ---------------------------------------------------------------- #
# static surfaces
# ---------------------------------------------------------------- #

def _quadratic(dim, diag):
    """f = sum d_i x_i^2 with analytic derivatives; its jet forms d * s
    once."""
    d = np.asarray(diag, dtype=float)
    d2 = 2.0 * d
    H = np.diag(d2)
    row_sum = row_adder(dim)

    def fn(s):
        return row_sum(d * s * s)

    def grad(s):
        return d2 * s

    def hess(s):
        s = np.asarray(s, dtype=float)
        return np.broadcast_to(H, s.shape[:-1] + (dim, dim)).copy()

    def jet(s, order):
        ds = d * s
        parts = row_sum(ds * s), d2 * s
        return parts + (hess(s),) if order == 2 else parts

    return ScalarField(fn, dim, grad, hess, jet)


def _bowl(n):
    return _quadratic(2, [1.0, 1.0])


def _bowl3(n):
    return _quadratic(3, [1.0, 1.0, 1.0])


def _dome(n):
    return _quadratic(2, [-1.0, -1.0])


def _saddle(n):
    return _quadratic(2, [1.0, -1.0])


def _monkey(n):
    # x^3 - 3 x y^2: three-valley saddle
    return _wrap2d(lambda x, y: x**3 - 3.0 * x * y * y,
                   lambda x, y: (3.0 * x * x - 3.0 * y * y, -6.0 * x * y),
                   lambda x, y: (6.0 * x, -6.0 * y, -6.0 * x))


def _undulation(n):
    # x^3 + y^2: degenerate along x, still isolated at the origin
    return _wrap2d(lambda x, y: x**3 + y * y,
                   lambda x, y: (3.0 * x * x, 2.0 * y),
                   lambda x, y: (6.0 * x, 0.0, 2.0))


def _peano(n):
    # (2x^2 - y)(y - x^2): origin is a min along every line through it
    # yet not a local min; homological index 0
    return _wrap2d(lambda x, y: (2.0 * x * x - y) * (y - x * x),
                   lambda x, y: (6.0 * x * y - 8.0 * x**3,
                                 3.0 * x * x - 2.0 * y),
                   lambda x, y: (6.0 * y - 24.0 * x * x, 6.0 * x, -2.0))


def _two_gauss_terms(centers, weights, inv_var):
    """Sum of isotropic Gaussians with analytic derivatives."""
    centers = [np.asarray(c, dtype=float) for c in centers]

    def fn(s):
        s = np.asarray(s, dtype=float)
        total = np.zeros(s.shape[:-1])
        for c, w, iv in zip(centers, weights, inv_var):
            off = s - c
            total = total + w * np.exp(-iv * np.sum(off * off, axis=-1))
        return total

    def grad(s):
        s = np.asarray(s, dtype=float)
        total = np.zeros_like(s)
        for c, w, iv in zip(centers, weights, inv_var):
            off = s - c
            e = w * np.exp(-iv * np.sum(off * off, axis=-1))
            total = total - 2.0 * iv * e[..., None] * off
        return total

    def hess(s):
        s = np.asarray(s, dtype=float)
        d = s.shape[-1]
        eye = np.eye(d)
        total = np.zeros(s.shape[:-1] + (d, d))
        for c, w, iv in zip(centers, weights, inv_var):
            off = s - c
            e = w * np.exp(-iv * np.sum(off * off, axis=-1))
            outer = off[..., :, None] * off[..., None, :]
            total = total + e[..., None, None] * (
                4.0 * iv * iv * outer - 2.0 * iv * eye)
        return total

    return fn, grad, hess


def _twogauss(n):
    fn, grad, hess = _two_gauss_terms(
        [(0.4, 0.0), (-0.4, 0.0)], [1.0, 1.0], [20.0, 20.0])
    return ScalarField(fn, 2, grad, hess)


def _twogauss_pit(n):
    # a central pit deep enough that the saddle between the peaks drops
    # below the boundary values along the y axis
    fn, grad, hess = _two_gauss_terms(
        [(0.45, 0.0), (-0.45, 0.0), (0.0, 0.0)],
        [1.0, 1.0, -2.0], [20.0, 20.0, 12.5])
    return ScalarField(fn, 2, grad, hess)


# ---------------------------------------------------------------- #
# families
# ---------------------------------------------------------------- #

def _singlemax(n):
    """g(x, n y)/n with the five-branch g; a single interior maximum,
    converging uniformly to the critical-point-free f(x, y) = y.

    The seam at y = 0 is C1 only; branch interiors are smooth, and each
    branch has its own Hessian. With Y = n y: f_x = g_x / n, f_y = g_Y,
    f_xx = g_xx / n, f_xy = g_xY and f_yy = n g_YY.
    """
    def parts(s, order):
        # x and y keep the points' last axis, as in _wrap1d
        x, y = s[..., :1], n * s[..., 1:]
        b = bump1_vgh(y, order)
        bm = bump1_vgh(y - 1.0, order)
        S, Sd1, Sd2 = transition_vgh(x)
        E = np.exp(-x * x)
        conds = [y <= -1.0, y <= 0.0, y <= 1.0, y <= 2.0]

        def pick(branches, default):
            return np.select(conds, branches, default=default)[..., 0]

        out = (pick([
            y,
            (1.0 - b[0]) * y + b[0] * E,
            (1.0 - b[0]) * S + b[0] * E,
            bm[0] * S + (1.0 - bm[0]) * (y - 1.0),
        ], y - 1.0) / n,)
        if order == 0:
            return out
        # each part goes into place as picked, freeing its branch arrays
        Ex = -2.0 * x * E
        G = np.empty(y.shape[:-1] + (2,))
        G[..., 0] = pick([0.0, b[0] * Ex, (1.0 - b[0]) * Sd1 + b[0] * Ex,
                          bm[0] * Sd1], 0.0) / n
        G[..., 1] = pick([
            1.0,
            (1.0 - b[0]) + b[1] * (E - y),
            b[1] * (E - S),
            bm[1] * (S - (y - 1.0)) + (1.0 - bm[0]),
        ], 1.0)
        if order == 1:
            return out + (G,)
        Exx = (4.0 * x * x - 2.0) * E
        H = np.empty(y.shape[:-1] + (2, 2))
        H[..., 0, 0] = pick([0.0, b[0] * Exx, (1.0 - b[0]) * Sd2 + b[0] * Exx,
                             bm[0] * Sd2], 0.0) / n
        H[..., 0, 1] = H[..., 1, 0] = pick(
            [0.0, b[1] * Ex, b[1] * (Ex - Sd1), bm[1] * Sd1], 0.0)
        H[..., 1, 1] = n * pick([
            0.0,
            b[2] * (E - y) - 2.0 * b[1],
            b[2] * (E - S),
            bm[2] * (S - (y - 1.0)) - 2.0 * bm[1],
        ], 0.0)
        return out + (G, H)

    return ScalarField(lambda s: parts(s, 0)[0], 2,
                       lambda s: parts(s, 1)[1], lambda s: parts(s, 2)[2],
                       parts)


def _fig13a(n):
    """x^2 plus a one-sided bump: f_n(x) = x^2 + b(nx+1)/sqrt(n) - 5/n."""
    rn = np.sqrt(float(n))

    def parts(x):
        b, bd1, bd2 = bump1_vgh(n * x + 1.0)
        return x * x + b / rn - 5.0 / n, 2.0 * x + rn * bd1, 2.0 + n * rn * bd2

    return _wrap1d(parts)


def _parabola_limit(sign):
    def parts(x):
        return (sign * x * x + (1.0 if sign < 0 else 0.0), 2.0 * sign * x,
                np.full_like(x, 2.0 * sign))

    return _wrap1d(parts)


def _fig13b(n):
    """Saddle plus a shrinking bump: x^2 - y^2 + 20 b(nx+1, ny+1)/n^2."""
    saddle = _saddle(n)

    def bump(s, order):
        return bump_vgh(n * s + 1.0, order)

    def jet(s, order):
        """One bump evaluation for all the parts."""
        b = bump(s, order)
        parts = saddle.jet_fn(s, order)
        out = (parts[0] + 20.0 * b[0] / (n * n), parts[1] + (20.0 / n) * b[1])
        return out + (parts[2] + 20.0 * b[2],) if order == 2 else out

    return ScalarField(
        lambda s: saddle.fn(s) + 20.0 * bump(s, 0)[0] / (n * n), 2,
        lambda s: saddle.grad_fn(s) + (20.0 / n) * bump(s, 1)[1],
        lambda s: saddle.hess_fn(s) + 20.0 * bump(s, 2)[2], jet)


def _fig10(n):
    """Maxima merging: 1 - x^2 + (4/n^2) b(nx - 2); two maxima at every n."""
    def parts(x):
        b, bd1, bd2 = bump1_vgh(n * x - 2.0)
        return (1.0 - x * x + 4.0 * b / (n * n), -2.0 * x + 4.0 * bd1 / n,
                -2.0 + 4.0 * bd2)

    return _wrap1d(parts)


def _fig4a(n):
    """Plateau approximants of f(x) = x: constant on [-1/n, 1/n], C2 glue.

    Outside the plateau the ramp is t^3/(t^2 + 1/n^2) with t the distance
    past the plateau edge, which meets the flat part with two vanishing
    derivatives and tracks t to within 1/(2n).
    """
    a = 1.0 / (n * n)
    w = 1.0 / n

    def parts(x):
        t = np.maximum(np.abs(x) - w, 0.0)
        den = t * t + a
        val = np.sign(x) * t**3 / den
        d1 = (t**4 + 3.0 * a * t * t) / den**2
        d2 = np.sign(x) * 2.0 * a * t * (3.0 * a - t * t) / den**3
        return val, d1, d2

    return _wrap1d(parts)


def _fig4b(n):
    """x + sin(n^2 x)/n: oscillating approximants with ~n^2 critical points."""
    k = float(n * n)

    def parts(x):
        return (x + np.sin(k * x) / n, 1.0 + n * np.cos(k * x),
                -n**3 * np.sin(k * x))

    return _wrap1d(parts)


def _line_limit():
    return _linear(1, 0)


def _fig4c(n):
    """x^3 - x/n^2: two nondegenerate critical points collapsing onto one."""
    c = 1.0 / (n * n)
    return _wrap1d(lambda x: (x**3 - c * x, 3.0 * x * x - c, 6.0 * x))


def _cubic_limit():
    return _wrap1d(lambda x: (x**3, 3.0 * x**2, 6.0 * x))


def _twist(n):
    """Saddle seen through a radius-dependent rotation.

    Inside r <= 1/n the field is exactly x^2 - y^2; outside, coordinates
    rotate by R_n(r) = pi exp(-1/(n r - 1)), approaching a half turn. The
    family converges C1 (not C2) to the plain saddle. With
    F(x, y, th) = cos 2th (x^2 - y^2) - sin 2th 2xy, the Hessian is
    F_ij + th' (F_ith r_j + F_jth r_i) + (F_thth th'^2 + F_th th'') r_i r_j
    + F_th th' r_ij. Powers are products: ``**`` rounds differently on a
    single point's numpy scalars."""
    def terms(x, y, order):
        """cos 2th and sin 2th; for order 1 and up also F_th, th', th'',
        r (1 where r = 0), x^2 - y^2 and 2xy."""
        r = np.sqrt(x * x + y * y)
        active = n * r > 1.0
        denom = np.where(active, n * r - 1.0, 1.0)
        th = np.where(active, np.pi * np.exp(-1.0 / denom), 0.0)
        c2, s2 = np.cos(2.0 * th), np.sin(2.0 * th)
        if order == 0:
            return c2, s2
        # th' = th n / denom^2 and th'' = th n^2 (1 - 2 denom) / denom^4;
        # th underflows to 0 well before denom**4 can, so gate on it
        safe2 = np.where(th > 0.0, denom * denom, 1.0)
        dth = np.where(th > 0.0, th * n / safe2, 0.0)
        d2th = np.where(th > 0.0, th * (n * n) * (1.0 - 2.0 * denom)
                        / (safe2 * safe2), 0.0)
        A, B = x * x - y * y, 2.0 * x * y
        return (c2, s2, -2.0 * s2 * A - 2.0 * c2 * B, dth, d2th,
                np.where(r > 0, r, 1.0), A, B)

    def fn(x, y):
        c2, s2 = terms(x, y, 0)
        return c2 * (x * x - y * y) - s2 * 2.0 * x * y

    def grad(x, y):
        c2, s2, F_th, dth, _, r, _, _ = terms(x, y, 1)
        gx = 2.0 * (c2 * x - s2 * y) + F_th * dth * x / r
        gy = -2.0 * (c2 * y + s2 * x) + F_th * dth * y / r
        return gx, gy

    def hess(x, y):
        c2, s2, F_th, dth, d2th, r, A, B = terms(x, y, 2)
        F_xth = -4.0 * (s2 * x + c2 * y)
        F_yth = 4.0 * (s2 * y - c2 * x)
        rx, ry = x / r, y / r
        radial = -4.0 * (c2 * A - s2 * B) * dth * dth + F_th * d2th
        bend = F_th * dth / r
        hxx = (2.0 * c2 + 2.0 * F_xth * dth * rx + radial * rx * rx
               + bend * (1.0 - rx * rx))
        hxy = (-2.0 * s2 + (F_xth * ry + F_yth * rx) * dth
               + (radial - bend) * rx * ry)
        hyy = (-2.0 * c2 + 2.0 * F_yth * dth * ry + radial * ry * ry
               + bend * (1.0 - ry * ry))
        return hxx, hxy, hyy

    return _wrap2d(fn, grad, hess)


def _fig8a(n):
    """-exp(-1/(x^2 + 1/n)): a single maximum flattening onto the limit's
    infinitely flat one at the origin."""
    c = 1.0 / n

    def parts(x):
        w = x * x + c
        e = np.exp(-1.0 / w)
        d1 = -e * 2.0 * x / w**2
        d2 = -e * (4.0 * x * x / w**4 - 8.0 * x * x / w**3 + 2.0 / w**2)
        return -e, d1, d2

    return _wrap1d(parts)


def _fig8a_limit():
    def parts(x):
        x2 = x * x
        nz = x2 > 0.0
        safe = np.where(nz, x2, 1.0)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            e = np.where(nz, np.exp(-1.0 / safe), 0.0)
            d1 = np.where(nz, -e * 2.0 * x / safe**2, 0.0)
            d2 = np.where(nz, -e * (4.0 / safe**3 - 6.0 / safe**2), 0.0)
        return -e, d1, d2

    return _wrap1d(parts)


_TRIO_W = (1.3, 0.7, 0.5)


def _trio_field(shift_scale):
    """Double well ``x^4/4 - x^2/2 + y^2`` plus ``shift_scale`` times a
    skew sine ripple."""
    wx, wy, w0 = _TRIO_W

    def fn(x, y):
        base = 0.25 * x**4 - 0.5 * x * x + y * y
        if shift_scale == 0.0:
            return base
        return base + shift_scale * np.sin(wx * x + wy * y + w0)

    def grad(x, y):
        gx = x**3 - x
        gy = 2.0 * y
        if shift_scale != 0.0:
            c = shift_scale * np.cos(wx * x + wy * y + w0)
            gx = gx + wx * c
            gy = gy + wy * c
        return gx, gy

    def hess(x, y):
        hxx = 3.0 * x * x - 1.0
        if shift_scale == 0.0:
            return hxx, 0.0, 2.0
        sn = shift_scale * np.sin(wx * x + wy * y + w0)
        return hxx - wx * wx * sn, -wx * wy * sn, 2.0 - wy * wy * sn

    return _wrap2d(fn, grad, hess)


def _trio(n):
    """Double well plus a tiny skew ripple; three critical points at any n,
    converging C2 to the clean double well."""
    return _trio_field(1.0 / (n * n))


def _trio_limit():
    return _trio_field(0.0)


# ---------------------------------------------------------------- #
# registry
# ---------------------------------------------------------------- #

_B2 = Ball((0.0, 0.0), 1.0)
_I2 = Interval(-2.0, 2.0)

_ENTRIES = [
    GalleryEntry("bowl", 2, _bowl, _B2, "classical",
                 "x^2 + y^2; one minimum, radial boundary field"),
    GalleryEntry("bowl3", 3, _bowl3, Ball((0.0, 0.0, 0.0), 1.0),
                 "classical", "x^2 + y^2 + z^2 in three dimensions"),
    GalleryEntry("dome", 2, _dome, _B2, "classical",
                 "-(x^2 + y^2); one maximum"),
    GalleryEntry("saddle", 2, _saddle, _B2, "classical",
                 "x^2 - y^2; hyperbolic saddle, index -1"),
    GalleryEntry("monkey", 2, _monkey, _B2, "classical",
                 "x^3 - 3 x y^2; three-pronged saddle, index -2"),
    GalleryEntry("undulation", 2, _undulation, _B2, "classical",
                 "x^3 + y^2; degenerate isolated zero, index 0"),
    GalleryEntry("tilt", 2, lambda n: _linear(2, 0), _B2, "classical",
                 "f = x; no critical points"),
    GalleryEntry("peano", 2, _peano, _B2, "classical",
                 "(2x^2 - y)(y - x^2); min along every line, not a min"),
    GalleryEntry("twogauss", 2, _twogauss, _B2, "reconstructed",
                 "two Gaussian peaks; saddle between them at the origin"),
    GalleryEntry("twogauss_pit", 2, _twogauss_pit, _B2, "reconstructed",
                 "two peaks plus a central pit; lowest connecting path "
                 "leaves the interior"),
    GalleryEntry("singlemax", 2, _singlemax, Box((-1.0, -1.0), (1.0, 1.0)),
                 "classical",
                 "one interior maximum at every n; limit f = y has none",
                 lambda: _linear(2, 1)),
    GalleryEntry("fig13a", 1, _fig13a, _I2, "classical",
                 "parabola plus one-sided bump scaled by 1/sqrt(n); extra "
                 "max/min pair at every n, C0 limit x^2",
                 lambda: _parabola_limit(1.0)),
    GalleryEntry("fig13b", 2, _fig13b, Box((-2.0, -2.0), (2.0, 2.0)),
                 "classical",
                 "saddle plus shrinking bump; bump max and companion saddle "
                 "persist at every n, C1 limit x^2 - y^2", lambda: _saddle(1)),
    GalleryEntry("fig10", 1, _fig10, _I2, "reconstructed",
                 "1 - x^2 with a side bump; two maxima at every n merging "
                 "onto the limit's one", lambda: _parabola_limit(-1.0)),
    GalleryEntry("fig4a", 1, _fig4a, _I2, "reconstructed",
                 "plateau on [-1/n, 1/n] glued C2 into ramps; limit f = x",
                 _line_limit),
    GalleryEntry("fig4b", 1, _fig4b, _I2, "reconstructed",
                 "x + sin(n^2 x)/n; critical-point count diverges, "
                 "C0 limit f = x", _line_limit),
    GalleryEntry("fig4c", 1, _fig4c, _I2, "reconstructed",
                 "x^3 - x/n^2; two nondegenerate points collapsing onto "
                 "the limit's one degenerate point", _cubic_limit),
    GalleryEntry("twist", 2, _twist, _B2, "classical",
                 "saddle through a radius-dependent rotation; C1 limit is "
                 "the plain saddle, second derivatives do not converge",
                 lambda: _saddle(1)),
    GalleryEntry("fig8a", 1, _fig8a, Interval(-1.0, 1.0), "classical",
                 "-exp(-1/(x^2 + 1/n)); maximum flattening onto the "
                 "infinitely flat limit -exp(-1/x^2)", _fig8a_limit),
    GalleryEntry("trio", 2, _trio, Box((-1.6, -1.0), (1.6, 1.0)),
                 "reconstructed",
                 "double well with a 1/n^2 skew ripple; two minima and a "
                 "saddle at every n, C2 limit", _trio_limit),
]

GALLERY: dict[str, GalleryEntry] = {e.name: e for e in _ENTRIES}


def entry(name: str) -> GalleryEntry:
    try:
        return GALLERY[name]
    except KeyError:
        known = ", ".join(sorted(GALLERY))
        raise CatalogueError(f"no gallery entry {name!r}; known: {known}") from None


def gallery(name: str, n: int = 1) -> ScalarField:
    """Return the named field; ``n`` selects the family member and is
    ignored by static entries."""
    if n < 1 or int(n) != n:
        raise UsageError(f"family index must be a positive integer, got {n}")
    return entry(name).make(int(n))


def limit_field(name: str) -> ScalarField:
    e = entry(name)
    if e.limit is None:
        raise CatalogueError(f"gallery entry {name!r} is not a family")
    return e.limit()


def names() -> list[str]:
    return [e.name for e in _ENTRIES]


def catalogue() -> list[dict]:
    """Listing rows for the CLI."""
    rows = []
    for e in _ENTRIES:
        rows.append({
            "name": e.name,
            "dim": e.dim,
            "family": e.family,
            "origin": e.origin,
            "domain": e.domain.descriptor(),
            "note": e.note,
        })
    return rows
