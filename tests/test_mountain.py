"""Minimax path search and its two pass-point certificates."""

import numpy as np
import pytest

from critsense.detect import refine_newton
from critsense.domains import Ball, Box
from critsense.errors import (NoSeparationError, PreconditionError,
                              UsageError)
from critsense.fields import ScalarField
from critsense.gallery import _two_gauss_terms, gallery
from critsense.homindex import boundary_index
from critsense.mountainpass import mountain_pass_point
from oracles import brute_pass_value

BALL = Ball((0.0, 0.0), 1.0)
SADDLE_VALUE = 2.0 * np.exp(-3.2)


def test_interior_pass_point_on_the_double_peak():
    f = gallery("twogauss")
    res = mountain_pass_point(f, BALL, (0.4, 0.0), (-0.4, 0.0))
    assert res.kind == "InteriorCritical"
    assert float(np.linalg.norm(res.p3)) <= 1e-6
    assert res.c == pytest.approx(SADDLE_VALUE, abs=1e-9)
    assert res.certificate["grad_norm"] <= 1e-6
    assert res.c < res.f_p1 <= res.f_p2


def test_pass_value_is_stable_in_the_grid():
    f = gallery("twogauss")
    c32, c64 = (mountain_pass_point(f, BALL, (0.4, 0.0), (-0.4, 0.0),
                                    grid_res=g).c for g in (32, 64))
    assert abs(c32 - c64) <= 1e-9


def test_pass_path_stays_inside_the_superlevel_set():
    # the interior rows are lattice vertices whose lowest value is the
    # lattice pass: the bottleneck level between the peaks' vertices
    f = gallery("twogauss")
    res = mountain_pass_point(f, BALL, (0.4, 0.0), (-0.4, 0.0), grid_res=32)
    lat = BALL.lattice(32)
    vals, inside = f.value(lat), BALL.contains(lat)
    a, b = (np.unravel_index(np.argmin(np.where(
        inside, np.linalg.norm(lat - p, axis=-1), np.inf)), inside.shape)
        for p in (res.path[0], res.path[-1]))
    c_h = brute_pass_value(vals, inside, a, b)
    assert np.all(BALL.contains(res.path))
    assert np.all(f.value(res.path[1:-1]) >= c_h)
    assert np.min(f.value(res.path[1:-1])) == c_h
    assert np.all(np.linalg.norm(np.diff(res.path[1:-1], axis=0), axis=1)
                  <= np.sqrt(2) * 2.0 / 32 + 1e-12)
    for g in (4, 7):
        with pytest.raises(UsageError):
            mountain_pass_point(f, BALL, (0.4, 0.0), (-0.4, 0.0), grid_res=g)


def test_off_lattice_pass_converges_in_the_grid():
    # the saddle at the origin is no lattice vertex here; the ball's centre
    # is one at every even grid, and from this centre the vertices nearest
    # the saddle close in on it from grid 16 to grid 64
    f = gallery("twogauss")
    dom = Ball((0.037, 0.021), 1.0)
    runs = [mountain_pass_point(f, dom, (0.4, 0.0), (-0.4, 0.0), grid_res=g)
            for g in (16, 32, 64)]
    gaps = [abs(float(np.min(f.value(r.path[1:-1]))) - r.c) for r in runs]
    assert gaps[0] > gaps[1] > gaps[2] > 0.0
    for r in runs:
        assert r.kind == "InteriorCritical"
        assert abs(r.c - runs[-1].c) <= 1e-6
    assert runs[-1].c == pytest.approx(SADDLE_VALUE, abs=1e-9)


def test_three_dimensional_pass():
    fn, grad, hess = _two_gauss_terms([(0.4, 0.0, 0.0), (-0.4, 0.0, 0.0)],
                                      [1.0, 1.0], [20.0, 20.0])
    f = ScalarField(fn, 3, grad, hess)
    dom = Ball((0.037, 0.021, -0.013), 1.0)
    res = mountain_pass_point(f, dom, (0.4, 0.0, 0.0), (-0.4, 0.0, 0.0),
                              grid_res=32)
    assert res.kind == "InteriorCritical"
    assert float(np.linalg.norm(res.p3)) <= 1e-6
    assert res.c == pytest.approx(SADDLE_VALUE, abs=1e-9)
    assert np.all(dom.contains(res.path))
    assert abs(np.min(f.value(res.path[1:-1])) - res.c) <= 0.01


def test_pit_pushes_the_pass_to_the_boundary():
    f = gallery("twogauss_pit")
    q1 = refine_newton(f, np.array([0.48, 0.0]))
    q2 = refine_newton(f, np.array([-0.48, 0.0]))
    res = mountain_pass_point(f, BALL, q1, q2)
    assert res.kind == "BoundaryTangency"
    assert res.certificate["boundary_alignment"] <= 1e-6
    assert float(np.linalg.norm(res.p3)) == pytest.approx(1.0, abs=1e-9)
    assert abs(res.p3[0]) <= 1e-3
    assert res.c < res.f_p1


def _boxed_pit():
    centers = np.array([[0.7, 0.0], [-0.7, 0.0], [0.0, 0.0]])
    amps = np.array([1.0, 1.0, -2.0])

    def terms(s):
        diff = s[..., None, :] - centers
        return amps * np.exp(-8.0 * np.sum(diff ** 2, axis=-1))

    def val(s):
        return np.sum(terms(s), axis=-1)

    def grad(s):
        diff = s[..., None, :] - centers
        return np.sum(-16.0 * terms(s)[..., None] * diff, axis=-2)

    def hess(s):
        diff = s[..., None, :] - centers
        outer = diff[..., :, None] * diff[..., None, :]
        return np.sum(terms(s)[..., None, None]
                      * (256.0 * outer - 16.0 * np.eye(2)), axis=-3)

    return ScalarField(val, 2, grad_fn=grad, hess_fn=hess)


def test_box_domain_tangency_certificate():
    f = _boxed_pit()
    box = Box([-1.0, -1.0], [1.0, 1.0])
    q1 = refine_newton(f, np.array([0.72, 0.0]))
    q2 = refine_newton(f, np.array([-0.72, 0.0]))
    res = mountain_pass_point(f, box, q1, q2)
    assert res.kind == "BoundaryTangency"
    assert res.certificate["boundary_alignment"] <= 1e-6
    assert abs(res.p3[0]) <= 1e-3
    assert abs(res.p3[1]) == pytest.approx(1.0, abs=1e-12)
    assert res.c < res.f_p1


def test_box_tangency_on_the_edge_the_path_touches():
    # a non-square box: the tangency must sit on the edge holding the
    # path minimum, at the sign change nearest to it
    f = gallery("twogauss_pit")
    box = Box((-0.9, -0.5), (0.9, 0.5))
    q1 = refine_newton(f, np.array([0.5, 0.0]))
    q2 = refine_newton(f, np.array([-0.5, 0.0]))
    res = mountain_pass_point(f, box, q1, q2)
    inner = res.path[1:-1]
    low = inner[int(np.argmin(f.value(inner)))]
    assert res.kind == "BoundaryTangency"
    assert abs(res.p3[0]) <= 1e-3
    assert abs(res.p3[1]) == pytest.approx(0.5, abs=1e-12)
    assert res.p3[1] * low[1] > 0
    assert res.c == pytest.approx(-0.08764, abs=1e-5)
    assert res.c == pytest.approx(float(f.value(np.array([0.0, 0.5]))),
                                  abs=1e-9)


def test_pass_tangency_is_a_zero_of_the_boundary_audit():
    # the pass and the audit find tangential zeros by one bisection, so
    # the pass point is one of the audit's boundary zeros, bit for bit
    f = gallery("twogauss_pit")
    box = Box((-0.9, -0.5), (0.9, 0.5))
    q1 = refine_newton(f, np.array([0.5, 0.0]))
    q2 = refine_newton(f, np.array([-0.5, 0.0]))
    res = mountain_pass_point(f, box, q1, q2)
    assert res.kind == "BoundaryTangency"
    zeros = boundary_index(f, box).zeros
    assert min(float(np.linalg.norm(z.location - res.p3))
               for z in zeros) == 0.0


@pytest.mark.parametrize("domain", [
    Box((-0.4, -1.0), (1.0, 1.0)),    # p1 on the left edge
    Ball((0.3, 0.0), 0.7),            # p1 on the circle
    Box((-0.39, -1.0), (1.0, 1.0)),   # p1 0.01 outside
], ids=["box_edge", "circle", "outside"])
def test_a_peak_on_or_outside_the_boundary_is_refused(domain):
    # the classifier's rule, as classify --point applies it, needs a
    # point strictly inside: a ring clipped to the domain is no proof
    with pytest.raises(PreconditionError) as exc:
        mountain_pass_point(gallery("twogauss"), domain, (-0.4, 0.0),
                            (0.4, 0.0))
    assert exc.value.context["point"] == [-0.4, 0.0]


def test_flat_ridge_has_no_separating_dip():
    f = ScalarField(
        lambda s: 1e-12 * np.cos(s[..., 0]) - s[..., 1] ** 2, 2,
        grad_fn=lambda s: np.stack(
            [-1e-12 * np.sin(s[..., 0]), -2.0 * s[..., 1]], axis=-1))
    dom = Box([-1.0, -1.0], [7.0, 1.0])
    with pytest.raises(NoSeparationError) as exc:
        mountain_pass_point(f, dom, (0.0, 0.0), (2.0 * np.pi, 0.0))
    assert "best_value" in exc.value.context


def test_endpoints_must_be_local_maxima():
    with pytest.raises(PreconditionError):
        mountain_pass_point(gallery("dome"), BALL, (0.0, 0.0), (0.5, 0.0))
