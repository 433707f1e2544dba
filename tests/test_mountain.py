"""Minimax path search and its two pass-point certificates."""

import numpy as np
import pytest

from critsense.detect import refine_newton
from critsense.domains import Ball, Box
from critsense.errors import (NoSeparationError, PreconditionError,
                              UsageError)
from critsense.fields import ScalarField
from critsense.gallery import gallery
from critsense.mountainpass import mountain_pass_point

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


def test_pass_value_is_stable_in_the_knot_count():
    f = gallery("twogauss")
    c16 = mountain_pass_point(f, BALL, (0.4, 0.0), (-0.4, 0.0),
                              n_knots=16).c
    c32 = mountain_pass_point(f, BALL, (0.4, 0.0), (-0.4, 0.0),
                              n_knots=32).c
    assert abs(c16 - c32) <= 1e-9


def test_pass_path_brackets_the_saddle_from_above():
    # the winning path's knot minimum straddles the dip, so it tightens
    # from above as the knot count grows
    f = gallery("twogauss")
    v16, v64 = (float(np.min(f.value(mountain_pass_point(
        f, BALL, (0.4, 0.0), (-0.4, 0.0), n_knots=k).path[1:-1])))
        for k in (16, 64))
    assert SADDLE_VALUE < v64 < v16
    with pytest.raises(UsageError):
        mountain_pass_point(f, BALL, (0.4, 0.0), (-0.4, 0.0), n_knots=0)


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

    return ScalarField(val, 2, grad_fn=grad)


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
