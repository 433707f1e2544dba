"""Morse radius constants, the homotopy flow, and its verification."""

from dataclasses import replace

import numpy as np
import pytest

from critsense.domains import Ball, Box
from critsense.errors import (CoverageError, FlowSingularError,
                              NotMorseError, UsageError)
from critsense.detect import refine_newton
from critsense.fields import ScalarField, bisect_root, sup_spectral_norm
from critsense.gallery import gallery
from critsense.morse import (FlowChart, _ball_samples, _shell_sampler,
                             corollary_constants,
                             flow_pair_distance, make_chart, morse_classify, morse_flow_map,
                             morse_flow_trajectory, morse_statistic,
                             verify_morse_chart)

ORIGIN = np.zeros(2)


def quad2(H):
    H = np.asarray(H, dtype=float)
    return ScalarField(
        lambda s: 0.5 * np.einsum("...i,ij,...j->...", s, H, s), 2,
        grad_fn=lambda s: s @ H,
        hess_fn=lambda s: np.broadcast_to(H, s.shape[:-1] + (2, 2)))


def cubic1d(c):
    return ScalarField(
        lambda s: 0.5 * s[..., 0] ** 2 + c * s[..., 0] ** 3, 1,
        grad_fn=lambda s: s + 3.0 * c * s ** 2,
        hess_fn=lambda s: (1.0 + 6.0 * c * s)[..., None])


def saddle_cubic2d(c):
    def hess(s):
        x, y = s[..., 0], s[..., 1]
        row0 = np.stack([1.0 + 2.0 * c * y, 2.0 * c * x], axis=-1)
        row1 = np.stack([2.0 * c * x, -np.ones_like(x)], axis=-1)
        return np.stack([row0, row1], axis=-2)

    return ScalarField(
        lambda s: 0.5 * (s[..., 0] ** 2 - s[..., 1] ** 2)
        + c * s[..., 0] ** 2 * s[..., 1], 2,
        grad_fn=lambda s: np.stack(
            [s[..., 0] + 2.0 * c * s[..., 0] * s[..., 1],
             -s[..., 1] + c * s[..., 0] ** 2], axis=-1),
        hess_fn=hess)


def bowl_cubic2d(c):
    def hess(s):
        x = s[..., 0]
        row0 = np.stack([1.0 + 6.0 * c * x, np.zeros_like(x)], axis=-1)
        row1 = np.stack([np.zeros_like(x), np.ones_like(x)], axis=-1)
        return np.stack([row0, row1], axis=-2)

    return ScalarField(
        lambda s: 0.5 * np.sum(s ** 2, axis=-1) + c * s[..., 0] ** 3, 2,
        grad_fn=lambda s: np.stack(
            [s[..., 0] + 3.0 * c * s[..., 0] ** 2, s[..., 1]], axis=-1),
        hess_fn=hess)


@pytest.mark.parametrize("name,expected", [
    ("bowl", 0),
    ("dome", 2),
    ("saddle", 1),
    ("monkey", None),
    ("undulation", None),
])
def test_morse_classify(name, expected):
    assert morse_classify(gallery(name), ORIGIN) == expected


def test_constants_identity_hessian():
    out = corollary_constants(np.eye(2))
    assert abs(out["K1"] - np.log(2.0) / 24.0) <= 1e-12
    assert abs(out["K2"] - 0.125) <= 1e-12


def test_constants_indefinite_hessian():
    out = corollary_constants(np.diag([2.0, -1.0]))
    assert abs(out["K1"] - np.log(2.0) / 48.0) <= 1e-12
    assert abs(out["K2"] - 0.0625) <= 1e-12


def test_constants_reject_a_singular_h():
    with pytest.raises(NotMorseError):
        corollary_constants(np.diag([1.0, 0.0]))


def test_chart_radius_hits_the_cap_on_a_quadratic():
    chart = make_chart(quad2(np.eye(2)), ORIGIN)
    assert chart.radius == pytest.approx(0.125, rel=1e-9)
    assert chart.L == 0.0
    assert chart.a1 == 0.0
    assert chart.bilip_lo_bound == 1.0
    assert chart.bilip_hi_bound == 1.0
    assert chart.L < chart.K1 and chart.radius < chart.K2


def test_chart_radius_from_hessian_variation():
    # H(x) = 1 + 0.3 x, so the variation hits K1 at r = K1 / 0.3
    chart = make_chart(cubic1d(0.05), np.zeros(1))
    assert chart.radius == pytest.approx(np.log(2.0) / 24.0 / 0.3, rel=1e-6)
    assert chart.radius < chart.K2
    assert chart.L < chart.K1


@pytest.mark.parametrize("name,p", [
    ("twogauss", refine_newton(gallery("twogauss"), np.array([0.4, 0.0]))),
    # monkey's detected point: a radius far below cap / 256, where 60
    # fixed halvings stopped short of adjacent doubles
    ("monkey", np.array([-9.5367431640625e-06, -1.9073486328125e-06])),
])
def test_chart_radius_is_the_low_end_of_the_bisection_bracket(name, p):
    f = gallery(name)
    chart = make_chart(f, p)
    H = f.hess(p)
    shells = _shell_sampler(2)

    def variation(r):
        return sup_spectral_norm(f.hess(p + shells(r, 16)) - H)

    cap = min(1.0, chart.K2 * (1.0 - 1e-12))
    assert variation(cap) >= chart.K1  # the bisection runs
    lo, hi = bisect_root(
        lambda r: -1.0 if variation(r) < chart.K1 else 1.0, 0.0, cap, -1.0)
    assert chart.radius == lo > 0.0
    assert chart.L == variation(lo) < chart.K1 <= variation(hi)
    assert hi == np.nextafter(lo, np.inf)


def test_flow_is_identity_on_a_quadratic():
    f = quad2(np.array([[2.0, 0.3], [0.3, 1.0]]))
    chart = make_chart(f, ORIGIN)
    rng = np.random.default_rng(3)
    raw = rng.standard_normal((100, 2))
    pts = chart.radius * 0.999 * raw / np.linalg.norm(raw, axis=1,
                                                     keepdims=True)
    pts *= rng.uniform(0, 1, size=(100, 1)) ** 0.5
    out = morse_flow_map(f, chart, pts)
    assert float(np.max(np.linalg.norm(out - pts, axis=-1))) <= 1e-12
    rep = verify_morse_chart(f, chart)
    assert rep["residual_sup"] <= 1e-12


@pytest.mark.parametrize("field,dim", [
    (cubic1d(0.05), 1),
    (saddle_cubic2d(0.05), 2),
])
def test_flow_straightens_cubic_perturbations(field, dim):
    chart = make_chart(field, np.zeros(dim))
    rep = verify_morse_chart(field, chart, seed=1)
    assert rep["residual_sup"] <= 1e-6
    assert rep["bilip_lo"] > 0.8
    assert rep["bilip_hi"] < 1.2


def test_flow_step_halving_is_settled():
    field = saddle_cubic2d(0.05)
    chart = make_chart(field, ORIGIN)
    xi = _shell_points(chart.radius * 0.99)
    out_a = morse_flow_map(field, replace(chart, ode_step=1e-3), xi)
    out_b = morse_flow_map(field, replace(chart, ode_step=5e-4), xi)
    assert float(np.max(np.linalg.norm(out_a - out_b, axis=-1))) < 1e-9


def _shell_points(r, n=32):
    t = 2.0 * np.pi * np.arange(n) / n
    return r * np.stack([np.cos(t), np.sin(t)], axis=-1)


def test_trajectory_matches_endpoint():
    field = bowl_cubic2d(0.05)
    chart = make_chart(field, ORIGIN)
    x = np.array([0.08, -0.05])
    ts, path = morse_flow_trajectory(field, chart, x)
    assert ts[0] == 0.0 and ts[-1] == 1.0
    assert len(ts) == len(path) == 1001
    assert np.allclose(path[0], x)
    assert np.allclose(path[-1], morse_flow_map(field, chart, x))


def offdiag_cubic2d():
    """x^2 + 0.3 x y + y^2/2 + 0.05 x^2 y: an off-diagonal Hessian, with
    every term elementwise, so a row keeps its bits in any batch."""
    def hess(s):
        x, y = s[..., 0], s[..., 1]
        row0 = np.stack([2.0 + 0.1 * y, 0.3 + 0.1 * x], axis=-1)
        row1 = np.stack([0.3 + 0.1 * x, np.ones_like(x)], axis=-1)
        return np.stack([row0, row1], axis=-2)

    return ScalarField(
        lambda s: s[..., 0] ** 2 + 0.3 * s[..., 0] * s[..., 1]
        + 0.5 * s[..., 1] ** 2 + 0.05 * s[..., 0] ** 2 * s[..., 1], 2,
        grad_fn=lambda s: np.stack(
            [2.0 * s[..., 0] + 0.3 * s[..., 1] + 0.1 * s[..., 0] * s[..., 1],
             0.3 * s[..., 0] + s[..., 1] + 0.05 * s[..., 0] ** 2], axis=-1),
        hess_fn=hess)


# With the quadratic term as an einsum, the trio start's path differed in
# 296 of 1,001 states and the cubic start's end point differed too.
@pytest.mark.parametrize("field,seed_pt,j", [
    # the trio n = 4 chart at (-1.026, -0.0145), radius 0.00833
    (gallery("trio", 4), (-1.026, -0.0145), 3),
    (offdiag_cubic2d(), (0.0, 0.0), 4),
], ids=["trio", "offdiag_cubic"])
def test_a_batch_row_keeps_the_bits_of_its_lone_trajectory(field, seed_pt,
                                                            j):
    chart = make_chart(field, refine_newton(field, np.array(seed_pt)))
    xi = _ball_samples(2, chart.radius, 100, 2)
    start = chart.center + 0.7 * xi[j]
    ts, lone = morse_flow_trajectory(field, chart, start)
    batch = np.vstack([chart.center + xi, start])
    assert np.array_equal(morse_flow_map(field, chart, batch)[-1], lone[-1])
    path = np.empty_like(lone)
    path[0] = start
    # row 101 of the verification batch, recorded state by state
    verify_morse_chart(field, chart, seed=2, path=path)
    assert np.array_equal(path, lone)
    assert len(ts) == chart.n_steps + 1


def test_a_singular_tracked_row_reports_its_lone_t_and_worst():
    # Off the x-axis f = |s|^2/2 = the chart's quadratic, so phi = 0 and
    # the 100 verification rows stay put. On the axis f = -c x^2/2, so
    # y_t = (1 - t (1 + c)) x, which is about 2^-51 x at the stage t = 1/2
    # that a step of 1/4 lands on: only the tracked row trips the check.
    c = 1.0 + 2.0 ** -50

    def on_axis(s):
        return s[..., 1] == 0.0

    field = ScalarField(
        lambda s: np.where(on_axis(s), -0.5 * c * s[..., 0] ** 2,
                           0.5 * np.add.reduce(s * s, axis=-1)), 2,
        grad_fn=lambda s: np.where(on_axis(s)[..., None],
                                   s * np.array([-c, 0.0]), s))
    chart = FlowChart(ORIGIN, np.eye(2), 0.5, 1.0, 1.0, 0.0, 1.0, 1.0, 0.0,
                      ode_step=0.25)
    verify_morse_chart(field, chart)
    start = np.array([0.1, 0.0])
    with pytest.raises(FlowSingularError) as lone:
        morse_flow_trajectory(field, chart, start)
    path = np.empty((chart.n_steps + 1, 2))
    path[0] = start
    with pytest.raises(FlowSingularError) as batched:
        verify_morse_chart(field, chart, path=path)
    assert lone.value.context["t"] == 0.5
    assert 0.0 <= lone.value.context["worst"] < 1e-28
    assert batched.value.context == lone.value.context


def _constant_chart(ode_step):
    """A hand-built chart of f = 0 with H = I: phi = -|y|^2/2 and
    y_t = (1 - t) y, so the flow denominator vanishes at t = 1."""
    return FlowChart(ORIGIN, np.eye(2), 0.1, 1.0, 1.0, 0.0, 1.0, 1.0, 0.0,
                     ode_step=ode_step)


CONSTANT = ScalarField(lambda s: np.zeros(np.shape(s)[:-1]), 2,
                       grad_fn=np.zeros_like)


def test_flow_raises_where_its_denominator_vanishes():
    # a step of 1/4 lands the last RK4 stage on t = 1 exactly
    chart = _constant_chart(0.25)
    with pytest.raises(FlowSingularError) as err:
        morse_flow_map(CONSTANT, chart, np.array([[0.05, 0.0], [0.0, 0.0]]))
    assert err.value.context == {"t": 1.0, "worst": 0.0}
    # the centre alone never trips the check: y = 0 is not "away" from it
    out = morse_flow_map(CONSTANT, chart, np.zeros((1, 2)))
    assert np.array_equal(out, np.zeros((1, 2)))


def test_flow_keeps_a_centre_row_at_the_centre():
    field = saddle_cubic2d(0.05)
    chart = make_chart(field, ORIGIN)
    x = np.array([0.04, -0.03])
    out = morse_flow_map(field, chart, np.stack([np.zeros(2), x]))
    assert np.all(np.isfinite(out))
    assert np.array_equal(out[0], np.zeros(2))
    np.testing.assert_allclose(out[1], morse_flow_map(field, chart, x),
                               rtol=0.0, atol=1e-15)
    ts, path = morse_flow_trajectory(field, chart, np.zeros(2))
    assert np.array_equal(path, np.zeros((len(ts), 2)))


def test_flow_makes_four_evaluations_per_step():
    field = saddle_cubic2d(0.05)
    chart = replace(make_chart(field, ORIGIN), ode_step=0.01)
    calls = {"value": 0, "grad": 0, "hess": 0}

    def counted(kind, fn):
        def wrapped(s):
            calls[kind] += 1
            return fn(s)
        return wrapped

    counting = ScalarField(counted("value", field.fn), 2,
                           grad_fn=counted("grad", field.grad_fn),
                           hess_fn=counted("hess", field.hess_fn))
    xs = _shell_points(0.5 * chart.radius, n=8)
    for run in (lambda: morse_flow_map(counting, chart, xs),
                lambda: morse_flow_trajectory(counting, chart, xs[0])):
        calls.update(value=0, grad=0, hess=0)
        run()
        # 100 RK4 steps of 4 stages, plus f at the centre
        assert calls == {"value": 401, "grad": 400, "hess": 0}


def test_flow_makes_one_jet_call_per_stage():
    field = saddle_cubic2d(0.05)
    chart = replace(make_chart(field, ORIGIN), ode_step=0.01)
    orders = []

    def jet_fn(s, order):
        orders.append(order)
        return field.fn(s), field.grad_fn(s)

    with_jet = replace(field, jet_fn=jet_fn)
    xs = _shell_points(0.5 * chart.radius, n=8)
    want = morse_flow_map(field, chart, xs)
    # 100 RK4 steps of 4 stages, each one first-order jet
    assert np.array_equal(morse_flow_map(with_jet, chart, xs), want)
    assert orders == [1] * 400


def test_flow_input_validation():
    f = quad2(np.eye(2))
    chart = make_chart(f, ORIGIN)
    with pytest.raises(UsageError):
        morse_flow_map(f, chart, np.array([0.2, 0.0]))
    with pytest.raises(UsageError):
        morse_flow_map(f, replace(chart, ode_step=0.7),
                       np.array([0.01, 0.0]))


@pytest.mark.parametrize("step", [0.7, 0.0, -1e-3, float("nan"), 1e-6])
def test_chart_rejects_a_bad_step_at_construction(step):
    with pytest.raises(UsageError, match="ode_step"):
        FlowChart(ORIGIN, np.eye(2), 0.1, 1.0, 1.0, 0.0, 1.0, 1.0, 0.0,
                  ode_step=step)
    with pytest.raises(UsageError, match="ode_step"):
        make_chart(quad2(np.eye(2)), ORIGIN, ode_step=step)


def test_degenerate_center_is_rejected():
    with pytest.raises(NotMorseError):
        make_chart(gallery("monkey"), ORIGIN)


def test_pair_distance_decreases_with_n():
    base = bowl_cubic2d(0.0)
    dists = []
    for n in (4, 16, 64):
        pert = bowl_cubic2d(0.1 / n)
        dists.append(flow_pair_distance(pert, base, ORIGIN, ORIGIN,
                                        r_shared=0.12))
    assert dists[0] > dists[1] > dists[2]
    assert dists[2] < 1e-3


def test_pair_distance_needs_covering_charts():
    base = bowl_cubic2d(0.0)
    sharp = bowl_cubic2d(0.2)
    with pytest.raises(CoverageError):
        flow_pair_distance(sharp, base, ORIGIN, ORIGIN, r_shared=0.1)


def test_morse_statistic_values():
    assert morse_statistic(gallery("bowl"), Ball((0.0, 0.0), 1.0),
                           grid_res=32) == pytest.approx(2.0, abs=1e-12)
    assert morse_statistic(gallery("tilt"), Ball((0.0, 0.0), 1.0),
                           grid_res=32) == pytest.approx(1.0, abs=1e-12)
    # lattice node at the origin sees grad = 0 and a singular Hessian
    assert morse_statistic(gallery("peano"), Box([-1.0, -1.0], [1.0, 1.0]),
                           grid_res=32) <= 1e-15
