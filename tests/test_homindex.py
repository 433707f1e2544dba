"""Index machinery: windings, boundary sums, audits."""

from fractions import Fraction

import numpy as np
import pytest

from critsense.domains import Ball, Box, Interval
from critsense.errors import (DegenerateError, NonGenericBoundaryError,
                              NonIsolatedZeroError, UnderSampledError,
                              UnsupportedError)
from critsense.detect import find_critical_points
from critsense.fields import ScalarField, bisect_root, sym_eigvalsh
from critsense.gallery import GALLERY, entry, gallery
from critsense.randfield import BasisSpec, sample_limit_field
from critsense import homindex
from critsense.homindex import (boundary_index, classify_by_index,
                                homological_index, poincare_hopf_audit,
                                probe_radius, tangential_zeros,
                                winding_index_2d)
from critsense.morse import morse_classify

from oracles import (boundary_degree, brute_winding, fd_gradient,
                     midpoint_bisection)

ORIGIN = np.zeros(2)


@pytest.mark.parametrize("eps", [0.1, 0.05])
@pytest.mark.parametrize("name,expected", [
    ("bowl", 1),        # minimum
    ("dome", 1),        # maximum
    ("undulation", 0),  # x^3 + y^2
    ("saddle", -1),     # hyperbolic
    ("monkey", -2),     # three-pronged
])
def test_winding_table(name, expected, eps):
    f = gallery(name)
    assert winding_index_2d(f, ORIGIN, eps) == expected
    assert brute_winding(f, ORIGIN, eps) == expected


@pytest.mark.parametrize("eps", [0.1, 0.05])
def test_peano_winding(eps):
    # four level-set branches through the origin: 1 - 4/2 = -1
    f = gallery("peano")
    assert winding_index_2d(f, ORIGIN, eps) == -1
    assert brute_winding(f, ORIGIN, eps) == -1


def test_winding_radius_independent_until_the_next_zero():
    f = gallery("twogauss")
    # saddle at the origin; nearest other zeros at (+-0.5, 0)
    idx = [winding_index_2d(f, ORIGIN, e) for e in (0.2, 0.1, 0.025)]
    assert idx == [-1, -1, -1]


def test_one_dimensional_sign_indices():
    up = ScalarField(lambda s: s[..., 0] ** 2, 1, grad_fn=lambda s: 2 * s)
    down = ScalarField(lambda s: -s[..., 0] ** 2, 1, grad_fn=lambda s: -2 * s)
    assert homological_index(up, np.zeros(1), 0.25) == 1
    assert homological_index(down, np.zeros(1), 0.25) == -1


def test_three_dimensional_dispatch():
    bowl3 = gallery("bowl3")
    assert homological_index(bowl3, np.zeros(3), 0.25) == 1
    flat = ScalarField(lambda s: np.sum(s ** 4, axis=-1), 3,
                       grad_fn=lambda s: 4 * s ** 3,
                       hess_fn=lambda s: 12.0 * s[..., None] ** 2 *
                       np.eye(3))
    with pytest.raises(DegenerateError):
        homological_index(flat, np.zeros(3), 0.25)


def test_sign_index_matches_winding_on_quadratics():
    rng = np.random.default_rng(44)
    for _ in range(10):
        A = rng.standard_normal((2, 2))
        H = A + A.T
        if abs(np.linalg.det(H)) < 0.2:
            continue
        f = ScalarField(
            lambda s, H=H: 0.5 * np.einsum("...i,ij,...j->...", s, H, s), 2,
            grad_fn=lambda s, H=H: s @ H,
            hess_fn=lambda s, H=H: np.broadcast_to(H, s.shape[:-1] + (2, 2)))
        assert (-1) ** morse_classify(f, ORIGIN) == \
            winding_index_2d(f, ORIGIN, 0.1)


def test_discontinuous_gradient_never_settles():
    # the angle step across the jump stays at pi under subdivision
    jumpy = ScalarField(
        lambda s: s[..., 0], 2,
        grad_fn=lambda s: np.where(s[..., :1] > 0, 1.0, -1.0) *
        np.ones_like(s))
    with pytest.raises(UnderSampledError) as exc:
        winding_index_2d(jumpy, ORIGIN, 0.1)
    assert "step" in exc.value.context


def _ring_of_zeros(dim):
    """(|s|^2 - 0.01)^2: an isolated zero at the origin inside a sphere of
    zeros of radius 0.1."""
    return ScalarField(
        lambda s: (np.sum(s ** 2, axis=-1) - 0.01) ** 2, dim,
        grad_fn=lambda s: (4.0 * (np.sum(s ** 2, axis=-1)
                                  - 0.01))[..., None] * s)


def test_zero_on_probe_circle_is_rejected():
    with pytest.raises(NonIsolatedZeroError):
        winding_index_2d(_ring_of_zeros(2), ORIGIN, 0.1)


@pytest.mark.parametrize("dim", [1, 2])
def test_index_probe_that_meets_a_zero_raises_at_the_given_eps(dim):
    # no smaller radius is tried: the answer would not be at this eps
    with pytest.raises(NonIsolatedZeroError) as exc:
        homological_index(_ring_of_zeros(dim), np.zeros(dim), eps=0.1)
    assert exc.value.context["eps"] == 0.1


@pytest.mark.parametrize("slope,where", [
    (lambda s: np.minimum(s, 0.0), "the right probe side"),
    (lambda s: np.maximum(s, 0.0), "the left probe side"),
    (lambda s: 0.0 * s, "both probe sides"),
], ids=["right", "left", "both"])
def test_one_dimensional_index_names_the_vanishing_probe_side(slope, where):
    # z = 0, eps = 0.1: min(x, 0) vanishes at +0.1 only, max(x, 0) at
    # -0.1 only; the index reads the derivative alone
    f = ScalarField(lambda s: 0.0 * s[..., 0], 1, grad_fn=slope)
    with pytest.raises(NonIsolatedZeroError, match=f"vanishes on {where}$"):
        homological_index(f, np.zeros(1), eps=0.1)


@pytest.mark.parametrize("name,expected", [
    ("bowl", "Min"),
    ("dome", "Max"),
    ("saddle", "Saddle(2)"),
    ("monkey", "Saddle(3)"),
    ("peano", "Saddle(2)"),
    ("undulation", "Undulation"),
])
def test_classification_strings(name, expected):
    f = gallery(name)
    idx = homological_index(f, ORIGIN, 0.25)
    assert classify_by_index(f, ORIGIN, 0.25) == (idx, expected)


def test_classification_policy_when_the_index_fails():
    # a strict probe ring decides even without an index; a mixed ring
    # re-raises a non-isolated index; a degenerate one is Unclassified
    def flat_grad(value):
        return ScalarField(value, 2, grad_fn=lambda s: np.zeros_like(s))

    cap = flat_grad(lambda s: -np.sum(s * s, axis=-1))
    assert classify_by_index(cap, ORIGIN, 0.1) == (None, "Max")
    mixed = flat_grad(lambda s: s[..., 0] ** 2 - s[..., 1] ** 2)
    with pytest.raises(NonIsolatedZeroError):
        classify_by_index(mixed, ORIGIN, 0.1)
    sign = np.array([1.0, 1.0, -1.0])
    quartic = ScalarField(
        lambda s: np.sum(sign * s ** 4, axis=-1), 3,
        grad_fn=lambda s: 4.0 * sign * s ** 3,
        hess_fn=lambda s: 12.0 * (sign * s ** 2)[..., None] * np.eye(3))
    assert classify_by_index(quartic, np.zeros(3), 0.1) == (None,
                                                             "Unclassified")


@pytest.mark.parametrize("name,n", [("fig4b", 4), ("fig13a", 4),
                                    ("twogauss", 1), ("trio", 4),
                                    ("bowl3", 1)])
def test_a_batch_classifies_each_zero_as_it_would_alone(name, n):
    f, dom = gallery(name, n), entry(name).domain
    locs = np.array([p.location for p in find_critical_points(f, dom)])
    eps = [probe_radius(z, locs, dom) for z in locs]
    eigs = sym_eigvalsh(f.hess(locs))
    alone = [classify_by_index(f, z, e, eigs=s)
             for z, e, s in zip(locs, eps, eigs)]
    assert classify_by_index(f, locs, eps, eigs=eigs) == alone
    assert homological_index(f, locs, eps, eigs=eigs) == [
        homological_index(f, z, e, eigs=s) for z, e, s in zip(locs, eps, eigs)]


def test_a_batch_of_windings_takes_one_gradient_call():
    # circle j of the one call is probe ring j; no step needs bisection
    base, shapes = gallery("twogauss"), []
    f = ScalarField(base.fn, 2, grad_fn=lambda s: shapes.append(s.shape)
                    or base.grad(s))
    locs = np.array([p.location for p in
                     find_critical_points(base, entry("twogauss").domain)])
    alone = [winding_index_2d(base, z, 0.1) for z in locs]
    assert sorted(alone) == [-1, 1, 1]
    assert winding_index_2d(f, locs, [0.1] * len(locs)) == alone
    assert shapes == [(256, 3, 2)]


def test_a_batch_raises_the_error_of_its_first_failing_zero():
    # the plateau [-1/4, 1/4] of fig4a: both probes and the ring are flat
    f = gallery("fig4a", 4)
    assert classify_by_index(f, np.array([[1.0]]), [0.1]) == [
        (0, "Undulation")]
    with pytest.raises(NonIsolatedZeroError) as exc:
        classify_by_index(f, np.array([[1.0], [0.0], [0.05]]),
                          [0.1, 0.1, 0.2])
    assert exc.value.context == {"point": [0.0], "eps": 0.1}
    indices = homological_index(f, np.array([[1.0], [0.0]]), [0.1, 0.1])
    assert indices[0] == 0
    assert isinstance(indices[1], NonIsolatedZeroError)


@pytest.mark.parametrize("name,total,perturbed", [
    ("monkey", Fraction(3), False),
    ("tilt", Fraction(1), False),
    ("saddle", Fraction(2), False),
    ("bowl", Fraction(0), True),   # radial: every tangential sample is 0
])
def test_boundary_index_on_the_disk(name, total, perturbed):
    res = boundary_index(gallery(name), Ball((0, 0), 1.0))
    assert res.total == total
    assert res.perturbed == perturbed


def test_boundary_index_interval_and_3d():
    up = ScalarField(lambda s: s[..., 0] ** 2, 1, grad_fn=lambda s: 2 * s)
    res = boundary_index(up, Interval(-1.0, 1.0))
    assert res.total == Fraction(-1)
    res3 = boundary_index(gallery("bowl3"), Ball((0, 0, 0), 1.0))
    assert res3.total == Fraction(-1)
    assert res3.perturbed


def test_sphere_zeros_satisfy_the_euler_identity_of_the_sphere():
    # the tangential zeros of grad f on S^2 are the critical points of f
    # restricted to it, so their indices sum to chi(S^2) = 2
    ball = Ball((np.pi,) * 3, 1.0)
    normals = ball.boundary_frames(512)[1]
    for trial in range(40):
        f = sample_limit_field(BasisSpec(3, 2, 1.0, 1.0), 123, trial)
        res = boundary_index(f, ball)
        assert sum(z.index for z in res.zeros) == 2, trial
        scale = np.max(np.linalg.norm(f.grad(ball.center + normals),
                                      axis=-1))
        locs = np.array([z.location for z in res.zeros])
        n = locs - ball.center
        g = f.grad(locs)
        tangential = g - np.sum(g * n, axis=-1, keepdims=True) * n
        assert np.all(np.linalg.norm(tangential, axis=-1)
                      <= 1e-9 * max(1.0, scale)), trial
        gaps = np.linalg.norm(locs[:, None] - locs[None], axis=-1)
        assert np.all(gaps[np.triu_indices(len(locs), 1)] >= 1e-6), trial


@pytest.mark.parametrize("pole", [1.0, -1.0], ids=["north", "south"])
def test_sphere_chart_hessian_matches_finite_differences(pole):
    # the chain-rule Hessian of a chart against central differences of
    # the chart's gradient, relative where it exceeds 1, over the chart's
    # whole disk on an off-centre ball
    f = sample_limit_field(BasisSpec(3, 2, 1.0, 1.0), 123, 7)
    chart = homindex._chart(f, np.array([3.0, 2.5, 3.6]), 0.8, pole)
    rng = np.random.default_rng(11)
    u = rng.uniform(-1.25, 1.25, size=(40, 2))
    u = u[np.sum(u * u, axis=-1) <= 1.25 ** 2]
    exact = chart.hess(u)
    J = fd_gradient(chart.grad, u)
    err = np.abs(0.5 * (J + np.swapaxes(J, -1, -2)) - exact)
    assert np.all(err <= 1e-5 * np.maximum(1.0, np.abs(exact)))
    assert np.max(np.abs(exact)) > 1.0


@pytest.mark.parametrize("axis", [0, 2], ids=["x_on_the_seam",
                                               "z_at_the_chart_centres"])
def test_sphere_chart_seam_counts_each_zero_once(axis):
    # f = x has its two sphere zeros on the equator, where both charts
    # reach; f = z has them at the poles, the two chart centres
    linear = ScalarField(lambda s: s[..., axis], 3,
                         grad_fn=lambda s: np.broadcast_to(
                             np.eye(3)[axis], s.shape).copy(),
                         hess_fn=lambda s: np.zeros(s.shape + (3,)))
    res = boundary_index(linear, Ball((0, 0, 0), 1.0))
    assert not res.perturbed
    assert res.total == 0
    assert len(res.zeros) == 2
    for side in (-1, 1):
        # +1/2 where grad f points in, at the minimum; -1/2 at the maximum
        pole = side * np.eye(3)[axis]
        z, = [z for z in res.zeros
              if np.linalg.norm(z.location - pole) < 1e-9]
        assert z.index == 1
        assert z.weight == Fraction(-side, 2)


BOX = Box([-1.0, -1.0], [1.0, 1.0])


@pytest.mark.parametrize("domain", ["own", "box"])
@pytest.mark.parametrize("name", [n for n, e in GALLERY.items()
                                  if e.dim == 2])
def test_boundary_index_meets_the_boundary_degree(name, domain):
    # interior sum = deg and interior + boundary = 1, so boundary = 1 - deg
    # from boundary data alone
    f = gallery(name, 4)
    dom = entry(name).domain if domain == "own" else BOX
    deg = boundary_degree(f, dom)
    if deg is None:
        pytest.skip("grad f is within the zero tolerance on the boundary")
    assert boundary_index(f, dom).total == 1 - deg


def test_boundary_roots_keep_the_bits_of_the_midpoint_bisection(
        monkeypatch):
    # every bracket the boundary walk bisects, over the box and disk audits
    # of the 2-d gallery at n = 4: its root is the old loop's midpoint
    brackets, roots = [], []

    def recorded_bisection(*bracket):
        brackets.append(bracket)
        return bisect_root(*bracket)

    def recorded_zeros(*args):
        out = tangential_zeros(*args)
        roots.extend(s for s, _ in out)
        return out

    monkeypatch.setattr(homindex, "bisect_root", recorded_bisection)
    monkeypatch.setattr(homindex, "tangential_zeros", recorded_zeros)
    for name in [n for n, e in GALLERY.items() if e.dim == 2]:
        for dom in (entry(name).domain, BOX):
            boundary_index(gallery(name, 4), dom)
    assert len(brackets) >= 50
    assert roots == [midpoint_bisection(*br) for br in brackets]


def test_box_corners_alone_carry_the_boundary_index():
    # grad f = (1, 2) has no tangential zero on an open edge; the corner
    # rule puts +1 at (0, 0) and -1 at (1, 1)
    f = ScalarField(lambda s: s[..., 0] + 2.0 * s[..., 1], 2,
                    grad_fn=lambda s: np.broadcast_to(
                        [1.0, 2.0], s.shape).copy())
    res = boundary_index(f, Box([0.0, 0.0], [1.0, 1.0]))
    assert not res.perturbed
    assert res.total == 1
    assert [(z.location.tolist(), z.index, z.weight) for z in res.zeros] \
        == [([0.0, 0.0], 1, Fraction(1, 2)), ([1.0, 1.0], -1, Fraction(-1, 2))]


def test_boundary_perturbation_gives_up_after_two_attempts():
    flat = ScalarField(lambda s: np.zeros(s.shape[:-1]), 2,
                       grad_fn=lambda s: np.zeros_like(s))
    with pytest.raises(NonGenericBoundaryError) as exc:
        boundary_index(flat, Ball((0, 0), 1.0))
    assert exc.value.context["retries"] == 1


@pytest.mark.parametrize("domain", [Box([-1.0] * 3, [1.0] * 3),
                                    Ball([0.0] * 4, 1.0)],
                         ids=["box3", "ball4"])
def test_boundary_index_unsupported_domains(domain):
    d = domain.dim
    bowl = ScalarField(lambda s: np.sum(s * s, axis=-1), d,
                       grad_fn=lambda s: 2 * s)
    with pytest.raises(UnsupportedError):
        boundary_index(bowl, domain)


def test_boundary_weights_are_half_integers():
    res = boundary_index(gallery("twogauss_pit"), Ball((0, 0), 1.0))
    assert res.total == Fraction(-2)
    for z in res.zeros:
        assert abs(z.weight) == Fraction(1, 2)


@pytest.mark.parametrize("name", ["bowl", "dome", "saddle", "monkey",
                                  "tilt", "twogauss"])
def test_audit_even_dimension_totals_one(name):
    for domain in (Ball((0, 0), 1.0), BOX):
        res = poincare_hopf_audit(gallery(name), domain)
        assert res.passed
        assert res.total == Fraction(1)


def test_audit_odd_dimension_totals_zero():
    up = ScalarField(lambda s: s[..., 0] ** 2, 1, grad_fn=lambda s: 2 * s,
                     hess_fn=lambda s: np.full(s.shape[:-1] + (1, 1), 2.0))
    res = poincare_hopf_audit(up, Interval(-1.0, 1.0), grid_res=64)
    assert res.passed
    assert res.total == Fraction(0)
    res3 = poincare_hopf_audit(gallery("bowl3"), Ball((0, 0, 0), 1.0),
                               grid_res=24)
    assert res3.passed
    assert res3.total == Fraction(0)


def test_audit_splits_interior_and_boundary():
    res = poincare_hopf_audit(gallery("twogauss_pit"), Ball((0, 0), 1.0))
    assert res.interior_index == 3
    assert res.boundary_index == Fraction(-2)
    assert res.passed

