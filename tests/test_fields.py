"""Field plumbing: bump calculus, missing derivatives, cross-checks."""

import warnings
from pathlib import Path

import numpy as np
import pytest

import critsense
from critsense.domains import Box
from critsense.errors import UsageError
from critsense.fields import (ScalarField, bisect_root, bump1_vgh, bump_vgh,
                              near_pairs, row_adder, spectral_norms,
                              sym_eigvalsh, transition_vgh)
from critsense.gallery import entry, gallery, limit_field, names
from critsense.randfield import BasisField

from oracles import fd_gradient, fd_hessian


def _bump_value(s):
    return bump_vgh(s)[0]


def _transition_value(x):
    return transition_vgh(x)[0]


def _fd(f, s, order):
    """Central differences of the values for ``"grad"``, and the
    symmetric part of those of the gradient for ``"hess"``."""
    if order == "grad":
        return fd_gradient(f.value, s)
    J = fd_gradient(f.grad, s)
    return 0.5 * (J + np.swapaxes(J, -1, -2))


def test_bump_center_and_support():
    assert _bump_value(np.array([0.0, 0.0])) == pytest.approx(1.0)
    assert _bump_value(np.array([1.0, 0.0])) == 0.0
    assert _bump_value(np.array([1.7, 0.4])) == 0.0
    # strictly positive inside
    assert _bump_value(np.array([0.9, 0.0])) > 0.0


def test_bump_orders_keep_the_bits_of_the_full_call():
    # outside the ball, on r^2 = 1, and just inside it, where exp
    # underflows to 0 while u = 1/(1 - r^2) is near 1e16
    rim = 1.0 - 2.0 ** -53
    s = np.array([[1.7, 0.4], [1.0, 0.0], [0.6, 0.8], [rim, 0.0],
                  [0.0, -rim], [0.999, 0.0], [0.3, -0.2], [0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        full = bump_vgh(s)
        parts = [bump_vgh(s, k) for k in (0, 1)]
        full1 = bump1_vgh(s[:, 0])
        parts1 = [bump1_vgh(s[:, 0], k) for k in (0, 1)]
    assert len(full) == 3 and len(full1) == 3
    for k, part in enumerate(parts):
        assert len(part) == k + 1
        for a, b in zip(part, full):
            assert a.tobytes() == b.tobytes()
    for k, part in enumerate(parts1):
        assert len(part) == k + 1
        for a, b in zip(part, full1):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert full[0][5] > 0.0 and full[0][3] == 0.0


def test_bump_vanishes_smoothly_at_rim():
    # value, gradient, and curvature all collapse approaching |s| = 1
    for r in (0.9, 0.99, 0.999):
        assert _bump_value(np.array([r, 0.0])) < \
            _bump_value(np.array([r - 0.05, 0.0]))
    s = np.array([0.9999, 0.0])
    _, g, H = bump_vgh(s)
    assert np.linalg.norm(fd_gradient(_bump_value, s)) < 1e-4
    assert np.linalg.norm(g) < 1e-4
    assert np.max(np.abs(fd_hessian(_bump_value, s))) < 1e-4
    assert np.max(np.abs(H)) < 1e-4


def test_transition_runs_from_zero_to_minus_one():
    xs = np.linspace(-6.0, 7.0, 201)
    ys = _transition_value(xs)
    assert np.all(np.diff(ys) <= 1e-15)
    assert _transition_value(0.5) == pytest.approx(-0.5)
    assert _transition_value(-30.0) == pytest.approx(0.0, abs=1e-12)
    assert _transition_value(30.0) == pytest.approx(-1.0, abs=1e-12)
    # overflow-safe far out on both sides
    assert np.isfinite(_transition_value(np.array([-1e4, 1e4]))).all()


@pytest.mark.parametrize("name", ["bowl", "saddle", "monkey", "peano",
                                  "twogauss", "undulation"])
def test_analytic_derivatives_match_finite_differences(name):
    f = gallery(name)
    rng = np.random.default_rng(5)
    for s in rng.uniform(-0.6, 0.6, size=(5, f.dim)):
        g_err = np.max(np.abs(_fd(f, s, "grad") - f.grad(s)))
        h_err = np.max(np.abs(_fd(f, s, "hess") - f.hess(s)))
        assert g_err < 1e-6
        assert h_err < 1e-5


_EVERY_FIELD = [(name, n) for name in names()
                for n in ((1, 4, "limit") if entry(name).family else (1,))]


@pytest.mark.parametrize("name,n", _EVERY_FIELD,
                         ids=[f"{g}-{n}" for g, n in _EVERY_FIELD])
def test_every_gallery_field_matches_finite_differences(name, n):
    # relative where the derivative exceeds 1: truncation error scales
    # with the derivative a finite difference approximates
    f = limit_field(name) if n == "limit" else gallery(name, n)
    lo, hi = entry(name).domain.bounding_box()
    rng = np.random.default_rng(0)
    for s in rng.uniform(lo, hi, size=(8, f.dim)):
        for order, exact in (("grad", f.grad(s)), ("hess", f.hess(s))):
            err = np.abs(_fd(f, s, order) - exact)
            assert np.all(err <= 1e-5 * np.maximum(1.0, np.abs(exact))), \
                (order, s)


@pytest.mark.parametrize("n", [1, 4, 16, 64])
def test_singlemax_hessian_matches_finite_differences_in_branches(n):
    # the oracle differentiates in (x, Y = n y), where the bumps have unit
    # width at every n. Points keep 1e-3 from each branch seam, where the
    # Hessian jumps, and within 0.75 of the centre of the branch's bump:
    # toward a bump's rim its derivatives grow so fast that the oracle's
    # truncation error, not the closed form, sets the error
    f = gallery("singlemax", n)
    scale = np.array([1.0, 1.0 / n])
    rng = np.random.default_rng(n)
    for lo, hi in ((-3.0, -1.001), (-0.75, -1e-3), (1e-3, 0.75),
                   (1.001, 1.75), (2.001, 3.0)):
        t = np.stack([rng.uniform(-1.0, 1.0, 50), rng.uniform(lo, hi, 50)],
                     axis=-1)
        exact = f.hess(t * scale)
        J = fd_gradient(lambda t: f.grad(t * scale), t) / scale
        fd = 0.5 * (J + np.swapaxes(J, -1, -2))
        assert np.all(np.abs(fd - exact)
                      <= 1e-5 * np.maximum(1.0, np.abs(exact))), (lo, hi)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


def _basis_field(dim):
    coeffs = np.random.default_rng(dim).standard_normal((5,) * dim)
    return BasisField(coeffs, dim), Box([0.0] * dim, [2.0 * np.pi] * dim)


def _jet_field(name, n):
    if name == "basis":
        return _basis_field(n)
    f = limit_field(name) if n == "limit" else gallery(name, n)
    return f, entry(name).domain


_JET_FIELDS = [(name, n) for name in names()
               for n in ((4, "limit") if entry(name).family else (1,))] + [
    ("basis", d) for d in (1, 2, 3)]


@pytest.mark.parametrize("name,n", _JET_FIELDS,
                         ids=[f"{g}-{n}" for g, n in _JET_FIELDS])
def test_jet_has_the_bits_of_value_grad_and_hess(name, n):
    f, dom = _jet_field(name, n)
    lo, hi = dom.bounding_box()
    rng = np.random.default_rng(3)
    # a batch, one point, and the origin, where signed zeros show
    for s in (rng.uniform(lo, hi, size=(7, f.dim)),
              rng.uniform(lo, hi, size=f.dim), np.zeros(f.dim)):
        exact = (f.value(s), f.grad(s), f.hess(s))
        for order in (1, 2):
            got = f.jet(s, order)
            assert len(got) == order + 1
            for part, want in zip(got, exact):
                assert _same_bits(part, want), (order, s)


@pytest.mark.parametrize("name,n", _JET_FIELDS,
                         ids=[f"{g}-{n}" for g, n in _JET_FIELDS])
def test_batch_rows_have_the_bits_of_each_point_alone(name, n):
    # detection evaluates its points as one batch and reads them row by
    # row, so a row must not depend on the batch around it
    f, dom = _jet_field(name, n)
    lo, hi = dom.bounding_box()
    pts = np.random.default_rng(4).uniform(lo, hi, size=(100, f.dim))
    pts[1] = 0.0

    def parts(s):
        jet1, jet2 = f.jet(s, 1), f.jet(s, 2)
        hess = f.hess(s)
        return (f.value(s), f.grad(s), hess, *jet1, *jet2,
                sym_eigvalsh(hess))

    alone = [parts(p) for p in pts]
    for k in (1, 2, 17, 100):
        batch = parts(pts[:k])
        for i in range(k):
            for j, (row, one) in enumerate(zip(batch, alone[i])):
                assert _same_bits(row[i], one), (k, i, j)


@pytest.mark.parametrize("name,diag", [
    ("bowl", (1.0, 1.0)), ("dome", (-1.0, -1.0)), ("saddle", (1.0, -1.0)),
    ("bowl3", (1.0, 1.0, 1.0))])
def test_quadratic_value_has_the_bits_of_its_sum(name, diag):
    # the dome's centre value is +0.0, the sign np.sum gives a row of -0.0
    f = gallery(name)
    d = np.array(diag)
    s = np.vstack([np.zeros(len(d)),
                   np.random.default_rng(1).uniform(-1, 1, (50, len(d)))])
    assert _same_bits(f.value(s), np.sum(d * s * s, axis=-1))
    assert _same_bits(f.value(s[0]), np.sum(d * s[0] * s[0], axis=-1))


def test_jet_without_jet_fn_calls_the_methods():
    calls = []
    f = ScalarField(lambda s: calls.append("value") or s[..., 0], 1,
                    grad_fn=lambda s: calls.append("grad") or s,
                    hess_fn=lambda s: calls.append("hess") or s[..., None])
    f.jet(np.zeros((3, 1)), 1)
    assert calls == ["value", "grad"]
    calls.clear()
    f.jet(np.zeros((3, 1)), 2)
    assert calls == ["value", "grad", "hess"]
    with pytest.raises(UsageError):
        f.jet(np.zeros((3, 1)), 3)
    with pytest.raises(UsageError):
        gallery("bowl").jet(np.zeros(3), 1)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_row_adder_has_the_bits_of_add_reduce(d):
    rng = np.random.default_rng(d)
    a = rng.standard_normal((20000, d)) * rng.uniform(1e-3, 1e3, (20000, d))
    # rows of signed zeros, where only the +0.0 start decides the sign
    a[:8] = rng.choice([-0.0, 0.0], size=(8, d))
    a[8] = -0.0
    want = np.add.reduce(a, axis=-1)
    assert _same_bits(row_adder(d)(a), want)
    squares = a * a
    assert _same_bits(row_adder(d, signed=False)(squares),
                      np.add.reduce(squares, axis=-1))
    assert _same_bits(row_adder(d)(a[9]), np.add.reduce(a[9], axis=-1))


def test_missing_derivative_raises_usage_error():
    f = ScalarField(lambda s: np.sin(s[..., 0]) * s[..., 1], 2)
    s = np.array([0.4, -1.2])
    with pytest.raises(UsageError, match="gradient"):
        f.grad(s)
    with pytest.raises(UsageError, match="Hessian"):
        f.hess(s)
    with pytest.raises(UsageError, match="Hessian"):
        ScalarField(f.fn, 2, grad_fn=lambda s: s).jet(s, 2)


def test_no_finite_differences_in_the_package():
    # every derivative is a closed form; central differences live in
    # the tests' oracles only
    for path in sorted(Path(critsense.__file__).parent.glob("*.py")):
        text = path.read_text()
        assert "fd_" not in text and "DEFAULT_FD_STEP" not in text, path.name


def test_batched_evaluation_shapes():
    f = gallery("bowl")
    s = np.zeros((3, 4, 2))
    assert f.value(s).shape == (3, 4)
    assert f.grad(s).shape == (3, 4, 2)
    assert f.hess(s).shape == (3, 4, 2, 2)


def test_shape_mismatch_is_rejected():
    f = gallery("bowl")
    with pytest.raises(UsageError):
        f.value(np.zeros(3))


def test_spectral_norm_agrees_with_numpy():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((3, 3))
    H = 0.5 * (A + A.T)
    assert spectral_norms(H) == pytest.approx(
        np.linalg.norm(H, ord=2), rel=1e-12)
    batch = np.stack([H, np.eye(3)])
    assert np.allclose(spectral_norms(batch), [spectral_norms(H), 1.0])


def test_near_pairs_keeps_a_pair_whose_gap_rounds_to_the_radius():
    # a - b is 1 + 2^-53 - 2^-60 exactly, over the radius 1, but rounds to
    # 1: the distance is the radius, and b lies below a - 1 = 2^-52
    a, b = 1.0 + 2.0 ** -52, 2.0 ** -53 + 2.0 ** -60
    assert a - b == 1.0 and b < a - 1.0
    for A, B in (([[a]], [[b]]), ([[a, 0.0]], [[b, 0.0]])):
        i, j, dist = near_pairs(np.array(A), np.array(B), 1.0)
        assert (i.tolist(), j.tolist(), dist.tolist()) == ([0], [0], [1.0])
    i, j, dist = near_pairs(np.array([[b]]), np.array([[a]]), 1.0)
    assert dist.tolist() == [1.0]


def test_bisection_stops_at_an_exact_zero():
    calls = []

    def fn(x):
        calls.append(x)
        return x - 0.75

    assert bisect_root(fn, 0.0, 1.0, -0.75) == (0.75, 0.75)
    assert calls == [0.5, 0.75]


def test_bisection_stops_at_adjacent_doubles():
    # sqrt(2) is no double: the bracket closes on the two doubles around
    # it, and no midpoint equal to an end is evaluated
    calls = []

    def fn(x):
        calls.append(x)
        return x * x - 2.0

    a, b = bisect_root(fn, 1.0, 2.0, -1.0)
    assert len(set(calls)) == len(calls) < 80
    assert b == np.nextafter(a, np.inf)
    assert fn(a) < 0.0 < fn(b)
    # from the other side, the end with the sign of fa stays first
    a, b = bisect_root(fn, 2.0, 1.0, 2.0)
    assert a == np.nextafter(b, np.inf) and fn(b) < 0.0 < fn(a)


def test_bisection_stops_after_80_steps():
    # a root at 1e-30 in [0, 1]: 80 halvings leave a bracket 2^-80 wide,
    # far wider than the doubles there
    calls = []

    def fn(x):
        calls.append(x)
        return x - 1e-30

    assert bisect_root(fn, 0.0, 1.0, -1e-30) == (0.0, 2.0 ** -80)
    assert len(calls) == 80
