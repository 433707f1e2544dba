"""Field plumbing: bump calculus, derivative fallbacks, cross-checks."""

import numpy as np
import pytest

from critsense.errors import UsageError
from critsense.fields import (ScalarField, bump_vgh, spectral_norms,
                              transition_vgh)
from critsense.gallery import entry, gallery, limit_field, names


def _bump_value(s):
    return bump_vgh(s)[0]


def _transition_value(x):
    return transition_vgh(x)[0]


def _fd(f, s, order):
    """The central difference that ``grad`` or ``hess`` falls back to
    without the analytic derivative."""
    if order == "grad":
        return ScalarField(f.fn, f.dim).grad(s)
    return ScalarField(f.fn, f.dim, grad_fn=f.grad_fn).hess(s)


def test_bump_center_and_support():
    assert _bump_value(np.array([0.0, 0.0])) == pytest.approx(1.0)
    assert _bump_value(np.array([1.0, 0.0])) == 0.0
    assert _bump_value(np.array([1.7, 0.4])) == 0.0
    # strictly positive inside
    assert _bump_value(np.array([0.9, 0.0])) > 0.0


def test_bump_vanishes_smoothly_at_rim():
    # value, gradient, and curvature all collapse approaching |s| = 1
    f = ScalarField(_bump_value, 2)
    for r in (0.9, 0.99, 0.999):
        assert _bump_value(np.array([r, 0.0])) < \
            _bump_value(np.array([r - 0.05, 0.0]))
    g = f.grad(np.array([0.9999, 0.0]))
    assert np.linalg.norm(g) < 1e-4


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


def test_fd_fallback_gradient_on_plain_fn():
    f = ScalarField(lambda s: np.sin(s[..., 0]) * s[..., 1], 2)
    s = np.array([0.4, -1.2])
    expect = np.array([np.cos(0.4) * -1.2, np.sin(0.4)])
    assert np.allclose(f.grad(s), expect, atol=1e-7)
    H = f.hess(s)
    assert H.shape == (2, 2)
    assert np.allclose(H, H.T, atol=1e-6)


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
