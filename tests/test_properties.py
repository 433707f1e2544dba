"""Randomized invariant checks across the indexing and matching layers."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from critsense.fields import ScalarField, row_norms
from critsense.homindex import sign_index_nondegenerate, winding_index_2d
from critsense.randfield import BasisSpec, sample_limit_field
from critsense.sequence import counts_from_points, match_critical_points

from oracles import optimal_matching

coef = st.floats(-3.0, 3.0, allow_nan=False)


@st.composite
def quadratics(draw):
    """Symmetric 2x2 Hessian, bounded away from singular, plus a center."""
    a, b, c = draw(coef), draw(coef), draw(coef)
    assume(abs(a * c - b * b) > 0.05)
    z = np.array([draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5))])
    return np.array([[a, b], [b, c]]), z


def quad_field(H, z):
    def fn(s):
        d = np.asarray(s, dtype=float) - z
        return 0.5 * np.einsum("...i,ij,...j->...", d, H, d)

    return ScalarField(
        fn, 2,
        grad_fn=lambda s: (np.asarray(s, dtype=float) - z) @ H,
        hess_fn=lambda s: np.broadcast_to(
            H, np.asarray(s).shape[:-1] + (2, 2)))


@given(quadratics())
@settings(max_examples=40, deadline=None)
def test_winding_agrees_with_the_hessian_sign(hz):
    H, z = hz
    f = quad_field(H, z)
    expected = int(np.sign(np.linalg.det(H)))
    assert winding_index_2d(f, z, eps=0.3) == expected
    # the count is a ring invariant, not an artifact of one radius
    assert winding_index_2d(f, z, eps=0.15) == expected
    assert sign_index_nondegenerate(f, z) == expected


points_2d = st.lists(
    st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    min_size=0, max_size=5)


@given(points_2d, points_2d, st.floats(0.05, 0.6))
@settings(max_examples=60, deadline=None)
def test_matching_is_symmetric_and_near_optimal(a, b, radius):
    la = [np.array(p) for p in a]
    lb = [np.array(p) for p in b]
    m_ab = match_critical_points(la, lb, radius=radius)
    m_ba = match_critical_points(lb, la, radius=radius)
    assert sorted((j, i) for i, j, _ in m_ab.pairs) == \
        sorted((i, j) for i, j, _ in m_ba.pairs)
    assert len(m_ab.pairs) + len(m_ab.unmatched_n) == len(la)
    assert len(m_ab.pairs) + len(m_ab.unmatched_limit) == len(lb)
    for i, j, d in m_ab.pairs:
        assert d <= radius
        assert d == pytest.approx(float(np.linalg.norm(la[i] - lb[j])),
                                  abs=1e-12)
    if la and lb:
        # greedy maximal matching sits within a factor two of the optimum
        opt = optimal_matching(la, lb, radius)
        assert len(m_ab.pairs) <= opt <= 2 * len(m_ab.pairs)


@st.composite
def rows_and_point(draw):
    """A point b and up to 8 rows in 1-3 dimensions; some rows are b."""
    d = draw(st.integers(1, 3))
    vec = st.lists(st.floats(-1e3, 1e3), min_size=d, max_size=d)
    b = draw(vec)
    rows = draw(st.lists(st.one_of(st.just(b), vec), min_size=1,
                         max_size=8))
    return np.array(rows), np.array(b)


@given(rows_and_point())
@settings(max_examples=200, deadline=None)
def test_row_norms_carry_the_bits_of_the_scalar_norm(ab):
    A, b = ab
    got = row_norms(A - b)
    assert got.shape == (len(A),)
    for a, r in zip(A, got):
        assert r == float(np.linalg.norm(a - b))


synthetic_points = st.lists(
    st.builds(SimpleNamespace,
              classification=st.sampled_from(
                  ["Max", "Min", "Saddle", "Saddle(2)", "Undulation",
                   "Unclassified"]),
              hom_index=st.one_of(st.none(), st.integers(-3, 3)),
              morse_index=st.one_of(st.none(), st.integers(0, 3))),
    max_size=12)


@given(synthetic_points)
def test_count_buckets_partition_the_points(pts):
    c = counts_from_points(pts)
    assert c["N_C"] == len(pts)
    split = c["N_M"] + c["N_m"] + c["N_S"] + c["N_und"] + c["N_unclassified"]
    assert split == c["N_C"]
    assert sum(c["hom"].values()) == c["N_C"]
    assert sum(c["morse"].values()) == c["N_C"]
    assert list(c["hom"]) == sorted(c["hom"])
    assert list(c["morse"]) == sorted(c["morse"])


@given(st.integers(0, 2 ** 31 - 1), st.integers(0, 40))
@settings(max_examples=15, deadline=None)
def test_basis_draws_replay_and_trials_separate(seed, trial):
    spec = BasisSpec(dim=1, degree=3)
    a = sample_limit_field(spec, seed, trial=trial)
    assert np.array_equal(a.coeffs,
                          sample_limit_field(spec, seed, trial=trial).coeffs)
    c = sample_limit_field(spec, seed, trial=trial + 1)
    assert not np.array_equal(a.coeffs, c.coeffs)
