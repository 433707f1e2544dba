"""Randomized invariant checks across the indexing and matching layers."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from critsense.detect import _classified, resolution
from critsense.domains import Ball, Box
from critsense.fields import (ScalarField, near_pairs, row_norms,
                              spectral_norms, sup_spectral_norm)
from critsense.homindex import boundary_index, probe_radius, winding_index_2d
from critsense.morse import morse_classify
from critsense.randfield import BasisSpec, sample_limit_field
from critsense.sequence import counts_from_points, match_critical_points

from oracles import (boundary_degree, brute_dedupe, brute_matching,
                     brute_probe_radius, brute_resolution, optimal_matching)

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
    assert (-1) ** morse_classify(f, z) == expected


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


@given(st.integers(0, 2 ** 31 - 1),
       st.sampled_from([Box([1.0, 0.5], [4.0, 2.5]), Ball((3.0, 2.0), 1.5)]))
@settings(max_examples=30, deadline=None)
def test_random_fields_meet_the_boundary_degree(seed, domain):
    # the boundary identity: interior + boundary = 1 with interior = deg
    f = sample_limit_field(BasisSpec(2, 2, 1.0, 1.0), seed)
    deg = boundary_degree(f, domain)
    assume(deg is not None)
    assert boundary_index(f, domain).total == 1 - deg


# ---------------------------------------------------------------- #
# the proximity kernel against the brute oracles
# ---------------------------------------------------------------- #

@st.composite
def dyadic_points(draw, d=None):
    """Points on a grid of step 1/8 in [-1.5, 1.5]^d, d in 1-3 unless
    given, with repeated points, and a radius that is either dyadic or one
    of their own pair distances, so that ties and distances equal to the
    radius are exact and do occur."""
    d = d or draw(st.integers(1, 3))
    coord = st.integers(-12, 12).map(lambda k: k / 8)
    base = draw(st.lists(st.tuples(*[coord] * d), min_size=1,
                         max_size=10))
    pts = base + draw(st.lists(st.sampled_from(base), max_size=3))
    pts = np.array(draw(st.permutations(pts)), dtype=float)
    a, b = draw(st.permutations(range(len(pts))))[:2] if len(pts) > 1 \
        else (0, 0)
    radius = draw(st.one_of(st.sampled_from([0.125, 0.25, 0.5, 1.0]),
                            st.just(float(np.linalg.norm(pts[a] - pts[b])))))
    return pts, radius if radius > 0 else 0.375


two_dyadic_sets = st.integers(1, 3).flatmap(
    lambda d: st.tuples(dyadic_points(d), dyadic_points(d)))


def _square_norm(d):
    """|s - c|^2, whose gradient rows do not depend on their batch. Its
    zero c lies off the grid, so no index probe meets it."""
    return ScalarField(lambda s: np.sum((s - 0.3) ** 2, axis=-1), d,
                       grad_fn=lambda s: 2.0 * (np.asarray(s) - 0.3),
                       hess_fn=lambda s: np.broadcast_to(
                           2.0 * np.eye(d), np.shape(s)[:-1] + (d, d)).copy())


@given(two_dyadic_sets)
@settings(max_examples=100, deadline=None)
def test_near_pairs_lists_every_pair_within_the_radius(sets):
    (A, radius), (B, _) = sets
    i, j, dist = near_pairs(A, B, radius)
    assert np.all(np.diff(i) >= 0)
    want = {(a, b, float(np.linalg.norm(x - y)))
            for a, x in enumerate(A) for b, y in enumerate(B)
            if np.linalg.norm(x - y) <= radius}
    got = set(zip(i.tolist(), j.tolist(), dist.tolist()))
    assert got == want and len(i) == len(want)


@given(dyadic_points(), st.data())
@settings(max_examples=40, deadline=None)
def test_dedupe_is_the_brute_greedy_merge(pr, data):
    pts, radius = pr
    d = pts.shape[1]
    mem = np.array(data.draw(st.lists(st.integers(0, 1), min_size=len(pts),
                                      max_size=len(pts))))
    field, dom = _square_norm(d), Box([-2.0] * d, [2.0] * d)
    got = _classified(field, dom, mem, pts, radius, 0.1)
    want = [(k, gn, x.tolist()) for k in sorted(set(mem.tolist()))
            for gn, x in brute_dedupe(field, list(pts[mem == k]), radius)]
    assert [(k, p.grad_norm, p.location.tolist()) for k, p in got] == want


@given(dyadic_points())
@settings(max_examples=100, deadline=None)
def test_resolution_and_probe_radius_are_the_brute_ones(pr):
    pts, _ = pr
    d = pts.shape[1]
    assert resolution(list(pts)) == brute_resolution(pts)
    dom = Box([-1.5] * d, [1.5] * d)
    want = [brute_probe_radius(z, pts, float(dom.boundary_distance(z)))
            for z in pts]
    assert [probe_radius(z, pts, dom) for z in pts] == want
    assert probe_radius(pts, pts, dom).tolist() == want


@given(two_dyadic_sets)
@settings(max_examples=100, deadline=None)
def test_matching_pairs_are_the_brute_greedy_ones(sets):
    (A, radius), (B, _) = sets
    m = match_critical_points(list(A), list(B), radius=radius)
    assert m.pairs == brute_matching(A, B, radius)
    near = [[np.linalg.norm(a - b) <= radius for a in A] for b in B]
    assert m.multi_match == any(sum(row) >= 2 for row in near)


entries = st.floats(-4.0, 4.0)


@st.composite
def hessian_stacks(draw):
    """``(m, d, d)`` stacks for d = 1, 2 and 3, or a bare ``(d, d)``.
    Optional parts: c I plus a 1e-12 perturbation, whose eigenvalues
    nearly tie; the transposes and the reversed stack, whose Frobenius
    norms tie exactly; one inf or nan entry; a scale at which squares
    underflow or overflow."""
    d, m = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    H = np.array(draw(st.lists(entries, min_size=m * d * d,
                               max_size=m * d * d))).reshape(m, d, d)
    if draw(st.booleans()):
        k = draw(st.integers(0, m - 1))
        H[k] = draw(entries) * np.eye(d) + 1e-12 * H[k]
    if draw(st.booleans()):
        H = np.concatenate([H, np.swapaxes(H, -1, -2), H[::-1]])
    if draw(st.booleans()):
        H.flat[draw(st.integers(0, H.size - 1))] = draw(
            st.sampled_from([np.inf, -np.inf, np.nan]))
    H *= draw(st.sampled_from([1.0, 1e-160, 1e-200, 1e160, 1e300]))
    return H[0] if m == 1 and draw(st.booleans()) else H


def _outcome(fn, H):
    """The bits of ``fn(H)``, or the type and message it raises."""
    try:
        return np.float64(fn(H)).tobytes()
    except Exception as exc:
        return type(exc), str(exc)


def _full_sup(H):
    return float(np.max(spectral_norms(H)))


@given(hessian_stacks())
@settings(max_examples=300, deadline=None)
def test_sup_spectral_norm_has_the_bits_of_the_full_spectra(H):
    assert _outcome(sup_spectral_norm, H) == _outcome(_full_sup, H)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_sup_spectral_norm_screens_a_lattice_to_the_same_bits(d):
    # many matrices whose largest Frobenius norm need not be the largest
    # spectral norm: traceful ones next to traceless ones
    rng = np.random.default_rng(d)
    H = rng.standard_normal((4000, d, d))
    H[::2] += 1.5 * np.eye(d)
    assert _outcome(sup_spectral_norm, H) == _outcome(_full_sup, H)
    assert _outcome(sup_spectral_norm, H[:0]) == _outcome(_full_sup, H[:0])


def test_sup_spectral_norm_keeps_a_norm_above_its_rounded_frobenius():
    # a rank-one 3x3 matrix B whose rounded spectral norm exceeds its
    # rounded Frobenius norm by ulps, next to a diagonal A whose norm
    # falls between the two: A has the largest Frobenius norm, so its
    # norm is the floor, and only the rounding margin keeps B a candidate
    rng = np.random.default_rng(0)
    V = rng.standard_normal((20000, 3))
    B = V[:, :, None] * V[:, None, :]
    fro = np.sqrt(np.einsum("kij,kij->k", B, B))
    spec = np.max(np.abs(np.linalg.eigvalsh(B)), axis=-1)
    k = int(np.argmax((spec - fro) / np.spacing(fro)))
    x = np.nextafter(spec[k], 0.0)
    assert fro[k] < x < spec[k]
    H = np.stack([np.diag([x, 0.0, 0.0]), B[k]])
    assert sup_spectral_norm(H) == _full_sup(H) == spec[k]
