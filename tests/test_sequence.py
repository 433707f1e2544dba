"""Distances, matching, counting, and the convergence verdicts."""

import numpy as np
import pytest

from critsense import detect, sequence
from critsense.domains import Ball, Box, Interval
from critsense.errors import UsageError
from critsense.fields import ScalarField
from critsense.gallery import gallery, limit_field
from critsense.sequence import (HYPOTHESIS_RESOLUTION_TOL, _detect_and_count,
                                ck_distance, convergence_experiment,
                                counts_from_points, match_critical_points)

from oracles import optimal_matching

I2 = Interval(-2.0, 2.0)


def _parab(shift=0.0):
    return ScalarField(lambda s: s[..., 0] ** 2 + shift, 1,
                       grad_fn=lambda s: 2.0 * s,
                       hess_fn=lambda s: np.full(s.shape[:-1] + (1, 1), 2.0))


def test_ck_distance_of_a_constant_shift():
    assert ck_distance(_parab(), _parab(0.25), Interval(-1.0, 1.0)) == \
        (0.25, 0.0, 0.0)


def test_ck_distance_of_an_oscillation():
    wavy = ScalarField(
        lambda s: s[..., 0] ** 2 + np.sin(16.0 * s[..., 0]) / 16.0, 1,
        grad_fn=lambda s: 2.0 * s + np.cos(16.0 * s),
        hess_fn=lambda s: (2.0 - 16.0 * np.sin(16.0 * s))[..., None])
    d0, d1, d2 = ck_distance(_parab(), wavy, I2, grid_res=128)
    assert 0.06 < d0 <= 1.0 / 16.0 + 1e-15
    assert d1 == pytest.approx(1.0, abs=1e-3)
    assert d2 == pytest.approx(16.0, rel=1e-3)


def test_ck_distance_family_vs_limit():
    d0, _, _ = ck_distance(gallery("fig13a", 16), limit_field("fig13a"), I2,
                           grid_res=128)
    # the bump has sup 9/4 and is scaled by 1 / sqrt(n)
    assert 0.0 < d0 <= 9.0 / 16.0 + 1e-15
    assert d0 == pytest.approx(0.3125, abs=1e-9)


def test_matching_identical_sets_is_a_perfect_bijection():
    pts = [np.array([0.0, 0.0]), np.array([1.0, 1.0])]
    m = match_critical_points(pts, pts, radius=0.5)
    assert m.bijective
    assert [(i, j) for i, j, _ in m.pairs] == [(0, 0), (1, 1)]
    assert all(d == 0.0 for _, _, d in m.pairs)
    assert not m.multi_match
    assert m.index_agreement == [{"hom": None, "morse": None}] * 2


def test_matching_flags_crowded_limit_point():
    pts = detect.find_critical_points(gallery("fig10", 64), I2,
                                      grid_res=2048)
    lim = detect.find_critical_points(limit_field("fig10"), I2,
                                      grid_res=1024)
    assert len(pts) == 3 and len(lim) == 1
    m = match_critical_points(pts, lim, domain=I2)
    assert m.radius == pytest.approx(0.4)  # diameter / 10
    assert [(i, j) for i, j, _ in m.pairs] == [(0, 0)]
    assert m.pairs[0][2] <= 1e-12
    assert m.unmatched_n == [1, 2]
    assert m.multi_match
    assert not m.bijective


def test_matching_agreement_on_the_surviving_saddle():
    dom = Box((-2.0, -2.0), (2.0, 2.0))
    pts = detect.find_critical_points(gallery("fig13b", 16), dom,
                                      grid_res=256)
    lim = detect.find_critical_points(limit_field("fig13b"), dom,
                                      grid_res=256)
    assert len(pts) == 3 and len(lim) == 1
    m = match_critical_points(pts, lim, domain=dom)
    assert [(i, j) for i, j, _ in m.pairs] == [(2, 0)]
    assert m.pairs[0][2] <= 1e-12
    assert m.index_agreement == [{"hom": True, "morse": True}]
    assert m.unmatched_n == [0, 1]


def test_matching_is_symmetric():
    rng = np.random.default_rng(5)
    a = [rng.uniform(-1, 1, size=2) for _ in range(5)]
    b = [rng.uniform(-1, 1, size=2) for _ in range(4)]
    m_ab = match_critical_points(a, b, radius=0.8)
    m_ba = match_critical_points(b, a, radius=0.8)
    assert sorted((j, i) for i, j, _ in m_ab.pairs) == \
        sorted((i, j) for i, j, _ in m_ba.pairs)


def test_greedy_matching_attains_the_optimal_cardinality():
    rng = np.random.default_rng(9)
    base = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    for _ in range(5):
        jitter = base + rng.uniform(-0.08, 0.08, size=base.shape)
        m = match_critical_points(list(jitter), list(base), radius=0.45)
        assert len(m.pairs) == optimal_matching(jitter, base, 0.45) == 4


def test_detect_and_count_classifies_the_classics():
    _, bowl, _ = _detect_and_count(gallery("bowl"), Ball((0.0, 0.0), 1.0),
                                64, 256)
    assert bowl["N_C"] == bowl["N_m"] == 1
    assert bowl["hom"] == {"1": 1}
    assert bowl["morse"] == {"0": 1}
    pts, monkey, _ = _detect_and_count(gallery("monkey"),
                                    Ball((0.0, 0.0), 1.0), 64, 256)
    assert monkey["N_C"] == monkey["N_S"] == 1
    assert monkey["hom"] == {"-2": 1}
    assert monkey["morse"] == {"degenerate": 1}
    assert pts.unresolved == []


def test_detect_and_count_small_n_bump_pair():
    # at n = 4 the bump is wide: its max and companion saddle are both
    # present, alongside the base saddle
    _, rec, _ = _detect_and_count(gallery("fig13b", 4),
                               Box((-2.0, -2.0), (2.0, 2.0)), 64, 256)
    assert rec["N_C"] == 3
    assert rec["N_M"] == 1 and rec["N_S"] == 2
    assert rec["hom"] == {"-1": 2, "1": 1}
    assert rec["morse"] == {"1": 2, "2": 1}


def test_counts_identity():
    pts = detect.find_critical_points(gallery("trio"),
                                      Box((-1.6, -1.0), (1.6, 1.0)))
    rec = counts_from_points(pts)
    assert rec["N_C"] == rec["N_M"] + rec["N_m"] + rec["N_S"] + \
        rec["N_und"] + rec["N_unclassified"]
    assert rec["N_C"] == 3


def test_convergence_fig10_counts_disagree_but_hypothesis_fails():
    rep = convergence_experiment("fig10", [16, 64, 256])
    assert rep.verdict == "consistent"
    assert rep.limit_counts["N_M"] == 1
    assert all(r["counts"]["N_M"] == 2 for r in rep.rows)
    assert all(r["counts"]["N_m"] == 1 for r in rep.rows)
    assert not rep.conclusion["counts_equal"]
    assert rep.hypothesis["boundary_gradient_holds"]
    assert rep.hypothesis["resolution_above_floor"]
    assert rep.hypothesis["resolution_shrinking"]
    assert not rep.hypothesis["resolution_holds"]
    res = [r["resolution"] for r in rep.rows]
    assert res[0] / res[1] == pytest.approx(4.0, rel=1e-9)
    assert res[1] / res[2] == pytest.approx(4.0, rel=1e-9)
    assert all(r["boundary_min_gradient"] == pytest.approx(4.0)
               for r in rep.rows)
    assert all(r["multi_match"] for r in rep.rows)


def test_resolution_at_the_tolerance_is_not_above_the_floor(monkeypatch):
    # the hypothesis is R > tol, strictly, as in the Monte Carlo trials
    monkeypatch.setattr(detect, "resolution",
                        lambda points: HYPOTHESIS_RESOLUTION_TOL)
    rep = convergence_experiment("fig10", [4, 16])
    assert not rep.hypothesis["resolution_above_floor"]
    assert not rep.hypothesis["resolution_holds"]


def test_convergence_trio_is_fully_consistent():
    rep = convergence_experiment("trio", [16, 64], grid_res=256)
    assert rep.verdict == "consistent"
    assert rep.hypothesis["boundary_gradient_holds"]
    assert rep.hypothesis["resolution_holds"]
    assert rep.conclusion["counts_equal"]
    assert rep.conclusion["hom_counts_equal"]
    for row in rep.rows:
        assert row["counts"]["morse"] == rep.limit_counts["morse"]
        assert row["matched"] == 3
        assert row["unmatched_n"] == row["unmatched_limit"] == 0
        assert all(d < 0.1 for _, _, d in row["matching"]["pairs"])


def test_sequence_evaluates_each_field_once_on_the_shared_lattice(
        monkeypatch):
    # trio is 2-d, so its improper extrema share the distances' lattice:
    # one jet per field there and no separate value call, while the two
    # measures are still called, each through its module name; each
    # field's lattice jet comes after its detection, not during it
    dom, ns = Box((-1.6, -1.0), (1.6, 1.0)), [4, 8, 12]
    shape = dom.lattice(256).shape
    log = {"jet": 0, "value": 0, "ck": [], "improper": [], "order": []}
    depth = [0]
    jet, value = ScalarField.jet, ScalarField.value
    find = detect.find_critical_points

    def spy_find(*args, **kw):
        log["order"].append("detect")
        return find(*args, **kw)

    def spy_jet(self, s, order=1):
        if np.shape(s) == shape:
            log["jet"] += 1
            log["order"].append("jet")
        depth[0] += 1
        try:
            return jet(self, s, order)
        finally:
            depth[0] -= 1

    def spy_value(self, s):
        log["value"] += np.shape(s) == shape and not depth[0]
        return value(self, s)

    def recording(fn, key):
        def call(*args, **kw):
            log[key].append(fn(*args, **kw))
            return log[key][-1]
        return call

    monkeypatch.setattr(ScalarField, "jet", spy_jet)
    monkeypatch.setattr(ScalarField, "value", spy_value)
    monkeypatch.setattr(detect, "find_critical_points", spy_find)
    monkeypatch.setattr(sequence, "ck_distance",
                        recording(ck_distance, "ck"))
    monkeypatch.setattr(detect, "improper_extrema",
                        recording(detect.improper_extrema, "improper"))
    rep = convergence_experiment("trio", ns)
    monkeypatch.undo()
    assert (log["jet"], log["value"]) == (1 + len(ns), 0)
    assert log["order"] == ["detect", "jet"] * (1 + len(ns))
    assert len(log["ck"]) == len(ns)
    assert len(log["improper"]) == 1 + len(ns)

    def improper(f):
        imp = detect.improper_extrema(f, dom, grid_res=256)
        return imp["n_improper_max"], imp["n_improper_min"]

    lim = limit_field("trio")
    assert improper(lim) == (rep.limit_counts["N_IM"],
                             rep.limit_counts["N_Im"])
    for n, row in zip(ns, rep.rows):
        f_n = gallery("trio", n)
        assert (row["d0"], row["d1"], row["d2"]) == \
            ck_distance(f_n, lim, dom, grid_res=256)
        assert improper(f_n) == (row["counts"]["N_IM"],
                                 row["counts"]["N_Im"])


def test_convergence_needs_a_limit():
    with pytest.raises(UsageError):
        convergence_experiment("bowl", [4])
