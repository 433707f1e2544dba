"""Gate suite. Each numbered check prints one verdict line."""

import contextlib
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from critsense import (Ball, Interval, ScalarField, BasisSpec,
                       convergence_experiment, corollary_constants, entry,
                       find_critical_points, flow_pair_distance, gallery,
                       improper_extrema, limit_field, make_chart,
                       monte_carlo_convergence, morse_flow_map,
                       mountain_pass_point, poincare_hopf_audit,
                       refine_newton, verify_morse_chart, winding_index_2d)
from critsense.cli import dumps
from critsense.sequence import counts_from_points

ORIGIN2 = np.zeros(2)
LN2 = math.log(2.0)


@pytest.fixture
def criterion(capsys):
    @contextlib.contextmanager
    def check(num, label):
        ok = False
        try:
            yield
            ok = True
        finally:
            with capsys.disabled():
                verdict = "PASS" if ok else "FAIL"
                print(f"ACCEPTANCE {num:02d} {label}: {verdict}")
    return check


def _quad2(H):
    H = np.asarray(H, dtype=float)
    return ScalarField(
        lambda s: 0.5 * np.einsum("...i,ij,...j->...", s, H, s), 2,
        grad_fn=lambda s: s @ H,
        hess_fn=lambda s: np.broadcast_to(H, s.shape[:-1] + (2, 2)))


def _cubic1(c):
    return ScalarField(
        lambda s: 0.5 * s[..., 0] ** 2 + c * s[..., 0] ** 3, 1,
        grad_fn=lambda s: s + 3.0 * c * s ** 2,
        hess_fn=lambda s: (1.0 + 6.0 * c * s)[..., None])


def _bowl_cubic(c):
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


def _ball_pts(rng, dim, radius, count):
    u = rng.standard_normal((count, dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return u * (radius * rng.random((count, 1)) ** (1.0 / dim))


def test_01_winding_table(criterion):
    with criterion(1, "winding index table"):
        table = {"bowl": 1, "dome": 1, "undulation": 0,
                 "saddle": -1, "monkey": -2}
        for eps in (0.1, 0.05):
            for name, want in table.items():
                assert winding_index_2d(gallery(name), ORIGIN2, eps) == want


def test_02_index_audits(criterion):
    with criterion(2, "index audits"):
        disk = Ball((0.0, 0.0), 1.0)
        perturbed = False
        for name in ("bowl", "dome", "saddle", "monkey", "tilt", "twogauss"):
            res = poincare_hopf_audit(gallery(name), disk)
            assert res.passed
            assert res.total == Fraction(1)
            perturbed |= bool(res.boundary and res.boundary.perturbed)
        assert perturbed  # the radial bowl needs the boundary nudge

        up = ScalarField(lambda s: s[..., 0] ** 2, 1,
                         grad_fn=lambda s: 2.0 * s,
                         hess_fn=lambda s: np.full(s.shape[:-1] + (1, 1), 2.0))
        res = poincare_hopf_audit(up, Interval(-1.0, 1.0), grid_res=64)
        assert res.passed and res.total == Fraction(0)
        res = poincare_hopf_audit(gallery("bowl3"), Ball((0, 0, 0), 1.0),
                                  grid_res=24)
        assert res.passed and res.total == Fraction(0)


def test_03_quadratic_index_signs(criterion):
    with criterion(3, "quadratic index signs"):
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 50:
            H = rng.uniform(-3.0, 3.0, size=(2, 2))
            H = 0.5 * (H + H.T)
            det = float(np.linalg.det(H))
            if abs(det) < 0.05:
                continue
            idx = winding_index_2d(_quad2(H), ORIGIN2, 0.3)
            assert idx == int(np.sign(det))
            checked += 1


def test_04_chart_constants(criterion):
    with criterion(4, "chart constants"):
        k = corollary_constants(np.eye(2))
        assert abs(k["K1"] - LN2 / 24.0) <= 1e-12
        assert abs(k["K2"] - 0.125) <= 1e-12
        k = corollary_constants(np.diag([2.0, -1.0]))
        assert abs(k["K1"] - LN2 / 48.0) <= 1e-12
        assert abs(k["K2"] - 0.0625) <= 1e-12


def test_05_chart_flows(criterion):
    with criterion(5, "chart flows"):
        rng = np.random.default_rng(5)
        f = _quad2(np.eye(2))
        chart = make_chart(f, ORIGIN2)
        pts = _ball_pts(rng, 2, chart.radius * 0.99, 100)
        drift = np.linalg.norm(morse_flow_map(f, chart, pts) - pts, axis=-1)
        assert float(np.max(drift)) <= 1e-12

        for field, dim in ((_cubic1(0.05), 1), (_bowl_cubic(0.1), 2)):
            center = np.zeros(dim)
            chart = make_chart(field, center, ode_step=1e-3)
            ver = verify_morse_chart(field, chart, seed=0)
            assert ver["residual_sup"] <= 1e-6
            xs = _ball_pts(rng, dim, chart.radius * 0.99, 40)
            a = morse_flow_map(field, replace(chart, ode_step=1e-3), xs)
            b = morse_flow_map(field, replace(chart, ode_step=5e-4), xs)
            assert float(np.max(np.linalg.norm(a - b, axis=-1))) < 1e-9


def test_06_flow_pair_convergence(criterion):
    with criterion(6, "flow pair convergence"):
        base = _bowl_cubic(0.0)
        dists = [flow_pair_distance(_bowl_cubic(0.1 / n), base,
                                    ORIGIN2, ORIGIN2, r_shared=0.12)
                 for n in (4, 16, 64)]
        assert dists[0] > dists[1] > dists[2]


def test_07_merging_family_counts(criterion):
    with criterion(7, "merging family counts"):
        rep = convergence_experiment("fig10", [16, 64, 256])
        assert rep.limit_counts["N_M"] == 1
        assert all(r["counts"]["N_M"] == 2 for r in rep.rows)
        res = [r["resolution"] for r in rep.rows]
        assert res[0] / res[1] >= 2.0
        assert res[1] / res[2] >= 2.0

        # the bump maxima exist at every n but not in either limit
        for name, ns, grids in (
                ("fig13a", (16, 64, 256), (1024, 2048, 8192)),
                ("fig13b", (4, 16, 64), (256, 256, 1024))):
            ent = entry(name)
            lim = find_critical_points(limit_field(name), ent.domain,
                                       grid_res=1024 if ent.dim == 1 else 64)
            assert counts_from_points(lim)["N_M"] == 0
            for n, grid in zip(ns, grids):
                pts = find_critical_points(gallery(name, n), ent.domain,
                                           grid_res=grid)
                assert counts_from_points(pts)["N_M"] >= 1

        ent = entry("fig4c")
        lim = find_critical_points(limit_field("fig4c"), ent.domain,
                                   grid_res=1024)
        assert len(lim) == 1
        for n in (16, 64, 256):
            pts = find_critical_points(gallery("fig4c", n), ent.domain,
                                       grid_res=max(1024, 32 * n))
            assert len(pts) == 2


def test_08_matched_trio_family(criterion):
    with criterion(8, "matched trio family"):
        rep = convergence_experiment("trio", [16, 64], grid_res=256)
        assert rep.conclusion["counts_equal"]
        assert rep.conclusion["hom_counts_equal"]
        for row in rep.rows:
            c = row["counts"]
            for key in ("N_C", "N_M", "N_m", "N_S"):
                assert c[key] == rep.limit_counts[key]
            assert c["morse"] == rep.limit_counts["morse"]
            assert row["matched"] == 3
            assert row["unmatched_n"] == row["unmatched_limit"] == 0
            assert all(d < 0.1 for _, _, d in row["matching"]["pairs"])


def test_09_mountain_passes(criterion):
    with criterion(9, "mountain passes"):
        f = gallery("twogauss")
        disk = entry("twogauss").domain
        res = mountain_pass_point(f, disk, np.array([0.4, 0.0]),
                                  np.array([-0.4, 0.0]))
        assert res.kind == "InteriorCritical"
        assert float(np.linalg.norm(res.p3)) <= 1e-3
        assert res.certificate["grad_norm"] <= 1e-6
        assert res.c < res.f_p1

        f = gallery("twogauss_pit")
        p1 = refine_newton(f, np.array([0.48, 0.0]), tol=1e-9)
        p2 = refine_newton(f, np.array([-0.48, 0.0]), tol=1e-9)
        res = mountain_pass_point(f, entry("twogauss_pit").domain, p1, p2)
        assert res.kind == "BoundaryTangency"
        assert res.certificate["boundary_alignment"] <= 1e-6
        assert res.c < res.f_p1


def test_10_random_field_frequencies(criterion):
    with criterion(10, "random field frequencies"):
        spec = BasisSpec(dim=1, degree=4, amplitude=1.0, decay=2.0)
        noise = BasisSpec(dim=1, degree=4, amplitude=0.6, decay=1.5)
        runs = [monte_carlo_convergence(spec, noise, [10, 100, 1000],
                                        trials=200, seed=777)
                for _ in range(2)]
        freqs = [row["frequency"] for row in runs[0]["per_n"]]
        assert freqs == sorted(freqs)
        assert freqs[-1] >= 0.9
        assert dumps(runs[0]) == dumps(runs[1])  # rerun


def test_11_improper_extrema_bounds(criterion):
    with criterion(11, "improper extrema bounds"):
        families = ("singlemax", "fig13a", "fig13b", "fig10", "fig4a",
                    "fig4b", "fig4c", "twist", "fig8a", "trio")
        for name in families:
            ent = entry(name)
            # fine enough that a flattening crest ties on the lattice the
            # same way its limit's underflowed plateau does
            grid = 65536 if ent.dim == 1 else 256
            lim = improper_extrema(limit_field(name), ent.domain,
                                   grid_res=grid)
            for n in (16, 64, 256):
                fam = improper_extrema(gallery(name, n), ent.domain,
                                       grid_res=grid)
                assert fam["n_improper_max"] >= lim["n_improper_max"]
                assert fam["n_improper_min"] >= lim["n_improper_min"]
