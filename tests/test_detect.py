"""Detection pipeline: refinement, grid scan, counts, improper extrema."""

import numpy as np
import pytest

from critsense import detect, homindex
from critsense.detect import (boundary_min_gradient, find_critical_points,
                              improper_extrema, refine_newton, resolution)
from critsense.domains import Ball, Box, Interval
from critsense.errors import NoConvergenceError
from critsense.fields import ScalarField
from critsense.morse import morse_classify
from critsense.gallery import entry, gallery
from critsense.sequence import match_critical_points

from oracles import (brute_dedupe, brute_matching, brute_probe_radius,
                     brute_resolution, strict_extrema_2d)


def quad2d():
    return ScalarField(
        lambda s: s[..., 0] ** 2 + 2.0 * s[..., 1] ** 2, 2,
        grad_fn=lambda s: s * np.array([2.0, 4.0]),
        hess_fn=lambda s: np.broadcast_to(np.diag([2.0, 4.0]),
                                          s.shape[:-1] + (2, 2)))


def test_refine_newton_quadratic_hits_machine_zero():
    z = refine_newton(quad2d(), [0.7, -0.3], tol=1e-9)
    assert np.linalg.norm(z) < 1e-12


def test_refine_newton_handles_degenerate_valley():
    # |grad| ~ x^3 along the valley, so distance ~ tol^(1/3); a deep
    # tolerance is what "converged to the origin" costs here.
    f = gallery("peano")
    z = refine_newton(f, [0.1, 0.1], tol=1e-26, max_iter=200)
    assert np.linalg.norm(z) <= 1e-8


def test_refine_newton_reports_best_iterate_on_failure():
    f = ScalarField(lambda s: s[..., 0] + s[..., 1], 2,
                    grad_fn=lambda s: np.ones_like(s),
                    hess_fn=lambda s: np.zeros(s.shape[:-1] + (2, 2)))
    with pytest.raises(NoConvergenceError) as exc:
        refine_newton(f, [0.0, 0.0], tol=1e-9, max_iter=10)
    assert "grad_norm" in exc.value.context
    assert exc.value.context["grad_norm"] == pytest.approx(np.sqrt(2.0))


def test_seeds_that_leave_the_box_are_escaped_not_unresolved():
    # singlemax's only zero is inside the square; 24 of the seeds that
    # stall there run off it for good, which is an outcome, not a stall
    pts = find_critical_points(gallery("singlemax", 4),
                               Box((-1.0, -1.0), (1.0, 1.0)), 64)
    assert len(pts.unresolved) == 8
    assert len(pts.escaped) == 24


def test_refine_newton_escape_ends_the_seed():
    # x^3/3 - x + y^2 has its zeros at (+-1, 0); from (0.4, 0.1) the first
    # accepted step lands at x = 0.925, outside the box |x|, |y| <= 1/2
    def hess(s):
        H = np.zeros(s.shape[:-1] + (2, 2))
        H[..., 0, 0] = 2.0 * s[..., 0]
        H[..., 1, 1] = 2.0
        return H

    f = ScalarField(lambda s: s[..., 0] ** 3 / 3 - s[..., 0] + s[..., 1] ** 2,
                    2, grad_fn=lambda s: np.stack(
                        [s[..., 0] ** 2 - 1.0, 2.0 * s[..., 1]], axis=-1),
                    hess_fn=hess)
    box = (np.array([-0.5, -0.5]), np.array([0.5, 0.5]))
    seed = np.array([0.4, 0.1])
    assert np.allclose(refine_newton(f, seed), [1.0, 0.0])
    assert refine_newton(f, seed[None], box=box) == [None]
    with pytest.raises(NoConvergenceError, match="left the box"):
        refine_newton(f, seed, box=box)


def test_a_rescued_zero_outside_the_box_is_escaped_not_dropped():
    # a 1-d random trigonometric field (the earlier README draws' Ghat_1000
    # of trial 72): the Newton phase stalls near x = 5.68, where |f'| has
    # a local minimum of 4.8e-6, and the rescue's Newton polish then
    # jumps to the zero at x = 5301.19, far outside [0, 2 pi]
    from critsense.randfield import BasisField, standard_domain
    f = BasisField([-0.2881139068299076, -0.008657879208428051,
                    -0.031212024706615736, -0.11258166293874858,
                    0.01665353047511691, 0.017939138301365756,
                    -0.06295566080865163, 0.0358608590338637,
                    -0.012273622792510827], 1)
    dom = standard_domain(1)
    res = find_critical_points(f, dom, grid_res=512)
    assert len(res) == 4 and len(res.unresolved) == 3
    [cell] = res.escaped
    assert refine_newton(f, np.array(cell)) == pytest.approx([5301.19])
    lo, hi = dom.bounding_box()
    box = (lo - (hi - lo) / 512, hi + (hi - lo) / 512)
    assert refine_newton(f, np.array([cell]), box=box) == [None]


def test_rescue_stops_once_the_gradient_meets_tol(monkeypatch):
    # peano's degenerate zero: the Newton phase stalls in the curved
    # valley and the Levenberg-Marquardt rescue decides the seed, which
    # must end once |grad f| <= tol rather than at max_nfev = 600
    evals, results = [], []
    real = detect.least_squares

    def rescue(field, X, tol, max_nfev):
        counted = ScalarField(field.fn, field.dim, grad_fn=lambda s: (
            evals.append(len(s)) or field.grad(s)), hess_fn=field.hess)
        results.append(real(counted, X, tol, max_nfev))
        return results[-1]

    monkeypatch.setattr(detect, "least_squares", rescue)
    f = gallery("peano")
    z = refine_newton(f, [-0.625, 0.375], tol=1e-9)
    assert np.linalg.norm(f.grad(z)) <= 1e-9
    assert len(results) == 1 and np.linalg.norm(results[0][1][0]) <= 1e-9
    assert 0 < sum(evals) < 600


def _peano_stragglers(monkeypatch):
    """``(field, X, tol, max_nfev)`` as peano's grid-24 detection hands
    its stragglers to the rescue."""
    calls = []
    real = detect.least_squares

    def spy(field, X, tol, max_nfev):
        calls.append((field, X.copy(), tol, max_nfev))
        return real(field, X, tol, max_nfev)

    monkeypatch.setattr(detect, "least_squares", spy)
    find_critical_points(gallery("peano"), Ball((0, 0), 1.0), 24)
    assert len(calls) == 1
    return calls[0]


def test_rescue_rows_keep_their_bits_alone(monkeypatch):
    # the lockstep pass: each row's iterate and gradient norm are those
    # of the same seed run alone, bit for bit, and every row meets tol
    field, X, tol, max_nfev = _peano_stragglers(monkeypatch)
    assert len(X) > 50
    bx, bg = detect.least_squares(field, X, tol, max_nfev)
    assert np.all(np.linalg.norm(bg, axis=-1) <= tol)
    for x0, x, g in zip(X, bx, bg):
        ax, ag = detect.least_squares(field, x0[None], tol, max_nfev)
        assert ax[0].tobytes() == x.tobytes()
        assert ag[0].tobytes() == g.tobytes()


def _tilted_exp():
    """e^x + x + y^2: the Hessian diag(e^x, 2) is nonsingular and
    |grad f| >= 1 everywhere, so no seed has a zero to find."""
    def hess(s):
        H = np.zeros(s.shape[:-1] + (2, 2))
        H[..., 0, 0] = np.exp(s[..., 0])
        H[..., 1, 1] = 2.0
        return H

    return ScalarField(
        lambda s: np.exp(s[..., 0]) + s[..., 0] + s[..., 1] ** 2, 2,
        grad_fn=lambda s: np.stack([np.exp(s[..., 0]) + 1.0,
                                    2.0 * s[..., 1]], axis=-1),
        hess_fn=hess)


class _Pair(ScalarField):
    """Two fields stacked as members 0 and 1: row j of points ``(k, d)``
    is evaluated on member ``on[j]``. Both fields evaluate every row and
    each row keeps its own member's, so a row has that field's bits."""

    def __init__(self, fields, on):
        self.fields, self.on = fields, np.asarray(on)
        super().__init__(fields[0].fn, fields[0].dim,
                         grad_fn=self._pick("grad"),
                         hess_fn=self._pick("hess"))

    def _pick(self, name):
        def evaluate(s):
            a, b = (getattr(f, name)(s) for f in self.fields)
            return np.where(self.on.reshape(-1, *[1] * (a.ndim - 1)), b, a)
        return evaluate

    @property
    def members(self):
        return 2

    def rows(self, member):
        return _Pair(self.fields, self.on[member])


def test_seed_with_no_zero_ends_at_its_best_iterate(monkeypatch):
    # the pass descends from (0.5, 0.3) until |grad f| rounds to 1 and
    # its steps fall under the step tolerance, long before max_nfev, and
    # warns of nothing on the way
    f, x0, tol, max_nfev = _tilted_exp(), np.array([[0.5, 0.3]]), 1e-9, 600
    points = []
    counted = ScalarField(f.fn, 2, grad_fn=lambda s: (
        points.append(len(s)) or f.grad(s)), hess_fn=f.hess)
    with np.errstate(all="raise"):
        x, g = detect.least_squares(counted, x0, tol, max_nfev)
    assert 1 < sum(points) <= max_nfev
    assert np.all(np.isfinite(x))
    assert np.linalg.norm(g) <= np.linalg.norm(f.grad(x0))
    assert g.tobytes() == f.grad(x).tobytes()

    # refine_newton hands the pass the Newton phase's stall point and
    # raises with the best iterate the rescue returned
    returned = []
    real = detect.least_squares
    monkeypatch.setattr(detect, "least_squares", lambda *a: (
        returned.append(real(*a)) or returned[-1]))
    with pytest.raises(NoConvergenceError) as exc:
        refine_newton(f, x0[0], tol=tol)
    (rx, rg), = returned
    assert exc.value.context["best"] == rx[0].tolist()
    assert exc.value.context["grad_norm"] == np.linalg.norm(rg[0]) >= 1.0

    # among peano's stragglers the seed keeps its lone bits, and they
    # keep theirs
    peano, X, tol, max_nfev = _peano_stragglers(monkeypatch)
    stack = _Pair([peano, f], np.arange(len(X) + 1) == 3)
    X = np.insert(X, 3, x0[0], axis=0)
    bx, bg = real(stack, X, tol, max_nfev)
    assert bx[3].tobytes() == x[0].tobytes()
    assert bg[3].tobytes() == g[0].tobytes()
    px, pg = real(peano, np.delete(X, 3, axis=0), tol, max_nfev)
    assert np.delete(bx, 3, axis=0).tobytes() == px.tobytes()
    assert np.delete(bg, 3, axis=0).tobytes() == pg.tobytes()


def test_peano_detection_takes_few_gradient_calls(monkeypatch):
    # lockstep phases: one grad call per rescue tick, at most two per
    # Newton step (the full steps, then every halving at once). A seed
    # that no halving helps goes straight to the rescue, so at grid 24 the
    # 62 seeds evaluate about 32,000 gradient points in all. At tol 1e-14
    # seeds go on from the pass to the polish, which takes one grad call
    # per step for the batch
    grad = ScalarField.grad
    for grid, tol, max_calls, max_points in [(24, 1e-9, 400, 40_000),
                                             (64, 1e-14, 900, 140_000)]:
        calls, points = [], []
        monkeypatch.setattr(ScalarField, "grad", lambda self, s: (
            calls.append(1), points.append(np.size(s) // 2))
            and grad(self, s))
        pts = find_critical_points(gallery("peano"), Ball((0, 0), 1.0),
                                   grid, newton_tol=tol)
        assert [p.classification for p in pts] == ["Saddle(2)"]
        assert len(calls) <= max_calls
        assert sum(points) <= max_points


def test_immobile_seed_ends_at_the_first_trial(monkeypatch):
    # gradient (0, 1) with a zero Hessian: H' grad f = 0, so the pass's
    # first step is zero, under the step tolerance, which ends the seed
    # after that one trial, and the polish's Newton system is singular
    f = ScalarField(lambda s: s[..., 1], 2,
                    grad_fn=lambda s: np.broadcast_to([0.0, 1.0], s.shape),
                    hess_fn=lambda s: np.zeros(s.shape[:-1] + (2, 2)))
    seeds, points = [], []
    real = detect.least_squares

    def spy(field, X, tol, max_nfev):
        seeds.extend(X.tolist())
        counted = ScalarField(field.fn, field.dim, grad_fn=lambda s: (
            points.append(len(s)) or field.grad(s)), hess_fn=field.hess)
        return real(counted, X, tol, max_nfev)

    monkeypatch.setattr(detect, "least_squares", spy)
    with pytest.raises(NoConvergenceError) as exc:
        refine_newton(f, [0.3, -0.2], tol=1e-9)
    assert seeds == [[0.3, -0.2]]
    assert points == [1, 1]     # the start and one trial
    assert exc.value.context["grad_norm"] == 1.0
    assert exc.value.context["best"] == [0.3, -0.2]


def test_singular_hessian_seed_goes_to_the_rescue(monkeypatch):
    # x^3 + y^2 at (0, 0.3): the Hessian diag(0, 2) is singular, so there
    # is no Newton step, but H' grad f = (0, 1.2) lets the
    # Levenberg-Marquardt pass move the seed; in a batch its row keeps
    # the lone seed's bits
    seeds = []
    real = detect.least_squares

    def spy(field, X, tol, max_nfev):
        seeds.extend(X.tolist())
        return real(field, X, tol, max_nfev)

    monkeypatch.setattr(detect, "least_squares", spy)
    f = gallery("undulation")
    z = refine_newton(f, [0.0, 0.3], tol=1e-9)
    assert seeds == [[0.0, 0.3]]
    assert np.linalg.norm(f.grad(z)) <= 1e-9
    batch = refine_newton(f, [[0.5, -0.4], [0.0, 0.3], [-0.2, 0.7]], tol=1e-9)
    assert seeds == [[0.0, 0.3]] * 2
    assert batch[1].tobytes() == z.tobytes()


def _row_by_row(f, seeds, **kw):
    """refine_newton's batch outcomes, computed one seed at a time."""
    outs = []
    for s in seeds:
        try:
            outs.append(refine_newton(f, s, **kw))
        except NoConvergenceError as exc:
            outs.append(None if "left the box" in str(exc) else exc)
    return outs


def _same_outcome(a, b):
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return a.tobytes() == b.tobytes()
    if isinstance(a, NoConvergenceError) and isinstance(b, NoConvergenceError):
        return str(a) == str(b) and a.context == b.context
    return a is None and b is None


def test_batched_refinement_matches_one_seed_at_a_time(monkeypatch):
    # every candidate cell of twogauss at grid 64, in the box
    # find_critical_points passes: converged points and escapes
    f, dom = gallery("twogauss"), Ball((0, 0), 1.0)
    lat = dom.lattice(64)
    cells = 0.5 * (lat[:-1, :-1] + lat[1:, 1:])[
        detect._candidate_cells(f.grad(lat), dom.contains(lat))]
    lo, hi = dom.bounding_box()
    box = (lo - (hi - lo) / 64, hi + (hi - lo) / 64)
    batch = refine_newton(f, cells, box=box)
    assert len(batch) == len(cells) > 100
    assert {type(o) for o in batch} == {np.ndarray, type(None)}
    assert all(map(_same_outcome, batch, _row_by_row(f, cells, box=box)))

    # failure records: a nowhere-vanishing gradient stalls every seed
    tilt = ScalarField(lambda s: s[..., 0] + s[..., 1], 2,
                       grad_fn=lambda s: np.ones_like(s),
                       hess_fn=lambda s: np.zeros(s.shape[:-1] + (2, 2)))
    seeds = cells[:5]
    batch = refine_newton(tilt, seeds, max_iter=10)
    assert all(isinstance(o, NoConvergenceError) for o in batch)
    assert all(map(_same_outcome, batch,
                   _row_by_row(tilt, seeds, max_iter=10)))

    # the Newton polish: on peano's degenerate zero at a deep tol, two
    # seeds that it brings to tol and one so far out that it cannot
    polished = []
    real = detect._newton_polish
    monkeypatch.setattr(detect, "_newton_polish", lambda f, X, *a: (
        polished.append(len(X)) or real(f, X, *a)))
    peano, kw = gallery("peano"), {"tol": 1e-24, "max_iter": 200}
    seeds = np.array([[0.1, 0.1], [-0.3, 0.2], [1e40, 0.0]])
    batch = refine_newton(peano, seeds, **kw)
    assert polished[0] == 3
    assert [type(o) for o in batch] == [np.ndarray, np.ndarray,
                                        NoConvergenceError]
    assert all(map(_same_outcome, batch, _row_by_row(peano, seeds, **kw)))


def test_polish_reuses_the_gradients_it_is_handed(monkeypatch):
    # the polish starts from the pass's final gradients, or from the
    # Newton phase's for a seed the pass did not improve, so it evaluates
    # no gradient at a point the pass returned
    returned, evaluated, inside = [], [], []
    lsq, polish, grad = (detect.least_squares, detect._newton_polish,
                         ScalarField.grad)

    def lsq_spy(*args):
        out = lsq(*args)
        returned.extend(map(tuple, out[0].tolist()))
        return out

    def polish_spy(*args):
        inside.append(True)
        try:
            return polish(*args)
        finally:
            inside.clear()

    def grad_spy(self, s):
        if inside:
            evaluated.extend(map(tuple, np.reshape(s, (-1, 2)).tolist()))
        return grad(self, s)

    monkeypatch.setattr(detect, "least_squares", lsq_spy)
    monkeypatch.setattr(detect, "_newton_polish", polish_spy)
    monkeypatch.setattr(ScalarField, "grad", grad_spy)
    seeds = np.array([[0.1, 0.1], [-0.3, 0.2], [1e40, 0.0]])
    batch = refine_newton(gallery("peano"), seeds, tol=1e-20, max_iter=200)
    assert [type(o) for o in batch] == [np.ndarray, np.ndarray,
                                        NoConvergenceError]
    assert len(returned) == 3 and evaluated
    assert not set(returned) & set(evaluated)


@pytest.mark.parametrize("name,expected", [
    ("bowl", {"Min": 1}),
    ("monkey", {"Saddle(3)": 1}),
    ("undulation", {"Undulation": 1}),
    ("peano", {"Saddle(2)": 1}),
])
def test_detection_counts_single_point_fields(name, expected):
    pts = find_critical_points(gallery(name), Ball((0, 0), 1.0), grid_res=64)
    got = {}
    for p in pts:
        got[p.classification] = got.get(p.classification, 0) + 1
    assert got == expected
    assert not pts.unresolved


def test_detection_trio_finds_all_three():
    ent_dom = Box([-1.6, -1.0], [1.6, 1.0])
    pts = find_critical_points(gallery("trio", 16), ent_dom, grid_res=256)
    kinds = sorted(p.classification for p in pts)
    assert kinds == ["Min", "Min", "Saddle(2)"]
    # members sit within O(1/n^2) of the limit positions
    locs = sorted(np.round(p.location, 2).tolist() for p in pts)
    assert locs == [[-1.0, -0.0], [0.0, -0.0], [1.0, 0.0]]


def _hessians_at(calls, pts) -> int:
    """How many of the recorded Hessian inputs are the stacked locations
    of ``pts``; fails on any single-point Hessian."""
    assert all(np.ndim(s) == 2 for s in calls), "a single-point Hessian"
    locs = np.array([p.location for p in pts])
    return sum(np.shape(s) == locs.shape and np.array_equal(s, locs)
               for s in calls)


def test_detection_takes_one_hessian_per_point(monkeypatch):
    # one Hessian call covers the kept points, and morse_classify reuses
    # the spectrum that detection records
    calls = []
    hess = ScalarField.hess
    monkeypatch.setattr(ScalarField, "hess", lambda self, s: (
        calls.append(np.array(s))) or hess(self, s))
    pts = find_critical_points(gallery("trio", 4),
                               Box([-1.6, -1.0], [1.6, 1.0]))
    assert len(pts) == 3
    assert _hessians_at(calls, pts) == 1
    for p in pts:
        assert p.morse_index == int(np.sum(p.hess_spectrum < 0))


@pytest.mark.parametrize("fused", [False, True],
                         ids=["methods", "jet_fn"])
def test_detection_takes_one_hessian_per_point_in_3d(fused):
    # the 3-d index reads the spectrum detection records, too
    f = gallery("bowl3")
    calls = []

    def hess_fn(s):
        calls.append(np.array(s))
        return f.hess_fn(s)

    def jet_fn(s, order):
        if order == 2:
            calls.append(np.array(s))
        return f.jet_fn(s, order)

    counting = ScalarField(f.fn, 3, f.grad_fn, hess_fn)
    if fused:
        counting.jet_fn = jet_fn
    pts = find_critical_points(counting, Ball((0, 0, 0), 1.0))
    assert [p.classification for p in pts] == ["Min"]
    assert pts[0].hom_index == 1
    assert _hessians_at(calls, pts) == 1


def test_detection_matches_brute_grid_extrema():
    f = gallery("twogauss")
    dom = Box([-0.99, -0.99], [0.99, 0.99])
    xs = np.linspace(-0.99, 0.99, 301)
    vals = f.value(np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1))
    n_max, n_min = strict_extrema_2d(vals)
    pts = find_critical_points(f, dom, grid_res=64)
    assert sum(p.classification == "Max" for p in pts) == n_max
    assert sum(p.classification == "Min" for p in pts) == n_min


def test_results_are_lexicographically_ordered():
    pts = find_critical_points(gallery("trio", 4),
                               Box([-1.6, -1.0], [1.6, 1.0]), grid_res=128)
    locs = [tuple(p.location) for p in pts]
    assert locs == sorted(locs)


def test_near_boundary_flagging():
    f = ScalarField(
        lambda s: (s[..., 0] - 0.99) ** 2 + s[..., 1] ** 2, 2,
        grad_fn=lambda s: 2.0 * (s - np.array([0.99, 0.0])),
        hess_fn=lambda s: np.broadcast_to(2.0 * np.eye(2),
                                          s.shape[:-1] + (2, 2)))
    pts = find_critical_points(f, Ball((0, 0), 1.0), grid_res=48)
    assert len(pts) == 1
    assert pts[0].near_boundary


def test_resolution_min_pairwise_and_infinite_cases():
    pts = find_critical_points(gallery("trio", 16),
                               Box([-1.6, -1.0], [1.6, 1.0]), grid_res=256)
    locs = np.array([p.location for p in pts])
    dists = [np.linalg.norm(a - b) for i, a in enumerate(locs)
             for b in locs[i + 1:]]
    assert resolution(pts) == pytest.approx(min(dists))
    # raw coordinates give the same answer as the points: an (m, d)
    # array, a list of rows, and bare scalars as 1-d points
    assert resolution(locs) == resolution(list(locs)) == resolution(pts)
    assert resolution([0.5, -1.0, 2.0]) == 1.5
    single = find_critical_points(gallery("bowl"), Ball((0, 0), 1.0),
                                  grid_res=32)
    assert resolution(single) == np.inf
    # singlemax at n = 4 on its grid 64 finds one point
    lone = find_critical_points(gallery("singlemax", 4),
                                entry("singlemax").domain, grid_res=64)
    assert len(lone) == 1
    assert resolution(lone) == resolution(locs[:1]) == np.inf
    assert resolution([]) == np.inf


def test_improper_extrema_constant_plateau_counts_once():
    f = ScalarField(lambda s: np.zeros(s.shape[:-1]), 1)
    res = improper_extrema(f, Interval(-1.0, 1.0), grid_res=256)
    assert res == {"n_improper_max": 1, "n_improper_min": 1}


def test_improper_extrema_downward_parabola():
    f = ScalarField(lambda s: -s[..., 0] ** 2, 1,
                    grad_fn=lambda s: -2.0 * s)
    res = improper_extrema(f, Interval(-1.0, 1.0), grid_res=1024)
    assert res == {"n_improper_max": 1, "n_improper_min": 0}


def test_boundary_min_gradient_radial_bowl():
    g = boundary_min_gradient(gallery("bowl"), Ball((0, 0), 1.0))
    assert g == pytest.approx(2.0, rel=1e-9)


@pytest.mark.parametrize("name,n,grid,grid_b", [
    ("fig4b", 16, 1024, 768),   # 326 points from 542 refined seeds
    ("twogauss", 1, 64, 48),
])
def test_distances_match_scalar_norm_oracles(monkeypatch, name, n, grid,
                                             grid_b):
    # every pairwise distance of the resolution assumption, bit for bit
    # against one np.linalg.norm per pair
    field, dom = gallery(name, n), entry(name).domain
    refined = []
    real = detect.refine_newton

    def capture(*args, **kwargs):
        outs = real(*args, **kwargs)
        refined.extend(x for x in outs if isinstance(x, np.ndarray)
                       and dom.contains(x, tol=1e-9))
        return outs

    monkeypatch.setattr(detect, "refine_newton", capture)
    pts = find_critical_points(field, dom, grid_res=grid)
    monkeypatch.undo()
    lo, hi = dom.bounding_box()
    kept = brute_dedupe(field, refined, 2.0 * float(np.linalg.norm(
        (hi - lo) / grid)))
    assert len(refined) > len(pts) > 1
    assert [(p.grad_norm, p.location.tolist()) for p in pts] == \
        [(gn, x.tolist()) for gn, x in kept]

    locs = [p.location for p in pts]
    assert resolution(pts) == brute_resolution(locs)
    for i, z in enumerate(locs):
        others = locs[:i] + locs[i + 1:]
        r = homindex.probe_radius(z, others, dom)
        assert r == brute_probe_radius(z, others,
                                       float(dom.boundary_distance(z)))
        # z itself lies at distance 0, which the radius skips
        assert homindex.probe_radius(z, locs, dom) == r

    pts_b = find_critical_points(field, dom, grid_res=grid_b)
    m = match_critical_points(pts_b, pts, domain=dom)
    assert m.pairs == brute_matching([p.location for p in pts_b], locs,
                                     m.radius)
    assert m.pairs


def _tail_cases():
    """Points and their members, as detection's tail sees them: gallery
    detections (one member each) and one Monte Carlo trial's stack of G
    and its three mean fields."""
    from critsense.randfield import (BasisField, BasisSpec,
                                     empirical_mean_field, sample_limit_field,
                                     standard_domain)
    cases = []
    for name, n, grid in [("fig4b", 16, 256), ("trio", 4, 64),
                          ("twogauss", 1, 64)]:
        dom = entry(name).domain
        pts = find_critical_points(gallery(name, n), dom, grid_res=grid)
        cases.append((gallery(name, n), dom, pts, [0] * len(pts)))
    for dim, grid in [(1, 512), (2, 32)]:
        spec = BasisSpec(dim, 4 if dim == 1 else 2)
        G = sample_limit_field(spec, seed=777, trial=1)
        fields = [G, *empirical_mean_field(
            G, BasisSpec(dim, spec.degree, 0.6, 1.5), [10, 100, 1000],
            seed=777, trial=1)]
        stack = BasisField(np.stack([f.coeffs for f in fields]), dim)
        pts = find_critical_points(stack, standard_domain(dim),
                                   grid_res=grid)
        members = [m for m, part in enumerate(pts.split()) for _ in part]
        cases.append((stack, standard_domain(dim), pts, members))
    return cases


def test_batch_probe_radius_has_the_bits_of_the_one_zero_form():
    for _, dom, pts, members in _tail_cases():
        locs = np.array([p.location for p in pts])
        mem = np.array(members)
        assert len(locs) > 1
        # over each member's points, as detection's tail takes it
        for m in set(members):
            run = locs[mem == m]
            assert homindex.probe_radius(run, run, dom).tolist() == [
                homindex.probe_radius(z, run, dom) for z in run]
        # every other zero counts
        assert homindex.probe_radius(locs, locs, dom).tolist() == [
            homindex.probe_radius(z, locs, dom) for z in locs]
    # no other zero: the boundary or the 0.25 cap decides
    z = np.array([[0.1, 0.2], [0.9, 0.0]])
    assert homindex.probe_radius(z, (), Ball((0, 0), 1.0)).tolist() == [
        homindex.probe_radius(x, (), Ball((0, 0), 1.0)) for x in z]


def test_batch_morse_classify_matches_the_one_point_form():
    for field, _, pts, members in _tail_cases():
        locs = np.array([p.location for p in pts])
        specs = np.array([p.hess_spectrum for p in pts])
        # tolerances on either side of each spectrum's relative gap make
        # both outcomes occur
        a = np.abs(specs)
        tols = a.min(axis=-1) / np.maximum(1.0, a.max(axis=-1)) * np.array(
            [0.5, 2.0])[np.arange(len(pts)) % 2]
        batch = morse_classify(field.rows(np.array(members)), locs,
                               degeneracy_tol=tols, eigs=specs)
        alone = [morse_classify(field.rows(m), x, degeneracy_tol=t, eigs=e)
                 for m, x, t, e in zip(members, locs, tols.tolist(), specs)]
        assert batch == alone
        assert None in batch and any(k is not None for k in batch)
        # from the Hessians themselves, with one tolerance for all
        assert morse_classify(field.rows(np.array(members)), locs) == [
            morse_classify(field.rows(m), x) for m, x in zip(members, locs)]
