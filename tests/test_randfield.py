"""Random trigonometric fields and the Monte Carlo agreement table."""

import json

import numpy as np
import pytest

from critsense import cli

import critsense.randfield as randfield
from critsense.errors import UsageError
from critsense.detect import find_critical_points
from critsense.morse import morse_statistic
from critsense.randfield import (BasisField, BasisSpec, empirical_mean_field,
                                 monte_carlo_convergence, sample_limit_field,
                                 standard_domain)
from critsense.randfield import (_TrialStreams, _axis_tables, _draw_coeffs,
                                 _scale_tensor)
from oracles import (fd_gradient, increment_mean_field, per_field_trial,
                     rice_maxima)

SPEC = BasisSpec(dim=1, degree=4, amplitude=1.0, decay=2.0)
NOISE = BasisSpec(dim=1, degree=4, amplitude=0.6, decay=1.5)


@pytest.fixture(scope="module")
def small_table():
    return monte_carlo_convergence(SPEC, NOISE, [10, 100], trials=30,
                                   seed=777)


def test_spec_validation():
    with pytest.raises(UsageError):
        BasisSpec(dim=0, degree=1)
    with pytest.raises(UsageError):
        BasisSpec(dim=7, degree=1)
    with pytest.raises(UsageError):
        BasisSpec(dim=1, degree=0)
    with pytest.raises(UsageError):
        BasisField(np.zeros((3, 4)), 2)
    with pytest.raises(UsageError):
        BasisField(np.zeros((4, 4)), 2)


def test_decay_rescales_draws_exactly():
    flat = _draw_coeffs(BasisSpec(1, 2, amplitude=2.0, decay=0.0), 42, 0, 0)
    steep = _draw_coeffs(BasisSpec(1, 2, amplitude=2.0, decay=3.0), 42, 0, 0)
    harmonics = np.array([0, 1, 1, 2, 2])
    assert np.array_equal(steep, flat * (1.0 + harmonics) ** -3.0)


EDGE_KEYS = [(0, 0, 0), (2**64 - 1, 0, 0), (0, 0, 2**20 - 1),
             (2**64 - 1, 2**44 - 1, 2**20 - 1), (777, 123456789, 17)]
MIXED_SPECS = [BasisSpec(1, 1), BasisSpec(2, 3, amplitude=0.5),
               BasisSpec(3, 2, decay=1.0), BasisSpec(1, 7, amplitude=3.0)]


def _fresh_philox_draw(spec, seed, trial, stream):
    rng = np.random.Generator(np.random.Philox(
        key=np.array([seed, trial << 20 | stream], dtype=np.uint64)))
    z = rng.standard_normal(size=(2 * spec.degree + 1,) * spec.dim)
    return z * _scale_tensor(spec)


def test_draws_equal_a_freshly_keyed_philox():
    # one re-keyed generator serves a trial's streams; specs of odd and
    # even sizes alternate, so a buffer left over from the previous
    # stream would shift the bits
    for seed, trial, stream in EDGE_KEYS:
        streams = _TrialStreams(seed, trial)
        for k, spec in enumerate(MIXED_SPECS * 2):
            s = (stream + k) % 2**20
            want = _fresh_philox_draw(spec, seed, trial, s)
            assert np.array_equal(streams.draw(spec, s), want)
            assert np.array_equal(_draw_coeffs(spec, seed, trial, s), want)


@pytest.mark.parametrize("key", [(-1, 0, 0), (2**64, 0, 0), (0, -1, 0),
                                 (0, 0, -1), (0, 0, 2**20)])
def test_stream_keys_out_of_range(key):
    with pytest.raises(UsageError):
        _draw_coeffs(SPEC, *key)


def _per_harmonic_tables(x, degree):
    shape = x.shape + (2 * degree + 1,)
    b, db, d2b = np.empty(shape), np.empty(shape), np.empty(shape)
    b[..., 0], db[..., 0], d2b[..., 0] = 1.0, 0.0, 0.0
    for j in range(1, degree + 1):
        c = np.cos(j * x)
        s = np.sin(j * x)
        b[..., 2 * j - 1], b[..., 2 * j] = c, s
        db[..., 2 * j - 1], db[..., 2 * j] = -j * s, j * c
        d2b[..., 2 * j - 1], d2b[..., 2 * j] = -j * j * c, -j * j * s
    return b, db, d2b


@pytest.mark.parametrize("shape", [(), (1,), (513,), (65, 65)])
@pytest.mark.parametrize("degree", [1, 4, 7])
def test_axis_tables_equal_the_per_harmonic_closed_form(shape, degree):
    pts = np.random.default_rng(9).uniform(-1.0, 8.0, size=shape + (2,))
    # a field hands each axis over as a strided view of its points
    for x in (pts[..., 1], np.ascontiguousarray(pts[..., 1])):
        got = _axis_tables(x, degree, 2)
        for g, w in zip(got, _per_harmonic_tables(x, degree)):
            assert g.shape == w.shape
            assert np.array_equal(g, w)
        # lower orders build the leading arrays, with the same bits
        for order in (0, 1):
            low = _axis_tables(x, degree, order)
            assert len(low) == order + 1
            for g, w in zip(low, got):
                assert np.array_equal(g, w)


def test_scale_tensor_is_cached_and_read_only():
    spec = BasisSpec(2, 3, amplitude=0.5, decay=1.5)
    scale = _scale_tensor(spec)
    assert _scale_tensor(BasisSpec(2, 3, amplitude=0.5, decay=1.5)) is scale
    with pytest.raises(ValueError):
        scale[0, 0] = 1.0
    assert _draw_coeffs(spec, 1, 0, 0).flags.writeable


def test_draws_are_deterministic_and_stream_separated():
    a = sample_limit_field(SPEC, seed=11, trial=3)
    b = sample_limit_field(SPEC, seed=11, trial=3)
    assert np.array_equal(a.coeffs, b.coeffs)
    c = sample_limit_field(SPEC, seed=11, trial=4)
    assert not np.array_equal(a.coeffs, c.coeffs)
    d = sample_limit_field(SPEC, seed=12, trial=3)
    assert not np.array_equal(a.coeffs, d.coeffs)


def test_derivatives_match_finite_differences():
    G = sample_limit_field(BasisSpec(dim=2, degree=3), seed=5)
    rng = np.random.default_rng(1)
    for s in rng.uniform(0.5, 5.5, size=(5, 2)):
        g_fd = fd_gradient(G.value, s)
        J = fd_gradient(G.grad, s)
        h_fd = 0.5 * (J + J.T)
        assert np.allclose(G.grad(s), g_fd, atol=1e-6)
        assert np.allclose(G.hess(s), h_fd, atol=1e-5)


def test_empirical_mean_is_exact_in_coefficient_space():
    G = sample_limit_field(SPEC, seed=21)
    e1 = _draw_coeffs(NOISE, 21, 0, 1)
    [g1] = empirical_mean_field(G, NOISE, [1], seed=21)
    assert np.array_equal(g1.coeffs, G.coeffs + e1)
    silent = BasisSpec(dim=1, degree=4, amplitude=0.0)
    [g0] = empirical_mean_field(G, silent, [5], seed=21)
    assert np.array_equal(g0.coeffs, G.coeffs)


def test_noise_degree_embedding():
    # G is zero-padded to the wider noise degree: the padding holds the
    # mean noise alone
    G = sample_limit_field(BasisSpec(dim=2, degree=1), seed=33)
    wide = BasisSpec(dim=2, degree=2, amplitude=0.5)
    [ghat] = empirical_mean_field(G, wide, [2], seed=33)
    assert ghat.coeffs.shape == (5, 5)
    e = np.sqrt(2) * _draw_coeffs(wide, 33, 0, 1) / 2
    assert np.array_equal(ghat.coeffs[:3, :3], G.coeffs + e[:3, :3])
    assert np.array_equal(ghat.coeffs[3:, :], e[3:, :])
    assert np.array_equal(ghat.coeffs[:, 3:], e[:, 3:])
    with pytest.raises(UsageError):
        empirical_mean_field(G, BasisSpec(dim=1, degree=1), [2], seed=33)
    with pytest.raises(UsageError):
        empirical_mean_field(G, wide, [2, 0], seed=33)


_MEAN_CASES = {
    "unsorted-repeated-one": (SPEC, NOISE, [100, 10, 1000, 10, 1]),
    # no cap on n: one draw per distinct n, whatever its size
    "large-n": (SPEC, NOISE, [2**20, 10**9, 1, 2**20 - 1, 2**70]),
    "noise-degree-above": (BasisSpec(1, 2), BasisSpec(1, 5, amplitude=0.5),
                           [3, 130]),
    "noise-degree-below": (BasisSpec(1, 5), BasisSpec(1, 2, amplitude=0.5),
                           [7, 1]),
    "two-d": (BasisSpec(2, 2), BasisSpec(2, 3, amplitude=0.4, decay=1.0),
              [40, 1, 129]),
    "amplitude-zero": (SPEC, BasisSpec(1, 4, amplitude=0.0),
                       [5, 1, 128]),
}


@pytest.mark.parametrize("case", sorted(_MEAN_CASES))
def test_mean_pass_has_the_bits_of_the_one_at_a_time_sum(case):
    # one pass over the distinct n serves the list; the oracle builds each
    # n's sum on its own, one increment at a time
    spec, noise, n_list = _MEAN_CASES[case]
    G = sample_limit_field(spec, seed=777, trial=5)
    got = empirical_mean_field(G, noise, n_list, seed=777, trial=5)
    assert len(got) == len(n_list)
    for n, ghat in zip(n_list, got):
        want = increment_mean_field(G, noise, n_list, n, seed=777, trial=5)
        assert ghat.coeffs.shape == want.shape
        assert ghat.coeffs.tobytes() == want.tobytes(), n


# the two-sided normal quantile of 1e-3
_Z_1E3 = 3.2905


def test_mean_field_increments_have_the_law_of_the_noise_sum():
    # sum_{i<=n} E_i has independent increments N(0, (n_j - n_{j-1}) s^2)
    # between the n of the list: standardized, each has mean 0 and unit
    # variance, and two of them are uncorrelated; over 2,000 seeds
    n_list, seeds = [10, 100, 1000], range(2000)
    zero = BasisField(np.zeros(2 * NOISE.degree + 1), 1)
    sums = np.array([[n * g.coeffs for n, g in zip(
        n_list, empirical_mean_field(zero, NOISE, n_list, seed=s))]
        for s in seeds])
    steps = np.diff(sums, axis=1, prepend=0.0)
    z = steps / (np.sqrt(np.diff(n_list, prepend=0))[:, None]
                 * _scale_tensor(NOISE))
    z = z.transpose(1, 0, 2).reshape(len(n_list), -1)
    count = z.shape[1]
    assert count == 2000 * 9
    for j in range(len(n_list)):
        assert abs(z[j].mean() * np.sqrt(count)) <= _Z_1E3
        # chi-square with `count` degrees of freedom, in its normal limit
        chi2 = np.sum(z[j] ** 2)
        assert abs(chi2 - count) / np.sqrt(2.0 * count) <= _Z_1E3
        for k in range(j):
            assert abs(np.mean(z[j] * z[k]) * np.sqrt(count)) <= _Z_1E3


def test_nested_n_share_their_increments():
    G = sample_limit_field(SPEC, seed=4, trial=2)

    def means(n_list):
        return {n: g.coeffs.tobytes() for n, g in zip(
            n_list, empirical_mean_field(G, NOISE, n_list, seed=4, trial=2))}

    # a list's first distinct n draw the same increments in a longer list
    short, long = means([10, 100]), means([10, 100, 1000])
    assert short[10] == long[10] and short[100] == long[100]
    # repeated and unsorted entries give the sorted list's fields
    assert means([1000, 10, 100, 10, 1000]) == long
    # Ghat_100 holds the sum to 10 and one increment more
    g10, g100 = empirical_mean_field(G, NOISE, [10, 100], seed=4, trial=2)
    step = 100 * (g100.coeffs - G.coeffs) - 10 * (g10.coeffs - G.coeffs)
    assert np.allclose(step, np.sqrt(90) * _draw_coeffs(NOISE, 4, 2, 2),
                       rtol=0, atol=1e-12)


def test_mean_pass_of_no_n_draws_nothing():
    G = sample_limit_field(SPEC, seed=3)
    assert empirical_mean_field(G, NOISE, [], seed=3) == []


class _TrialRan(Exception):
    pass


def _no_trial(*args):
    raise _TrialRan


@pytest.mark.parametrize("bad", [0, -3])
def test_n_list_is_checked_before_the_first_trial(monkeypatch, bad):
    monkeypatch.setattr(randfield, "_run_trial", _no_trial)
    with pytest.raises(UsageError) as info:
        monte_carlo_convergence(SPEC, NOISE, [10, bad], trials=2, seed=1)
    assert "n_list" in str(info.value) and str(bad) in str(info.value)
    assert info.value.context["n"] == bad
    # 1 passes the check and reaches the trials, and so does any large n
    with pytest.raises(_TrialRan):
        monte_carlo_convergence(SPEC, NOISE, [1, 1 << 40], trials=2, seed=1)


def test_degree_one_critical_points_sit_at_the_analytic_phase():
    a, b = -0.8, 0.6
    f = BasisField(np.array([0.0, a, b]), 1)
    pts = find_critical_points(f, standard_domain(1), grid_res=512)
    phase = np.arctan2(b, a) % (2.0 * np.pi)
    want = sorted([phase, (phase + np.pi) % (2.0 * np.pi)])
    got = sorted(float(p.location[0]) for p in pts)
    assert np.allclose(got, want, atol=1e-9)
    assert sorted(p.classification for p in pts) == ["Max", "Min"]


def test_morse_statistic_positive_across_draws():
    spec = BasisSpec(dim=1, degree=5, decay=3.0)
    dom = standard_domain(1)
    hits = sum(
        morse_statistic(sample_limit_field(spec, seed=123, trial=t), dom,
                        grid_res=512) > 1e-6
        for t in range(100))
    assert hits == 100


def test_small_table_frozen_frequencies(small_table):
    rows = small_table["per_n"]
    assert [r["n"] for r in rows] == [10, 100]
    assert (rows[0]["matches"], rows[0]["denominator"]) == (23, 30)
    assert (rows[1]["matches"], rows[1]["denominator"]) == (25, 30)
    assert rows[0]["frequency"] == pytest.approx(23 / 30)
    assert rows[1]["frequency"] == pytest.approx(25 / 30)
    assert rows[0]["frequency"] <= rows[1]["frequency"]
    assert all(r["failed"] == 0 for r in rows)
    assert small_table["grid_res"] == 512


def test_table_is_reproducible_across_runs(small_table):
    again = monte_carlo_convergence(SPEC, NOISE, [10, 100], trials=30,
                                    seed=777)
    assert again == small_table


def test_faint_limit_field_matches_less_often(small_table):
    faint = BasisSpec(dim=1, degree=4, amplitude=1e-5, decay=2.0)
    rep = monte_carlo_convergence(faint, NOISE, [200], trials=40, seed=777)
    low = rep["strata_last_n"]["M_below_1e-4"]
    high = small_table["strata_last_n"]["M_above_1e-2"]
    assert low["trials"] > 0
    assert high["trials"] > 0
    assert low["frequency"] < high["frequency"]


def test_rejects_invalid_trial_counts():
    with pytest.raises(UsageError):
        monte_carlo_convergence(SPEC, NOISE, [10], trials=0, seed=1)


def _stack(fields) -> BasisField:
    return BasisField(np.stack([f.coeffs for f in fields]), fields[0].dim)


@pytest.mark.parametrize("dim,degree", [(1, 4), (2, 3), (3, 2)])
def test_stacked_rows_have_each_members_bits(dim, degree):
    rng = np.random.default_rng(dim)
    members = [sample_limit_field(BasisSpec(dim, degree), seed=9, trial=t)
               for t in range(4)]
    stack = _stack(members)
    member = rng.integers(0, 4, size=7)
    rows = stack.rows(member)
    # seeds (k, d), and refinement's 24 halvings of them (24, k, d)
    for shape in [(7,), (24, 7)]:
        X = rng.uniform(0.0, 2.0 * np.pi, shape + (dim,))
        parts = [(rows.value(X), rows.grad(X), rows.hess(X)),
                 rows.jet(X, 2), rows.jet(X, 1)]
        for j, m in enumerate(member):
            f, x = members[m], X[..., j, :]
            want_v, want_g, want_h = f.value(x), f.grad(x), f.hess(x)
            for v, g, *h in parts:
                assert np.array_equal(v[..., j], want_v)
                assert np.array_equal(g[..., j, :], want_g)
                assert all(np.array_equal(a[..., j, :, :], want_h)
                           for a in h)
    # every member at shared points (..., 1, d), as the lattice scan asks
    lat = standard_domain(dim).lattice(6)
    shared = stack.jet(lat[..., None, :], 2)
    for m, f in enumerate(members):
        for a, b in zip(shared, f.jet(lat, 2)):
            assert np.array_equal(np.moveaxis(a, dim, 0)[m], b)
    # one index is the member's own field; a plain field is its own stack
    assert stack.rows(2).coeffs.shape == members[2].coeffs.shape
    assert np.array_equal(stack.rows(2).grad(lat), members[2].grad(lat))
    assert members[0].rows(member) is members[0]


def _record(p) -> tuple:
    return (p.location.tobytes(), p.value.hex(), p.grad_norm.hex(),
            p.hess_spectrum.tobytes(), p.morse_index, p.hom_index,
            p.classification, p.near_boundary)


@pytest.mark.parametrize("dim,degree,grid,trial", [(1, 4, 512, 99),
                                                   (2, 2, 32, 34)])
def test_stacked_detection_equals_one_detection_per_member(dim, degree,
                                                           grid, trial):
    # the first trials from 0 where a member leaves unresolved cells: in
    # 1-d at grid 512, trial 99's Ghat_10; in 2-d at grid 32, where every
    # member must also leave escaped cells, trial 34
    G = sample_limit_field(BasisSpec(dim, degree), seed=777, trial=trial)
    fields = [G, *empirical_mean_field(G, BasisSpec(dim, degree, 0.6, 1.5),
                                       [10, 100, 1000], seed=777,
                                       trial=trial)]
    dom = standard_domain(dim)
    stacked = find_critical_points(_stack(fields), dom, grid_res=grid)
    alone = [find_critical_points(f, dom, grid_res=grid) for f in fields]
    assert any(r.unresolved for r in alone)
    assert dim == 1 or all(r.escaped for r in alone)
    parts = stacked.split()
    assert len(parts) == len(fields)
    for part, want in zip(parts, alone):
        assert [_record(p) for p in part] == [_record(p) for p in want]
        assert part.unresolved == want.unresolved
        assert part.escaped == want.escaped
    # one result over every member, in member order
    assert [_record(p) for p in stacked] == [
        _record(p) for r in alone for p in r]
    assert stacked.unresolved == [u for r in alone for u in r.unresolved]
    assert stacked.escaped == [e for r in alone for e in r.escaped]


README_SPEC = (BasisSpec(1, 4, 1.0, 2.0), BasisSpec(1, 4, 0.6, 1.5),
               [10, 100, 1000], 512)


def _pass_sizes(monkeypatch) -> list:
    """The number of trials of each pass from now on."""
    sizes = []
    real = randfield._run_trial

    def spy(spec, noise, n_list, seed, trials, grid_res):
        sizes.append(len(trials))
        return real(spec, noise, n_list, seed, trials, grid_res)

    monkeypatch.setattr(randfield, "_run_trial", spy)
    return sizes


@pytest.mark.parametrize("spec,noise,n_list,grid,trials,passes", [
    (*README_SPEC, 20, [16, 4]),
    # the montecarlo_d2 golden's config
    (BasisSpec(2, 2), BasisSpec(2, 2, 0.6, 1.5), [10, 100], 16, 20, [20]),
    # a wider noise degree: the G fields are detected apart from the
    # mean fields
    (BasisSpec(1, 2), BasisSpec(1, 3, 0.6, 1.5), [10, 100], 64, 10, [10]),
], ids=["readme", "mc_d2", "wider_noise"])
def test_trial_records_equal_one_detection_per_field(monkeypatch, spec, noise,
                                                     n_list, grid, trials,
                                                     passes):
    sizes = _pass_sizes(monkeypatch)
    records = monte_carlo_convergence(spec, noise, n_list, trials, 777,
                                      grid_res=grid)["records"]
    assert sizes == passes
    assert len(records) == trials
    for t, got in enumerate(records):
        assert repr(got) == repr(per_field_trial(spec, noise, n_list, 777,
                                                 t, grid))


def test_pass_size_leaves_the_table_unchanged(monkeypatch):
    spec, noise, n_list, grid = README_SPEC
    per_trial = 8 * (grid + 1) * (1 + len(n_list))
    sizes = _pass_sizes(monkeypatch)
    tables = []
    for budget, passes in [(per_trial, [1] * 80),
                           (7 * per_trial, [7] * 11 + [3]),
                           (randfield.PASS_LIMIT_BYTES, [16] * 5)]:
        monkeypatch.setattr(randfield, "PASS_LIMIT_BYTES", budget)
        tables.append(cli.dumps(monte_carlo_convergence(
            spec, noise, n_list, 80, 777)))
        assert sizes == passes
        sizes.clear()
    assert tables[0] == tables[1] == tables[2]


def test_a_pass_stays_within_its_lattice_budget(monkeypatch):
    # the stacked lattice gradient of each detection of the README table;
    # a larger pass should fail here before it shows as peak memory
    nbytes = []
    real = randfield.detect.find_critical_points

    def spy(field, domain, grid_res, **kw):
        lat = domain.lattice(grid_res)
        nbytes.append(field.grad(lat[..., None, :]).nbytes)
        return real(field, domain, grid_res=grid_res, **kw)

    monkeypatch.setattr(randfield.detect, "find_critical_points", spy)
    spec, noise, n_list, _ = README_SPEC
    monte_carlo_convergence(spec, noise, n_list, 80, 777)
    assert len(nbytes) == 5
    assert max(nbytes) <= randfield.PASS_LIMIT_BYTES


def test_split_of_a_large_stack_equals_per_member_filtering():
    # 80 trials' G and mean fields, 320 members; at grid 32 some members
    # leave unresolved and escaped cells
    spec, noise = BasisSpec(1, 4), BasisSpec(1, 4, 0.6, 1.5)
    fields = [f for t in range(80)
              for G in [sample_limit_field(spec, 777, t)]
              for f in [G, *empirical_mean_field(G, noise, [10, 100, 1000],
                                                 777, t)]]
    res = find_critical_points(_stack(fields), standard_domain(1), 32)
    members, *lists = res._parts
    assert members == len(fields) == 320 and all(lists)
    parts = res.split()
    assert len(parts) == members
    for m, part in enumerate(parts):
        for got, items in zip([part, part.unresolved, part.escaped], lists):
            assert list(got) == [x for k, x in items if k == m]


def test_lattice_guard_refuses_a_trial_too_large_to_build(monkeypatch,
                                                         tmp_path, capsys):
    # D = 4, degree 4, grid 64: 65**4 vertices of 16 gradient entries
    # each, 2.3 GB in one array
    monkeypatch.setattr(randfield, "_run_trial", _no_trial)
    path = tmp_path / "mc.json"
    path.write_text(json.dumps({"D": 4, "degree": 4,
                                "noise": {"amplitude": 0.6},
                                "n_list": [10, 100, 1000], "trials": 2,
                                "seed": 777}))
    assert cli.main(["montecarlo", "--config", str(path), "--grid",
                     "64"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "UsageError"
    assert err["error"]["context"]["bytes"] == 8 * 65 ** 4 * 16
    assert err["error"]["context"]["limit"] == randfield.LATTICE_LIMIT_BYTES


@pytest.mark.parametrize("spec,noise,n_list,grid", [
    README_SPEC,
    (BasisSpec(1, 2), BasisSpec(1, 2, 0.6, 1.5), [10, 100], 64),
    (BasisSpec(2, 2), BasisSpec(2, 2, 0.6, 1.5), [10, 100], 16),
    # ROADMAP item 8's 2-d config at its default grid
    (BasisSpec(2, 3), BasisSpec(2, 3, 0.6, 1.5), [10, 100, 1000], None),
], ids=["readme", "mc_d1", "mc_d2", "item8"])
def test_configs_in_use_pass_the_lattice_guard(monkeypatch, spec, noise,
                                               n_list, grid):
    monkeypatch.setattr(randfield, "_run_trial", _no_trial)
    with pytest.raises(_TrialRan):
        monte_carlo_convergence(spec, noise, n_list, trials=1, seed=777,
                                grid_res=grid)


def test_mean_maxima_counts_agree_with_rice():
    # Kac-Rice: G and each Ghat_n are stationary Gaussian fields on the
    # circle, whose expected number of maxima is sqrt(lam4 / lam2). The
    # mean N_M of acceptance check 10's 200 trials, of G and of each
    # Ghat_n, lies within 4 standard errors of it
    spec, noise, n_list, _ = README_SPEC
    records = monte_carlo_convergence(spec, noise, n_list, trials=200,
                                      seed=777)["records"]
    counts = [[r["counts_G"]["N_M"] for r in records]] + [
        [r["per_n"][i]["counts"]["N_M"] for r in records]
        for i in range(len(n_list))]
    rice = [rice_maxima(spec)] + [rice_maxima(spec, noise, n)
                                  for n in n_list]
    for c, want in zip(np.array(counts, dtype=float), rice):
        z = (c.mean() - want) / (c.std(ddof=1) / np.sqrt(len(c)))
        assert abs(z) <= 4.0, (want, c.mean(), z)
