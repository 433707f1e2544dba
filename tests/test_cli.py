"""End-to-end command runs, in process through ``cli.main``."""

import csv
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

import critsense.detect as detect
import critsense.randfield as randfield
from critsense import __version__
from critsense.cli import _json, dumps, main, parse_domain
from critsense.errors import UsageError
from critsense.fields import ScalarField
from critsense.domains import LATTICE_LIMIT_BYTES, Ball, Box, Interval
from critsense.gallery import catalogue

SADDLE_VALUE = 2.0 * math.exp(-3.2)


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def body(text):
    """CSV rows with the commented preamble stripped."""
    lines = [ln for ln in text.splitlines() if not ln.startswith("# ")]
    return list(csv.reader(lines))


def preamble(text):
    out = {}
    for ln in text.splitlines():
        if not ln.startswith("# "):
            break
        k, _, v = ln[2:].partition(": ")
        out[k] = v
    return out


# ---------------------------------------------------------------- #
# plumbing
# ---------------------------------------------------------------- #

def test_parse_domain_kinds():
    d = parse_domain("interval:-2,3")
    assert isinstance(d, Interval) and (d.a, d.b) == (-2.0, 3.0)
    d = parse_domain("box:-1,-2:3,4")
    assert isinstance(d, Box)
    assert d.lo.tolist() == [-1.0, -2.0] and d.hi.tolist() == [3.0, 4.0]
    d = parse_domain("ball:0.5,0:2")
    assert isinstance(d, Ball)
    assert d.center.tolist() == [0.5, 0.0] and d.radius == 2.0


@pytest.mark.parametrize("text", [
    "pyramid:1",
    "interval:0",
    "interval:a,b",
    "ball:0,0",
    "box:1,1",
    "interval:0,inf",
    "box:-1,-1:inf,1",
    "ball:0,0:inf",
    "ball:0,0:nan",
    "ball:inf,0:1",
])
def test_parse_domain_rejects(text):
    with pytest.raises(UsageError):
        parse_domain(text)


def test_dumps_round_trips_doubles_exactly():
    vals = [0.1 + 0.2, 1.0 / 3.0, 1e-300, 6.02214076e23, -math.pi]
    back = json.loads(dumps({"v": vals}))["v"]
    assert back == vals  # 17 significant digits reproduce the bit pattern
    special = json.loads(dumps({"a": float("nan"), "b": float("inf")}))
    assert math.isnan(special["a"]) and special["b"] == float("inf")


def test_dumps_handles_fractions_and_numpy():
    obj = {"w": Fraction(-1, 2), "i": np.int64(3), "b": np.bool_(True),
           "arr": np.arange(2.0)}
    back = json.loads(dumps(obj))
    assert back == {"w": "-1/2", "i": 3, "b": True, "arr": [0.0, 1.0]}


def test_dumps_lays_out_like_json():
    # without floats the printer must match the standard library's layout
    obj = {"b": [1, (2, "é"), {}], "a": {10: None, -2: True, 9: []},
           "c": {"x": [[], {"y": False}]}}
    assert dumps(obj) == json.dumps(obj, indent=2, sort_keys=True)
    assert _json(obj, None) == json.dumps(obj, sort_keys=True)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == __version__


def test_missing_required_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify"])
    assert exc.value.code == 2
    capsys.readouterr()


# ---------------------------------------------------------------- #
# classify
# ---------------------------------------------------------------- #

def test_classify_monkey_json(capsys):
    rc, out, err = run(capsys, "classify", "--gallery", "monkey")
    assert rc == 0 and err == ""
    art = json.loads(out)
    assert art["command"] == "classify"
    assert art["version"] == __version__
    cfg = art["config"]
    assert cfg["gallery"] == "monkey"
    assert cfg["grid"] == 64 and cfg["tol"] == 1e-9
    res = art["result"]
    assert res["unresolved"] == []
    assert res["counts"]["N_C"] == 1
    assert res["counts"]["hom"] == {"-2": 1}
    pt = res["points"][0]
    assert pt["hom_index"] == -2
    assert pt["classification"] == "Saddle(3)"
    assert pt["morse_index"] is None
    assert not pt["near_boundary"]


def test_classify_single_point_mode(capsys):
    args = ("classify", "--gallery", "saddle", "--point", "0,0",
            "--eps", "0.1")
    rc, out, _ = run(capsys, *args)
    assert rc == 0
    pt = json.loads(out)["result"]["point"]
    assert pt["location"] == [0.0, 0.0]
    assert pt["hom_index"] == -1
    assert pt["classification"] == "Saddle(2)"

    rc, out, _ = run(capsys, *args, "--format", "csv")
    assert rc == 0
    rows = body(out)
    assert rows[0] == ["x1", "x2", "value", "morse_index", "hom_index",
                       "classification", "near_boundary"]
    # single-point rows leave the undetected columns blank
    assert rows[1] == ["0", "0", "", "", "-1", "Saddle(2)", "false"]


@pytest.mark.parametrize("extra", [(), ("--eps", "0.5")])
def test_classify_point_with_a_nonzero_gradient_is_regular(capsys, extra):
    # |grad f| = 0.45 at (0.1, 0.2) on the bowl x^2 + y^2
    rc, out, _ = run(capsys, "classify", "--gallery", "bowl", "--point",
                     "0.1,0.2", *extra)
    assert rc == 0
    pt = json.loads(out)["result"]["point"]
    assert pt == {"location": [0.1, 0.2], "hom_index": None,
                  "classification": "Regular"}


def test_classify_point_below_the_gradient_tolerance_gets_an_index(capsys):
    rc, out, _ = run(capsys, "classify", "--gallery", "bowl", "--point",
                     "0.1,0.2", "--tol", "0.5")
    assert rc == 0
    pt = json.loads(out)["result"]["point"]
    assert (pt["hom_index"], pt["classification"]) == (0, "Undulation")


def test_classify_keeps_expected_numeric_warnings_quiet(capsys):
    # singlemax at n = 64: refinement meets singular Hessians and trial
    # points where the field overflows; none of it may reach stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, "classify", "--gallery", "singlemax",
                           "--n", "64")
    assert rc == 0 and err == ""
    assert json.loads(out)["result"]["points"] == []


def test_classify_csv_table(capsys):
    rc, out, _ = run(capsys, "classify", "--gallery", "twogauss",
                     "--format", "csv")
    assert rc == 0
    pre = preamble(out)
    assert pre["command"] == "classify"
    cfg = json.loads(pre["config"])
    assert cfg["grid"] == 64
    rows = body(out)
    assert len(rows) == 4  # header, two maxima, one saddle
    classes = sorted(r[5] for r in rows[1:])
    assert classes == ["Max", "Max", "Saddle(2)"]
    for r in rows[1:]:
        float(r[2])  # value column parses
        assert r[6] == "false"


def test_out_file_matches_stdout_and_reruns_identically(tmp_path, capsys):
    rc, out, _ = run(capsys, "classify", "--gallery", "monkey")
    assert rc == 0
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    rc, silent, _ = run(capsys, "classify", "--gallery", "monkey",
                        "--out", str(p1))
    assert rc == 0 and silent == ""
    rc, _, _ = run(capsys, "classify", "--gallery", "monkey",
                   "--out", str(p2))
    assert rc == 0
    text = p1.read_text()
    assert text == out
    assert p2.read_bytes() == p1.read_bytes()


# ---------------------------------------------------------------- #
# audit
# ---------------------------------------------------------------- #

def test_audit_monkey_passes(capsys):
    rc, out, _ = run(capsys, "audit", "--gallery", "monkey")
    assert rc == 0
    res = json.loads(out)["result"]
    assert res["pass"] is True
    assert res["interior"] == -2
    assert res["boundary"] == "3"
    assert res["total"] == "1" and res["target"] == "1"


def test_audit_failure_sets_exit_code(capsys, monkeypatch):
    # a detection that misses bowl's one zero, its minimum, leaves the
    # interior sum 0 against the boundary's 0, so the totals cannot match
    find = detect.find_critical_points
    seen = []

    def missing_the_minimum(*args, **kwargs):
        found = find(*args, **kwargs)
        seen.extend(p.classification for p in found)
        return detect.DetectionResult(
            [(0, p) for p in found if p.classification != "Min"],
            [(0, u) for u in found.unresolved], [])

    monkeypatch.setattr(detect, "find_critical_points", missing_the_minimum)
    rc, out, _ = run(capsys, "audit", "--gallery", "bowl")
    assert seen == ["Min"]
    assert rc == 1
    res = json.loads(out)["result"]
    assert res["pass"] is False
    assert res["interior"] == 0
    assert res["total"] == "0" and res["target"] == "1"


def test_audit_counts_an_interior_zero_within_a_cell_of_the_boundary(
        capsys):
    # bowl's minimum lies 0.01 inside the left edge, within one grid cell:
    # flagged near_boundary, yet inside, so the interior sum counts it
    rc, out, _ = run(capsys, "audit", "--gallery", "bowl", "--domain",
                     "box:-0.01,-1:1,1")
    assert rc == 0
    res = json.loads(out)["result"]
    assert res["pass"] is True
    assert res["interior"] == 1
    assert res["total"] == "1" and res["target"] == "1"


def test_audit_on_an_unsupported_boundary_exits_1(capsys):
    # dispatch comes before boundary sampling, whose messages must not leak
    rc, out, err = run(capsys, "audit", "--gallery", "bowl3",
                       "--domain", "box:-1,-1,-1:1,1,1")
    assert rc == 1 and out == ""
    err = json.loads(err)["error"]
    assert err["type"] == "UnsupportedError"
    assert err["message"].startswith("boundary index not implemented")


def test_audit_with_unresolved_cells_exits_1(capsys):
    # at n = 16 the Newton seeds of singlemax's narrow bump stall, and
    # the audit refuses to sum an index over cells it could not resolve
    rc, out, err = run(capsys, "audit", "--gallery", "singlemax",
                       "--n", "16")
    assert rc == 1 and out == ""
    err = json.loads(err)["error"]
    assert err["type"] == "PreconditionError"
    assert err["message"] == "unresolved critical cells block the audit"
    assert err["context"]["cells"]


def test_an_oversized_grid_is_refused_before_its_lattice(capsys):
    # 16 TB of lattice: refused from its size, never allocated
    rc, out, err = run(capsys, "audit", "--gallery", "bowl",
                       "--grid", "1000000")
    assert rc == 2 and out == ""
    err = json.loads(err)["error"]
    assert err["type"] == "UsageError"
    assert err["context"] == {"bytes": 8 * 1000001 ** 2 * 2,
                              "limit": LATTICE_LIMIT_BYTES,
                              "grid_res": 1000000}
    assert randfield.LATTICE_LIMIT_BYTES is LATTICE_LIMIT_BYTES


def test_audit_csv_preamble(capsys):
    rc, out, _ = run(capsys, "audit", "--gallery", "bowl", "--format", "csv")
    assert rc == 0
    pre = preamble(out)
    assert pre["pass"] == "true"
    assert pre["total"] == "1" and pre["target"] == "1"
    rows = body(out)
    assert rows[0] == ["x1", "x2", "index", "weight"]
    assert ["0", "0", "1", "1"] in rows[1:]


# ---------------------------------------------------------------- #
# flow
# ---------------------------------------------------------------- #

def test_flow_chart_json(capsys):
    rc, out, _ = run(capsys, "flow", "--gallery", "bowl")
    assert rc == 0
    res = json.loads(out)["result"]
    chart = res["chart"]
    assert chart["center"] == pytest.approx([0.0, 0.0], abs=1e-12)
    assert 0.124 < chart["radius"] <= 0.125
    assert res["verification"]["residual_sup"] <= 1e-10


def test_flow_trajectory_csv(capsys):
    rc, out, _ = run(capsys, "flow", "--gallery", "bowl", "--format", "csv")
    assert rc == 0
    rows = body(out)
    assert rows[0] == ["t", "x1", "x2"]
    assert len(rows) == 1002
    assert rows[1][0] == "0"
    assert float(rows[1][1]) == pytest.approx(0.0625, rel=1e-6)
    assert float(rows[-1][0]) == 1.0
    # the conjugating flow is the identity on an exact quadratic
    assert float(rows[-1][1]) == pytest.approx(float(rows[1][1]), abs=1e-9)
    assert float(rows[-1][2]) == pytest.approx(0.0, abs=1e-9)


def test_flow_has_no_grid_option(capsys):
    # flow refines from one seed point; it scans no detection grid
    with pytest.raises(SystemExit) as exc:
        main(["flow", "--gallery", "bowl", "--grid", "7"])
    assert exc.value.code == 2
    assert "--grid" in capsys.readouterr().err


def test_flow_degenerate_center_exits_1(capsys):
    rc, out, err = run(capsys, "flow", "--gallery", "monkey")
    assert rc == 1 and out == ""
    info = json.loads(err)["error"]
    assert info["type"] == "NotMorseError"


@pytest.mark.parametrize("argv", [
    # Newton leaves the box and settles at about (-11.03, 0.25)
    ("--gallery", "singlemax", "--n", "4", "--point", "0,0.2"),
    # the bowl's minimum at the origin lies outside this disk
    ("--gallery", "bowl", "--domain", "ball:2,2:0.5"),
])
def test_flow_center_outside_the_domain_exits_1(capsys, argv):
    rc, out, err = run(capsys, "flow", *argv)
    assert rc == 1 and out == ""
    info = json.loads(err)["error"]
    assert info["type"] == "PreconditionError"
    assert info["context"]["boundary_distance"] < 0


# ---------------------------------------------------------------- #
# mountain
# ---------------------------------------------------------------- #

def test_mountain_auto_peaks(capsys):
    rc, out, _ = run(capsys, "mountain", "--gallery", "twogauss")
    assert rc == 0
    art = json.loads(out)
    p1 = art["config"]["p1"]
    assert abs(abs(p1[0]) - 0.4) < 1e-3
    res = art["result"]
    assert res["kind"] == "InteriorCritical"
    assert res["c"] == pytest.approx(SADDLE_VALUE, abs=1e-6)
    assert res["certificate"]["grad_norm"] <= 1e-6


def test_mountain_needs_two_peaks(capsys):
    rc, out, err = run(capsys, "mountain", "--gallery", "dome")
    assert rc == 1 and out == ""
    info = json.loads(err)["error"]
    assert info["type"] == "PreconditionError"
    assert info["context"]["found"] == 1


def test_mountain_pass_in_one_dimension(capsys):
    # fig10 at n = 4 has maxima at 0 and 0.40992 around the minimum
    # 0.27311; the 1-d probe sphere is the two points +-1
    rc, out, _ = run(capsys, "mountain", "--gallery", "fig10", "--n", "4")
    assert rc == 0
    res = json.loads(out)["result"]
    assert res["kind"] == "InteriorCritical"
    assert res["p3"][0] == pytest.approx(0.27311, abs=1e-5)
    assert res["c"] == pytest.approx(0.92775, abs=1e-5)


@pytest.mark.parametrize("spaced", [
    ("mountain", "--gallery", "twogauss", "--p1", "0.4,0", "--p2",
     "-0.4,0"),
    ("classify", "--gallery", "bowl", "--point", "-0.1,0"),
    ("flow", "--gallery", "bowl", "--format", "csv", "--sample", "-.05,0"),
])
def test_negative_point_in_the_spaced_form(capsys, spaced):
    joined = spaced[:-2] + (spaced[-2] + "=" + spaced[-1],)
    rc, out, err = run(capsys, *spaced)
    assert (rc, err) == (0, "")
    assert run(capsys, *joined) == (rc, out, err)


def test_mountain_p1_without_p2(capsys):
    rc, _, err = run(capsys, "mountain", "--gallery", "twogauss",
                     "--p1", "0.4,0")
    assert rc == 2
    assert json.loads(err)["error"]["type"] == "UsageError"


# ---------------------------------------------------------------- #
# sequence
# ---------------------------------------------------------------- #

def test_sequence_csv_report(capsys):
    rc, out, _ = run(capsys, "sequence", "--gallery", "fig10",
                     "--n", "4,16", "--format", "csv")
    assert rc == 0
    assert preamble(out)["verdict"] == "consistent"
    rows = body(out)
    assert rows[0][:5] == ["n", "N_C", "N_M", "N_m", "N_S"]
    assert len(rows) == 3
    n_m = [r[2] for r in rows[1:]]
    assert n_m == ["2", "2"]
    res = [float(r[12]) for r in rows[1:]]
    assert res[1] < res[0]


def test_sequence_rejects_static_entry(capsys):
    rc, _, err = run(capsys, "sequence", "--gallery", "bowl")
    assert rc == 2
    assert json.loads(err)["error"]["type"] == "UsageError"


# ---------------------------------------------------------------- #
# montecarlo
# ---------------------------------------------------------------- #

def mc_config(tmp_path, **overrides):
    cfg = {"D": 1, "degree": 2, "noise": {"amplitude": 0.4},
           "n_list": [3], "trials": 2, "seed": 11}
    cfg.update(overrides)
    path = tmp_path / "mc.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_montecarlo_runs_and_echoes_config(tmp_path, capsys):
    path = mc_config(tmp_path)
    rc, out, _ = run(capsys, "montecarlo", "--config", path,
                     "--threads", "1")
    assert rc == 0
    art = json.loads(out)
    assert art["config"]["threads"] == 1
    assert art["config"]["seed"] == 11
    row = art["result"]["per_n"][0]
    assert row["n"] == 3 and row["denominator"] <= 2
    assert 0.0 <= row["frequency"] <= 1.0

    rc, out2, _ = run(capsys, "montecarlo", "--config", path,
                      "--threads", "2")
    assert rc == 0
    assert json.loads(out2)["result"] == art["result"]


def test_montecarlo_output_ignores_the_thread_setting(tmp_path, capsys,
                                                      monkeypatch):
    path = mc_config(tmp_path)
    outs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("CRITSENSE_THREADS", threads)
        rc, out, _ = run(capsys, "montecarlo", "--config", path)
        assert rc == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert "threads" not in json.loads(outs[0])["config"]


@pytest.mark.parametrize("case", [
    ("sequence", "--gallery", "fig10", "--n", "4,x"),
    "3",  # a montecarlo config whose top level is not an object
    {"D": "x"},
    {"degree": "two"},
    {"trials": [2]},
    {"seed": None},
    {"n_list": 3},
    {"n_list": []},
    {"n_list": ["x"]},
    {"noise": {"amplitude": "loud"}},
    {"trials": 2.9},
    {"trials": float("inf")},
    {"D": 1.5},
    {"degree": 2.5},
    {"noise": {"amplitude": 0.4, "degree": 1.5}},
    {"seed": 11.5},
    {"n_list": [3.5]},
    {"seed": -1},
    {"seed": 2 ** 64},
    {"amplitude": float("inf")},
    {"noise": {"amplitude": float("nan")}},
    # JSON true/false load as bools, and int(True) == 1
    {"D": True},
    {"trials": True},
    {"seed": False},
    {"amplitude": True},
    {"noise": {"amplitude": True}},
    ("montecarlo", "--config", "{config}", "--seed", "-1"),
    # float() parses numeric strings
    {"amplitude": "0.5"},
    {"decay": "2"},
    {"noise": {"amplitude": "0.4"}},
    {"noise": {"amplitude": 0.4, "decay": "2"}},
    ("montecarlo", "--config", "{missing}"),
    "{not json",
    {"noise": 0.4},
    ("classify", "--gallery", "bowl", "--point", "a,b"),
])
def test_malformed_numbers_are_usage_errors(tmp_path, capsys, case):
    if isinstance(case, tuple):
        paths = {"{config}": mc_config(tmp_path),
                 "{missing}": str(tmp_path / "missing.json")}
        argv = [paths.get(a, a) for a in case]
    else:
        path = tmp_path / "mc.json"
        if isinstance(case, str):
            path.write_text(case)
        else:
            mc_config(tmp_path, **case)
        argv = ("montecarlo", "--config", str(path))
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "UsageError"


@pytest.mark.parametrize("n", [0, 2 ** 20])
def test_montecarlo_rejects_n_out_of_range_before_drawing(tmp_path, capsys,
                                                          monkeypatch, n):
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(randfield, "_run_trial", no_trial)
    path = mc_config(tmp_path, n_list=[10, n])
    rc, out, err = run(capsys, "montecarlo", "--config", path)
    assert rc == 2 and out == ""
    info = json.loads(err)["error"]
    assert info["type"] == "UsageError"
    assert "n_list" in info["message"] and str(n) in info["message"]


def test_montecarlo_missing_key(tmp_path, capsys):
    path = mc_config(tmp_path)
    cfg = json.loads(open(path).read())
    del cfg["trials"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    rc, _, err = run(capsys, "montecarlo", "--config", str(bad))
    assert rc == 2
    info = json.loads(err)["error"]
    assert info["type"] == "UsageError"
    assert "trials" in info["message"]


# ---------------------------------------------------------------- #
# gallery and error surfaces
# ---------------------------------------------------------------- #

def test_gallery_json_listing(capsys):
    rc, out, _ = run(capsys, "gallery")
    assert rc == 0
    rows = json.loads(out)["result"]
    assert rows == catalogue()
    names = [r["name"] for r in rows]
    assert len(names) == len(set(names))
    assert "twogauss" in names


def test_gallery_csv_quotes_descriptors(capsys):
    rc, out, _ = run(capsys, "gallery", "--format", "csv")
    assert rc == 0
    assert '"ball:0,0:1"' in out  # commas force quoting
    rows = body(out)
    assert rows[0] == ["name", "dim", "family", "origin", "domain", "note"]
    by_name = {r[0]: r for r in rows[1:]}
    assert by_name["twogauss"][4] == "ball:0,0:1"
    assert by_name["fig10"][2] == "true"
    assert len(rows) - 1 == len(catalogue())


def test_unknown_gallery_name(capsys):
    rc, out, err = run(capsys, "classify", "--gallery", "nothere")
    assert rc == 2 and out == ""
    info = json.loads(err)["error"]
    assert info["type"] == "CatalogueError"
    assert "known:" in info["message"]


def test_bad_domain_spec(capsys):
    rc, _, err = run(capsys, "classify", "--gallery", "bowl",
                     "--domain", "pyramid:1")
    assert rc == 2
    assert "unknown domain kind" in json.loads(err)["error"]["message"]


def test_point_of_wrong_dimension_is_a_usage_error(capsys):
    rc, out, err = run(capsys, "classify", "--gallery", "bowl",
                       "--point", "0,0,0")
    assert rc == 2
    assert out == ""
    e = json.loads(err)["error"]
    assert e["type"] == "UsageError"
    assert "dimension" in e["message"]


def test_point_outside_the_domain_needs_eps(capsys):
    rc, out, err = run(capsys, "classify", "--gallery", "bowl",
                       "--point", "3,0")
    assert rc == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "UsageError"
    rc, out, _ = run(capsys, "classify", "--gallery", "bowl",
                     "--point", "3,0", "--eps", "0.1")
    assert rc == 0
    pt = json.loads(out)["result"]["point"]
    assert (pt["hom_index"], pt["classification"]) == (None, "Regular")


@pytest.mark.parametrize("argv", [
    ("classify", "--gallery", "bowl", "--grid", "0"),
    ("classify", "--gallery", "bowl", "--n", "0"),
    ("classify", "--gallery", "bowl", "--tol", "0"),
    ("classify", "--gallery", "bowl", "--tol=-1e-9"),
    ("classify", "--gallery", "fig10", "--point", "0", "--eps=-0.1"),
    ("audit", "--gallery", "bowl", "--grid", "0"),
    ("flow", "--gallery", "bowl", "--ode-step", "0"),
    ("mountain", "--gallery", "twogauss", "--tol", "0"),
    ("sequence", "--gallery", "fig10", "--n", "4", "--tol", "0"),
    ("classify", "--gallery", "twogauss", "--tol", "inf"),
    ("classify", "--gallery", "bowl", "--point", "nan,0"),
    ("classify", "--gallery", "bowl", "--domain", "box:-1,-1:inf,1"),
    ("audit", "--gallery", "bowl", "--domain", "ball:0,0:inf"),
    ("classify", "--gallery", "bowl", "--point", "0.1,0.2", "--eps",
     "inf"),
    ("mountain", "--gallery", "twogauss", "--tol", "inf"),
    ("gallery", "--out", "{tmp}/missing/x.json"),
    ("gallery", "--out", "{tmp}"),
    ("classify", "--gallery", "bowl", "--format", "csv", "--out", "{tmp}"),
])
def test_explicit_out_of_range_values_are_usage_errors(tmp_path, capsys,
                                                       argv):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "UsageError"


def test_flow_rejects_a_large_step_before_any_hessian(capsys, monkeypatch):
    # 1e-300 would ask for about 1e300 RK4 steps
    calls = []
    hess = ScalarField.hess
    monkeypatch.setattr(ScalarField, "hess",
                        lambda self, s: calls.append(s) or hess(self, s))
    for step, message in (("0.7", "ode_step must lie in (0, 0.5]"),
                          ("1e-300", "ode_step must be at least 1e-05")):
        rc, out, err = run(capsys, "flow", "--gallery", "twogauss",
                           "--point", "0.4,0", "--ode-step", step)
        assert rc == 2 and out == ""
        assert json.loads(err)["error"]["message"] == message
    assert calls == []


def _count_rows(monkeypatch, kind):
    """Row counts of every ``ScalarField.<kind>`` call from now on."""
    rows = []
    orig = getattr(ScalarField, kind)

    def counted(self, s, *args):
        rows.append(int(np.prod(np.shape(s)[:-1])))
        return orig(self, s, *args)
    monkeypatch.setattr(ScalarField, kind, counted)
    return rows


def test_flow_csv_integrates_once(capsys, monkeypatch):
    # the trajectory is one more row of the verification batch; the
    # bowl's flow stages call jet, which shares work and skips grad
    grads = _count_rows(monkeypatch, "grad")
    jets = _count_rows(monkeypatch, "jet")
    counts, rows = [], []
    for fmt in ("json", "csv"):
        grads.clear()
        jets.clear()
        rc, out, _ = run(capsys, "flow", "--gallery", "bowl", "--seed", "777",
                         "--format", fmt)
        assert rc == 0 and out
        counts.append((len(grads), len(jets)))
        rows.append(sum(jets))
    assert counts[0] == counts[1]
    # 4,000 RK4 stages on 100 rows, and one more row in the CSV batch
    assert rows[0] >= 400_000
    assert rows[1] - rows[0] == counts[0][1]


def test_flow_sample_outside_the_chart_exits_before_the_batch(capsys,
                                                              monkeypatch):
    values = _count_rows(monkeypatch, "value")
    grads = _count_rows(monkeypatch, "grad")
    jets = _count_rows(monkeypatch, "jet")
    rc, out, err = run(capsys, "flow", "--gallery", "bowl", "--sample",
                       "0.5,0", "--format", "csv")
    assert rc == 2 and out == ""
    assert json.loads(err)["error"]["message"] == \
        "point outside the chart radius"
    assert max(values + grads + jets) < 100


def test_mountain_pass_lattice_needs_grid_8_with_given_peaks(capsys):
    # --grid sizes the pass lattice too, not only the peak detection
    rc, out, err = run(capsys, "mountain", "--gallery", "twogauss",
                       "--p1", "0.4,0", "--p2=-0.4,0", "--grid", "4")
    assert rc == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "UsageError"
