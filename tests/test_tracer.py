"""The benchmark's span tracer still finds every layer boundary it wraps.

``bench/tracer.py`` patches module-level names such as
``detect.least_squares`` and ``morse.morse_flow_trajectory``; a rename in
the package breaks only the traced benchmark run. These tests install the
tracer in a fresh interpreter, so its patches do not leak into the other
tests, and run commands through it.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# argv: src, bench, then a JSON list of CLI commands and a JSON list of
# span names; prints the names of the spans that were never entered
_SCRIPT = """
import contextlib, io, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracer
from critsense import cli

t = tracer.Tracer()
tracer.install(t)
for argv in json.loads(sys.argv[3]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
agg, _ = t.totals()
print(json.dumps([s for s in json.loads(sys.argv[4])
                  if agg.get(s, [0])[0] == 0]))
"""


def _missing_spans(commands, spans) -> list:
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(ROOT / "src"), str(ROOT / "bench"),
         json.dumps(commands), json.dumps(list(spans))],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_tracer_records_every_gallery_sweep_span():
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "bench"))
    spans = workloads.WORKLOADS["gallery_sweep"].required_spans
    assert _missing_spans([["classify", "--gallery", "twogauss"],
                           ["audit", "--gallery", "bowl"],
                           ["flow", "--gallery", "bowl"],
                           ["mountain", "--gallery", "twogauss"],
                           ["sequence", "--gallery", "fig10", "--n", "4"]],
                          spans) == []


def test_tracer_sees_the_distances_and_extrema_of_a_2d_sequence():
    # a 2-d sequence hands one lattice evaluation to both; they must still
    # be called through the module names that the tracer wraps
    assert _missing_spans([["sequence", "--gallery", "trio", "--n", "4"]],
                          ["sequence.ck", "detect.improper"]) == []


def test_tracer_reaches_batched_refinement_and_its_rescue():
    # peano's degenerate zero sends seeds from the batched Newton phase
    # to the least_squares rescue; both spans must stay reachable
    assert _missing_spans([["classify", "--gallery", "peano", "--grid", "24"]],
                          ["detect.refine", "detect.rescue"]) == []


def test_tracer_accounts_for_the_folded_csv_trajectory():
    # the CSV trajectory rides in the verification batch; that one
    # integration must still show up as morse.flow and morse.verify spans
    assert _missing_spans([["flow", "--gallery", "bowl", "--format", "csv"]],
                          ["morse.flow", "morse.verify"]) == []


# argv: src, bench, a Monte Carlo config path; prints each span's call
# count, the counters, and the artifact
_MC_SCRIPT = """
import contextlib, io, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracer
from critsense import cli

t = tracer.Tracer()
tracer.install(t)
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert cli.main(["montecarlo", "--config", sys.argv[3]]) == 0
agg, counts = t.totals()
print(json.dumps({"calls": {k: v[0] for k, v in agg.items()},
                  "counts": counts, "artifact": json.loads(out.getvalue())}))
"""


def test_tracer_counts_one_stacked_detection_per_pass(tmp_path):
    path = tmp_path / "mc.json"
    path.write_text(json.dumps({
        "D": 1, "degree": 4, "amplitude": 1.0, "decay": 2.0,
        "noise": {"amplitude": 0.6, "decay": 1.5},
        "n_list": [10, 100, 1000], "trials": 3, "seed": 777}))
    proc = subprocess.run(
        [sys.executable, "-c", _MC_SCRIPT, str(ROOT / "src"),
         str(ROOT / "bench"), str(path)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    calls, counts = got["calls"], got["counts"]
    # the three trials fit in one pass: their G and mean fields go
    # through one detect.find
    assert calls["detect.find"] == 1
    assert calls["detect.refine"] >= 1
    records = got["artifact"]["result"]["records"]
    assert counts["detect.points"] == sum(
        r["counts_G"]["N_C"] + sum(row["counts"]["N_C"] for row in r["per_n"])
        for r in records) > 0
