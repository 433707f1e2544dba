"""The benchmark's span tracer still finds every layer boundary it wraps.

``bench/tracer.py`` patches module-level names such as
``detect.least_squares`` and ``morse.morse_flow_trajectory``; a rename in
the package breaks only the traced benchmark run. This test installs the
tracer in a fresh interpreter, so its patches do not leak into the other
tests, and runs one command of each kind through it.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = """
import contextlib, io, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracer, workloads
from critsense import cli

t = tracer.Tracer()
tracer.install(t)
for argv in (["classify", "--gallery", "twogauss"],
             ["audit", "--gallery", "bowl"],
             ["flow", "--gallery", "bowl"],
             ["mountain", "--gallery", "twogauss"],
             ["sequence", "--gallery", "fig10", "--n", "4"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
agg, _ = t.totals()
spans = workloads.WORKLOADS["gallery_sweep"].required_spans
print(json.dumps([s for s in spans if agg.get(s, [0])[0] == 0]))
"""


def test_tracer_records_every_gallery_sweep_span():
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(ROOT / "src"), str(ROOT / "bench")],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
