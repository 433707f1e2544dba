"""The package namespace: every exported name resolves, and the CLI's
imports stay lean."""

import subprocess
import sys
from pathlib import Path

import critsense


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from critsense import *", namespace)
    missing = [n for n in critsense.__all__ if n not in namespace]
    assert not missing
    assert len(set(critsense.__all__)) == len(critsense.__all__)
    for name in critsense.__all__:
        assert getattr(critsense, name) is namespace[name]


def test_cli_import_leaves_scipy_optimize_out():
    # refinement is numpy-only; scipy.optimize would add to every cold start
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import critsense.cli; print('scipy.optimize' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, str(src)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_improper_extrema_and_the_pass_run_without_scipy():
    # the lattice union-find replaced the last scipy call in the package
    src = Path(__file__).resolve().parents[1] / "src"
    code = "\n".join([
        "import sys",
        "sys.path.insert(0, sys.argv[1])",
        "import critsense.cli",
        "from critsense import (entry, gallery, improper_extrema,",
        "                       mountain_pass_point)",
        "dom = entry('twogauss').domain",
        "f = gallery('twogauss')",
        "improper_extrema(f, dom, grid_res=16)",
        "mountain_pass_point(f, dom, (0.4, 0.0), (-0.4, 0.0), grid_res=16)",
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"])
    proc = subprocess.run([sys.executable, "-c", code, str(src)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
