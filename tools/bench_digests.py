"""Digests of every distinct benchmark command, for byte-identity checks.

    python3 tools/bench_digests.py --seed 777 > digests.txt

Runs each distinct command of the workloads in ``bench/workloads.py`` once,
in this process, through ``critsense.cli.main`` from ``src/``, and prints
one line per command: its name, its exit code, and the sha256 of its
standard output and of its standard error. The Monte Carlo config is
written to a temporary directory, which is the working directory of every
command, so the artifacts echo the same relative config path on any tree.
Warnings are recorded, not printed, as in the golden tests. Diff the output
of two trees to see which commands changed their bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIG = "mc.json"


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=777)
    args = p.parse_args(argv)
    for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[k] = "1"  # as the benchmark runs them
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    sys.dont_write_bytecode = True  # no __pycache__ under bench/
    import workloads as wl
    from critsense.cli import main as cli_main

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, CONFIG).write_text(
            json.dumps({**wl.MC_CONFIG, "seed": args.seed}))
        os.chdir(tmp)
        try:
            seen = set()
            for name in wl.WORKLOADS:
                for cmd in wl.commands(name, args.seed, CONFIG):
                    if tuple(cmd.argv) in seen:
                        continue
                    seen.add(tuple(cmd.argv))
                    out, err = io.StringIO(), io.StringIO()
                    with warnings.catch_warnings(record=True), \
                            contextlib.redirect_stdout(out), \
                            contextlib.redirect_stderr(err):
                        try:
                            rc = cli_main(list(cmd.argv))
                        except Exception as exc:  # report it, keep going
                            rc = f"raised:{type(exc).__name__}"
                    print(f"{cmd.name}\t{rc}\t{sha(out.getvalue())}\t"
                          f"{sha(err.getvalue())}", flush=True)
        finally:
            os.chdir(cwd)
    return 0


if __name__ == "__main__":
    sys.exit(main())
