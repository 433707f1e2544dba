"""critsense benchmark: closed-loop workloads driven through the CLI.

    python3 bench/run.py --workload gallery_sweep --seed 777 --seconds 15 \\
        --trace 0

One client issues the workload's commands through ``critsense.cli.main``
in this process, each after the previous one returns, in whole passes over
the command list: at least the workload's ``min_passes`` and at least
``--seconds`` seconds of command time. A command's latency is its fastest
time over the passes, for short commands scaled to a calibration task (see
``CAL_NOMINAL_S``). Fresh interpreters, spread over the run, time the cold
import of ``critsense.cli``. Every artifact is hashed; a command run twice
must give the same digest, and the Monte Carlo table must not depend on the
thread count. ``--workload all`` runs every workload, each in its own process.

With ``--trace 1`` the run makes one untraced and then one traced pass and
reports per-layer metrics from an outside-in tracer (see ``tracer.py``),
plus the tracing overhead. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. A full record
(every command, digest, outcome and kept span) is written to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import workloads as wl  # found next to this script

SETUP_PROBES = 5
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_PROBE = """import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import numpy, scipy.ndimage, scipy.optimize
t1 = time.perf_counter()
import critsense.cli
print(repr(t1 - t0), repr(time.perf_counter() - t1))
"""

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cmds_per_s": "1/s",
                    "cmd_p50_s": "s", "cmd_p75_s": "s", "peak_rss_mb": "MB"}

_FIELDS = [f"fields.{m}.{k}" for m in ("grad", "hess", "value")
           for k in ("calls", "points", "self_s")]
PER_LAYER = _FIELDS + [
    "fields.points_per_call",
    "domains.lattice.points", "domains.self_s",
    "gallery.build.calls", "gallery.build.self_s",
    "detect.find.calls", "detect.find.self_s",
    "detect.refine.calls", "detect.refine.self_s",
    "detect.rescue.calls", "detect.rescue.self_s",
    "detect.points", "detect.refine_yield", "detect.unresolved",
    "detect.improper.self_s", "detect.boundary_grad.self_s",
    "homindex.hom_index.calls", "homindex.hom_index.self_s",
    "homindex.winding.calls", "homindex.winding.self_s",
    "homindex.classify.calls", "homindex.classify.self_s",
    "homindex.boundary.calls", "homindex.boundary.self_s",
    "homindex.audit.total_s",
    "morse.classify.self_s", "morse.chart.self_s", "morse.flow.self_s",
    "morse.verify.self_s", "morse.statistic.self_s",
    "mountainpass.pass.calls", "mountainpass.pass.self_s",
    "sequence.experiment.total_s", "sequence.ck.self_s",
    "sequence.match.self_s",
    "randfield.mc.total_s", "randfield.trial_s",
    "randfield.mean_field.calls", "randfield.mean_field.self_s",
    "randfield.limit_field.self_s",
    "cli.main.self_s", "cli.dumps.self_s", "cli.artifact_bytes",
    "setup.numpy_scipy_s", "setup.critsense_s",
    "trace.overhead_s",
]


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name in ("fields.points_per_call", "detect.refine_yield"):
        return "points/call"
    if name == "cli.artifact_bytes":
        return "B"
    return "count"


# ---------------------------------------------------------------- #
# helpers
# ---------------------------------------------------------------- #

def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def machine() -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def setup_probe() -> tuple[float, float]:
    """Cold import of critsense.cli in a fresh interpreter, in two parts:
    its third-party imports (numpy, scipy.ndimage, scipy.optimize), then
    critsense itself."""
    proc = subprocess.run([sys.executable, "-E", "-c", _PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    third_party, own = proc.stdout.split()
    return float(third_party), float(own)


# ---------------------------------------------------------------- #
# running commands
# ---------------------------------------------------------------- #

def invoke(main, argv: list) -> tuple[float, wl.Outcome]:
    out, err = io.StringIO(), io.StringIO()
    raised = None
    rc = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except (Exception, SystemExit) as exc:  # the loop must keep running
        raised = f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    error = None
    text = err.getvalue()
    start = text.rfind('{\n  "error"')
    if start >= 0:
        try:
            error = json.loads(text[start:])["error"]
        except ValueError:
            pass
    return dt, wl.Outcome(rc, out.getvalue(), error, raised)


def digest(outcome: wl.Outcome) -> str:
    if outcome.stdout:
        return sha(outcome.stdout)
    if outcome.error is not None:
        return sha(json.dumps(outcome.error, sort_keys=True))
    return sha(outcome.raised or "")


def run_pass(main, cmds: list, index: int, records: list, before=None):
    """Issue every command once, in order; returns the pass time.
    ``before(index, j)`` runs untimed ahead of the j-th command."""
    total = 0.0
    for j, cmd in enumerate(cmds):
        if before is not None:
            before(index, j)
        dt, outcome = invoke(main, cmd.argv)
        total += dt
        try:
            mismatch = cmd.check(outcome)
        except (KeyError, TypeError, ValueError) as exc:
            mismatch = f"unreadable artifact: {type(exc).__name__}: {exc}"
        rec = {"pass": index, "name": cmd.name, "seconds": dt,
               "rc": outcome.rc, "digest": digest(outcome),
               "bytes": len(outcome.stdout.encode()),
               "unresolved": unresolved(outcome),
               "failed": mismatch is not None, "reason": mismatch,
               "predicted": cmd.why}
        if cmd.argv[0] == "montecarlo" and outcome.stdout:
            # the artifact echoes --threads in its config block, so the
            # thread-independence check hashes the result object only
            from critsense.cli import dumps
            rec["result_digest"] = sha(dumps(outcome.artifact()["result"]))
        records.append(rec)
    return total


def output_checks(records: list) -> list:
    """Determinism problems: repeated commands with different digests,
    Monte Carlo tables that depend on the thread count."""
    problems = []
    seen: dict = {}
    for r in records:
        first = seen.setdefault(r["name"], r["digest"])
        if first != r["digest"]:
            problems.append(f"{r['name']}: digest changed on repeat")
    by_pass: dict = {}
    for r in records:
        if "result_digest" in r:
            by_pass.setdefault(r["pass"], set()).add(r["result_digest"])
    for p, digests in sorted(by_pass.items()):
        if len(digests) != 1:
            problems.append(f"pass {p}: montecarlo table differs between "
                            "--threads 1 and --threads 2")
    return problems


def unresolved(outcome: wl.Outcome) -> int:
    """The ``unresolved`` counts a classify or sequence artifact reports."""
    if not outcome.stdout.startswith("{"):
        return 0
    res = outcome.artifact()["result"]
    if isinstance(res, dict) and isinstance(res.get("unresolved"), list):
        return len(res["unresolved"])
    if isinstance(res, dict) and "rows" in res:
        return sum(r.get("unresolved", 0) for r in res["rows"])
    return 0


# ---------------------------------------------------------------- #
# the two run modes
# ---------------------------------------------------------------- #

# The host's speed drifts by tens of percent over seconds to minutes. On a
# workload of short commands, each command's time is scaled by
# CAL_NOMINAL_S over the mean time of a fixed calibration task run just
# before and just after it: the task slows with the host, and the scaled
# times read as seconds on a host where it takes CAL_NOMINAL_S, about its
# time on a 2-CPU Xeon. A command of several seconds averages the drift
# itself, and the two samples around it only add noise (scaled, its times
# spread several times wider from run to run), so long ones stay raw.
CAL_NOMINAL_S = 0.02


def calibration_s() -> float:
    """Time of a fixed task in critsense's mix of work: small numpy
    evaluations driven from a Python loop."""
    import numpy as np
    x = np.linspace(-1.0, 1.0, 2000).reshape(-1, 2)
    t = time.perf_counter()
    acc = 0.0
    for k in range(200):
        v = np.exp(-np.sum(x * x, axis=1)) * np.cos(k * x[:, 0])
        acc += float(v.max())
        for q in x[:20]:
            acc += float(np.dot(q, q))
    json.dumps([acc] * 200)
    return time.perf_counter() - t


def best_latency(records: list) -> dict:
    """Each command's fastest time over the passes."""
    best: dict = {}
    for r in records:
        best[r["name"]] = min(r["seconds"], best.get(r["name"], math.inf))
    return best


def command_metrics(best: dict, setup: list) -> dict:
    lat = sorted(best.values())
    wall = sum(lat)
    return {
        "setup_s": statistics.median(a + b for a, b in setup),
        "wall_s": wall,
        "cmds_per_s": len(lat) / wall,
        "cmd_p50_s": statistics.median(lat),
        "cmd_p75_s": statistics.quantiles(lat, n=4, method="inclusive")[2],
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_untraced(work, cmds, cli, seconds: float) -> tuple[dict, list,
                                                            dict]:
    records: list = []
    setup: list = []
    cal: list = []
    # the probes run ahead of commands spread evenly over the first
    # min_passes passes, so every workload spreads them over its run
    slots = len(cmds) * work.min_passes
    due = collections.Counter(k * slots // SETUP_PROBES
                              for k in range(SETUP_PROBES))

    def before(index, j):
        for _ in range(due[index * len(cmds) + j]):
            setup.append(setup_probe())
        cal.append(calibration_s())

    passes: list = []
    while len(passes) < work.min_passes or sum(passes) < seconds:
        passes.append(run_pass(cli.main, cmds, len(passes), records,
                               before))
    cal.append(calibration_s())

    if work.short_commands:
        for k, r in enumerate(records):  # cal[k], cal[k + 1] bracket it
            r["raw_seconds"] = r["seconds"]
            r["seconds"] *= 2 * CAL_NOMINAL_S / (cal[k] + cal[k + 1])
    best = best_latency(records)
    metrics = command_metrics(best, setup)
    info = {"passes": passes, "setup_samples": setup,
            "calibration_s": statistics.median(cal)}
    if work.name == "montecarlo":
        t1, t2 = (best[c.name] for c in cmds)
        trials = wl.MC_CONFIG["trials"]
        info.update({"mc_trials_per_s_t1": trials / t1,
                     "mc_trials_per_s_t2": trials / t2,
                     "mc_thread_speedup": t1 / t2})
    return metrics, records, info


def run_traced(work, cmds, cli) -> tuple[dict, list, dict]:
    import tracer as tr

    setup = [setup_probe() for _ in range(SETUP_PROBES)]
    records: list = []
    untraced = run_pass(cli.main, cmds, 0, records)
    tracer = tr.Tracer()
    tr.install(tracer)  # rebinds cli.main among others
    traced = run_pass(cli.main, cmds, 1, records)
    agg, counts = tracer.totals()

    def calls(n):
        return agg.get(n, [0, 0.0, 0.0])[0]

    def total(n):
        return agg.get(n, [0, 0.0, 0.0])[1]

    def own(n):
        return agg.get(n, [0, 0.0, 0.0])[2]

    m: dict = {}
    for name in PER_LAYER:
        head, _, kind = name.rpartition(".")
        if kind == "calls":
            m[name] = calls(head)
        elif kind == "self_s":
            m[name] = own(head)
        elif kind == "total_s":
            m[name] = total(head)
    for meth in ("grad", "hess", "value"):
        m[f"fields.{meth}.points"] = counts.get(f"fields.{meth}.points", 0)
    field_calls = sum(calls(f"fields.{k}") for k in ("grad", "hess", "value"))
    field_points = sum(m[f"fields.{k}.points"]
                       for k in ("grad", "hess", "value"))
    m["fields.points_per_call"] = field_points / max(field_calls, 1)
    m["domains.lattice.points"] = counts.get("domains.lattice.points", 0)
    m["domains.self_s"] = sum(v[2] for k, v in agg.items()
                              if k.startswith("domains."))
    m["detect.points"] = counts.get("detect.points", 0)
    m["detect.unresolved"] = counts.get("detect.unresolved", 0)
    m["detect.refine_yield"] = m["detect.points"] / max(
        calls("detect.refine"), 1)
    m["randfield.trial_s"] = total("randfield.trial") / max(
        calls("randfield.trial"), 1)
    m["cli.artifact_bytes"] = sum(r["bytes"] for r in records
                                  if r["pass"] == 1)
    m["setup.numpy_scipy_s"] = statistics.median(s[0] for s in setup)
    m["setup.critsense_s"] = statistics.median(s[1] for s in setup)
    m["trace.overhead_s"] = traced - untraced

    missing = [s for s in work.required_spans if calls(s) == 0]
    info = {"untraced_wall_s": untraced, "traced_wall_s": traced,
            "missing_spans": missing,
            "spans": [list(s) for s in tracer.spans()]}
    return {k: m[k] for k in PER_LAYER}, records, info


def run_one(args) -> int:
    if not (SRC / "critsense" / "cli.py").is_file():
        print(f"bench: no critsense sources under {SRC}", file=sys.stderr)
        return 2
    for k in THREAD_ENV:  # at most two threads: the MC pool, no BLAS pool
        os.environ[k] = "1"
    sys.path.insert(0, str(SRC))
    from critsense import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"bench: imported critsense from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    work = wl.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    config = OUT / f"mc-seed{args.seed}.json"
    config.write_text(json.dumps({**wl.MC_CONFIG, "seed": args.seed}))
    cmds = wl.commands(work.name, args.seed, str(config))

    if args.trace:
        metrics, records, info = run_traced(work, cmds, cli)
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics, records, info = run_untraced(work, cmds, cli, args.seconds)
        units = END_TO_END_UNITS

    problems = output_checks(records)
    if args.trace and info["missing_spans"]:
        problems.append("spans never reached: "
                        + ", ".join(info["missing_spans"]))
    failed = [r for r in records if r["failed"]]
    mach = machine()

    report = {
        "workload": work.name, "why": work.why, "seed": args.seed,
        "trace": args.trace, "machine": mach,
        "failed_frac": len(failed) / len(records),
        "unresolved_cells": sum(r["unresolved"] for r in records
                                if r["pass"] == 0),
        "failed_commands": sorted({f"{r['name']}: {r['reason']}"
                                   for r in failed}),
        "output_problems": problems,
        **{k: v for k, v in info.items() if k != "spans"},
    }
    print(f"workload {work.name} seed {args.seed} trace {args.trace}: "
          f"{json.dumps(mach)}")
    for k, v in metrics.items():
        print(f"  {k:32s} {v!r} {units[k]}")
    for k, unit in (("failed_frac", "1"), ("unresolved_cells", "count"),
                    ("mc_trials_per_s_t1", "1/s"),
                    ("mc_trials_per_s_t2", "1/s"),
                    ("mc_thread_speedup", "1")):
        if k in report:
            print(f"  {k:32s} {report[k]!r} {unit}")
    if not args.trace:
        print(f"  samples: {len(cmds)} commands, each the fastest of "
              f"{len(info['passes'])} passes; {len(info['setup_samples'])} "
              "setup probes")
    for line in report["failed_commands"]:
        print(f"  FAILED {line}")
    for line in problems:
        print(f"  CHECK {line}")

    (OUT / f"{work.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**report, "metrics": metrics, "commands": records,
                    "spans": info.get("spans", [])}))
    print(json.dumps({
        "correct": not problems, "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Every workload, each in a process of its own."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   choices=["all", *wl.WORKLOADS])
    p.add_argument("--seed", type=int, default=777)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
