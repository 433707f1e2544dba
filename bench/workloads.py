"""The benchmark's workloads: fixed CLI command lists, each command paired
with the outcome the mathematics predicts and a one-line reason.

A command *fails* when it raises an uncaught exception or when its outcome
differs from the prediction. Predictions state what the theory says, not
what the code does today, so known defects show up as failures.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Callable

# README Monte Carlo configuration; ``trials`` is sized so that one t1 plus
# one t2 command takes about 11 s on a 2-CPU Xeon, and so that a last
# frequency near its typical 0.96 seldom falls below 0.9 by chance.
MC_CONFIG = {"D": 1, "degree": 4, "amplitude": 1.0, "decay": 2.0,
             "noise": {"amplitude": 0.6, "decay": 1.5},
             "n_list": [10, 100, 1000], "trials": 80}

BOX = "box:-1,-1:1,1"


@dataclass
class Outcome:
    """What one CLI invocation produced."""

    rc: int | None          # exit code; None when the call raised
    stdout: str             # the artifact text, if any
    error: dict | None      # the structured error JSON from stderr
    raised: str | None      # "Type: message" of an uncaught exception

    def artifact(self) -> dict:
        return json.loads(self.stdout)


# A check returns None when the outcome matches the prediction, else a
# short description of the mismatch.
Check = Callable[[Outcome], "str | None"]


@dataclass
class Command:
    argv: list
    check: Check
    why: str

    @property
    def name(self) -> str:
        return " ".join(a for a in self.argv if a != "--gallery")


def _ok(out: Outcome) -> str | None:
    if out.raised:
        return f"raised {out.raised}"
    if out.rc != 0:
        err = (out.error or {}).get("type", "no artifact")
        return f"exit {out.rc} ({err})"
    return None


def _csv_rows(text: str) -> list:
    body = "".join(l for l in io.StringIO(text) if not l.startswith("#"))
    return list(csv.reader(io.StringIO(body)))[1:]


def classifies_as(*classes: str) -> Check:
    def check(out):
        bad = _ok(out)
        if bad:
            return bad
        res = out.artifact()["result"]
        got = [p["classification"] for p in res["points"]]
        if got != list(classes):
            return f"classified {got}, predicted {list(classes)}"
        if res["unresolved"]:
            return f"{len(res['unresolved'])} unresolved cells"
        return None
    return check


def balances(out: Outcome) -> str | None:
    if out.raised or out.rc not in (0, 1) or not out.stdout:
        return _ok(out)
    res = out.artifact()["result"]
    if not res["pass"]:
        return f"index total {res['total']} != Euler target {res['target']}"
    return None


def raises(kind: str) -> Check:
    def check(out):
        if out.raised:
            return f"raised {out.raised}"
        got = (out.error or {}).get("type")
        if out.rc != 1 or got != kind:
            return f"exit {out.rc} ({got}), predicted {kind}"
        return None
    return check


def quadratic_chart(dim: int) -> Check:
    """A quadratic's Morse chart is the identity: centre at the origin,
    zero residual, flow Lipschitz ratios inside the certified bounds."""
    def check(out):
        bad = _ok(out)
        if bad:
            return bad
        res = out.artifact()["result"]
        center, ver = res["chart"]["center"], res["verification"]
        if len(center) != dim or max(abs(c) for c in center) > 1e-9:
            return f"chart centre {center} is not the origin"
        if ver["residual_sup"] > 1e-9:
            return f"chart residual {ver['residual_sup']}"
        if not (ver["bilip_lo_bound"] - 1e-12 <= ver["bilip_lo"]
                and ver["bilip_hi"] <= ver["bilip_hi_bound"] + 1e-12):
            return "flow Lipschitz ratios outside the chart bounds"
        return None
    return check


def csv_rows(least: int) -> Check:
    def check(out):
        bad = _ok(out)
        if bad:
            return bad
        n = len(_csv_rows(out.stdout))
        return None if n >= least else f"{n} CSV rows, predicted >= {least}"
    return check


def pass_kind(kind: str) -> Check:
    def check(out):
        bad = _ok(out)
        if bad:
            return bad
        got = out.artifact()["result"]["kind"]
        return None if got == kind else f"pass is {got}, predicted {kind}"
    return check


def sequence_consistent(out: Outcome) -> str | None:
    bad = _ok(out)
    if bad:
        return bad
    res = out.artifact()["result"]
    problems = []
    unresolved = [r.get("unresolved") for r in res["rows"]]
    if any(u != 0 for u in unresolved):
        problems.append(f"unresolved cells per n: {unresolved}")
    if res["verdict"] != "consistent":
        problems.append(f"verdict {res['verdict']}")
    return "; ".join(problems) or None


def lists_gallery(out: Outcome) -> str | None:
    bad = _ok(out)
    if bad:
        return bad
    n = len(out.artifact()["result"])
    return None if n == 20 else f"{n} gallery entries, predicted 20"


def mc_frequencies(out: Outcome) -> str | None:
    """Agreement frequencies rise with n, the last to at least 0.9. Each
    is a binomial estimate, so a drop within two standard errors of the
    later estimate is sampling noise, not a contradiction."""
    bad = _ok(out)
    if bad:
        return bad
    per_n = out.artifact()["result"]["per_n"]
    if any(r["failed"] for r in per_n):
        return "failed trials"
    freqs = [r["frequency"] for r in per_n]
    for prev, r in zip(per_n, per_n[1:]):
        f = r["frequency"]
        slack = 2.0 * (f * (1.0 - f) / r["denominator"]) ** 0.5
        if f < prev["frequency"] - slack:
            return f"frequencies {freqs} fall as n grows"
    if freqs[-1] < 0.9:
        return f"last frequency {freqs[-1]} < 0.9"
    return None


# ---------------------------------------------------------------- #
# workload definitions
# ---------------------------------------------------------------- #

_CLASSIFY = [
    ("bowl", (), ("Min",), "x^2+y^2 has one nondegenerate minimum"),
    ("bowl3", (), ("Min",), "x^2+y^2+z^2 has one nondegenerate minimum"),
    ("dome", (), ("Max",), "-(x^2+y^2) has one nondegenerate maximum"),
    ("saddle", (), ("Saddle(2)",), "x^2-y^2: one saddle of index -1"),
    ("monkey", (), ("Saddle(3)",), "x^3-3xy^2: one monkey saddle, index -2"),
    ("undulation", (), ("Undulation",), "x^3+y^2: one zero of index 0"),
    ("tilt", (), (), "f = x has nowhere-vanishing gradient"),
    ("twogauss", (), ("Max", "Saddle(2)", "Max"),
     "two Gaussian peaks with a saddle between them"),
    ("twogauss_pit", (), ("Max", "Min", "Max"),
     "two peaks with a central pit"),
    ("fig13a", ("--n", "4"), ("Min", "Max", "Min"),
     "parabola plus a one-sided bump adds a max/min pair"),
    ("fig13b", ("--n", "4"), ("Saddle(2)", "Max", "Saddle(2)"),
     "saddle plus a bump: bump maximum and a companion saddle"),
    ("fig10", ("--n", "4"), ("Max", "Min", "Max"),
     "cap with a side bump: two maxima and the minimum between them"),
    ("fig4b", ("--n", "4"), ("Max", "Min") * 10,
     "f' = 1 + 4cos(16x) has 20 simple zeros on [-2, 2]"),
    ("fig4c", ("--n", "4"), ("Max", "Min"),
     "x^3 - x/16: zeros at -+1/(4 sqrt 3)"),
    ("fig8a", ("--n", "4"), ("Max",), "-exp(-1/(x^2+1/4)): one maximum"),
    ("trio", ("--n", "4"), ("Min", "Saddle(2)", "Min"),
     "double well: two minima and a saddle"),
]

_AUDIT_DEFAULT = [("bowl", ()), ("bowl3", ()), ("dome", ()), ("saddle", ()),
                  ("monkey", ()), ("undulation", ()), ("tilt", ()),
                  ("twogauss", ()), ("twogauss_pit", ()),
                  ("fig13b", ("--n", "4")), ("trio", ("--n", "4"))]
_AUDIT_BOX = ["bowl", "dome", "saddle", "monkey", "undulation", "tilt",
              "twogauss"]
_FAST_FAMILIES = ["fig10", "fig13a", "fig13b", "fig4b", "fig4c", "trio"]
_PH = "Poincare-Hopf: interior plus boundary index equals the Euler target"


def gallery_sweep(seed: int) -> list:
    """The interactive user's mix of short commands."""
    cmds = [Command(["classify", "--gallery", g, *n], classifies_as(*cls), why)
            for g, n, cls, why in _CLASSIFY]
    cmds.append(Command(["classify", "--gallery", "fig4a", "--n", "4"],
                        raises("NonIsolatedZeroError"),
                        "the plateau on [-1/4, 1/4] is a non-isolated zero"))
    cmds += [Command(["audit", "--gallery", g, *n], balances, _PH)
             for g, n in _AUDIT_DEFAULT]
    cmds += [Command(["audit", "--gallery", g, "--domain", BOX], balances,
                     _PH + " on the square (chi = 1)")
             for g in _AUDIT_BOX]
    for g, dim in (("bowl", 2), ("dome", 2), ("saddle", 2), ("bowl3", 3)):
        cmds.append(Command(["flow", "--gallery", g, "--seed", str(seed)],
                            quadratic_chart(dim),
                            "a quadratic's Morse chart is the identity"))
        cmds.append(Command(["flow", "--gallery", g, "--seed", str(seed),
                             "--format", "csv"], csv_rows(2),
                            "the RK4 trajectory has one row per step"))
    for g, kind, why in (
            ("twogauss", "InteriorCritical",
             "the lowest path crosses the interior saddle"),
            ("twogauss_pit", "BoundaryTangency",
             "the pit pushes the lowest path onto the boundary")):
        cmds.append(Command(["mountain", "--gallery", g], pass_kind(kind),
                            why))
        cmds.append(Command(["mountain", "--gallery", g, "--format", "csv"],
                            csv_rows(2), "one row per path knot"))
    cmds += [Command(["sequence", "--gallery", g, "--n", "4,16"],
                     sequence_consistent,
                     "C2 convergence to a Morse limit: counts settle, no "
                     "unresolved cells")
             for g in _FAST_FAMILIES]
    cmds.append(Command(["sequence", "--gallery", "fig4a", "--n", "4,16"],
                        raises("NonIsolatedZeroError"),
                        "the members' plateau is a non-isolated zero"))
    cmds.append(Command(["sequence", "--gallery", "fig8a", "--n", "4,16"],
                        raises("NonIsolatedZeroError"),
                        "the limit -exp(-1/x^2) is flat to every order: its "
                        "derivative is below 1e-16 on |x| < 0.15"))
    cmds.append(Command(["gallery"], lists_gallery, "twenty entries"))
    cmds.append(Command(["gallery", "--format", "csv"], csv_rows(20),
                        "twenty entries"))
    return cmds


def refine_heavy() -> list:
    """Refinement-bound commands, where ROADMAP item 3 acts."""
    return [
        # --grid 24 instead of the default 64: 60 of its 62 refinements
        # still fall through to the rescue (134 of 136 at 64), in under a
        # third of the time, so three passes fit the benchmark's budget
        Command(["classify", "--gallery", "peano", "--grid", "24"],
                classifies_as("Saddle(2)"),
                "(2x^2-y)(y-x^2) has one zero with four sign sectors, "
                "index -1"),
        Command(["sequence", "--gallery", "singlemax", "--n", "4"],
                sequence_consistent,
                "one interior maximum and no other zero; the C1 seam "
                "voids the counting hypothesis, so no contradiction"),
    ]


def montecarlo(seed: int, config_path: str) -> list:
    """The README Monte Carlo at one and then two worker threads."""
    return [Command(["montecarlo", "--config", config_path,
                     "--threads", t], mc_frequencies,
                    "the mean field converges, so agreement grows with n")
            for t in ("1", "2")]


@dataclass
class Workload:
    name: str
    why: str
    # at least this many passes, so every command repeats: the digest
    # check compares the repeats and the latency is the fastest of them
    min_passes: int
    # commands of well under a second, timed against the calibration task
    # (see ``run.py``)
    short_commands: bool
    # spans the traced run must see at least once
    required_spans: tuple


WORKLOADS = {
    "gallery_sweep": Workload(
        "gallery_sweep",
        "57 short interactive commands where refinement and Monte Carlo "
        "are cheap: the bypass case for those layers",
        2, True,
        ("fields.value", "fields.grad", "fields.hess", "domains.lattice",
         "gallery.build", "detect.find", "detect.refine", "detect.improper",
         "detect.boundary_grad", "homindex.hom_index", "homindex.winding",
         "homindex.classify", "homindex.boundary", "homindex.audit",
         "morse.classify", "morse.chart", "morse.flow", "morse.verify",
         "mountainpass.pass", "sequence.experiment", "sequence.ck",
         "sequence.match", "cli.main", "cli.dumps")),
    "refine_heavy": Workload(
        "refine_heavy",
        "peano (grid 24) and singlemax: refinement falls through to the "
        "trust-region rescue or leaves the domain",
        3, False,
        ("fields.grad", "fields.hess", "detect.find", "detect.refine",
         "detect.rescue", "sequence.experiment", "gallery.build",
         "cli.main", "cli.dumps")),
    "montecarlo": Workload(
        "montecarlo",
        "README Monte Carlo at 1 then 2 threads: Philox stream builds, "
        "tiny 1-d detections and the thread tax",
        2, False,
        ("fields.grad", "detect.find", "detect.refine", "morse.statistic",
         "randfield.mc", "randfield.trial", "randfield.mean_field",
         "randfield.limit_field", "cli.main", "cli.dumps")),
}


def commands(name: str, seed: int, config_path: str) -> list:
    if name == "gallery_sweep":
        return gallery_sweep(seed)
    if name == "refine_heavy":
        return refine_heavy()
    return montecarlo(seed, config_path)
