"""Golden CLI artifacts, compared byte for byte.

Every command in ``COMMANDS`` runs in process through ``cli.main`` with
``tests/golden`` as the working directory, because the Monte Carlo
artifacts echo their relative ``--config`` path. Its exit code, stdout
and stderr must equal ``<name>.rc``, ``<name>.out`` and ``<name>.err``
there, byte for byte. This is the gate for refactors that must not move
any artifact.

``python tests/test_golden.py`` rewrites the goldens from this command
list; review the diff before committing it.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import sys
import warnings
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"

COMMANDS = {
    "classify_bowl3": ["classify", "--gallery", "bowl3"],
    "classify_twogauss": ["classify", "--gallery", "twogauss"],
    "classify_tilt": ["classify", "--gallery", "tilt"],
    "classify_fig13a_csv": ["classify", "--gallery", "fig13a", "--n", "4",
                            "--format", "csv"],
    "classify_fig10": ["classify", "--gallery", "fig10", "--n", "4"],
    "classify_fig4b": ["classify", "--gallery", "fig4b", "--n", "4"],
    "classify_fig4c": ["classify", "--gallery", "fig4c", "--n", "4"],
    "classify_fig8a": ["classify", "--gallery", "fig8a", "--n", "4"],
    "classify_fig4a": ["classify", "--gallery", "fig4a", "--n", "4"],
    "classify_saddle_point": ["classify", "--gallery", "saddle", "--point",
                              "0,0", "--eps", "0.1"],
    "classify_bowl_point": ["classify", "--gallery", "bowl", "--point",
                            "0.1,0.2"],
    "classify_bowl3_point": ["classify", "--gallery", "bowl3", "--point",
                             "0,0,0"],
    "classify_fig4a_point": ["classify", "--gallery", "fig4a", "--n", "4",
                             "--point", "0", "--eps", "0.1"],
    "classify_saddle_point_csv": ["classify", "--gallery", "saddle",
                                  "--point", "0,0", "--eps", "0.1",
                                  "--format", "csv"],
    "audit_monkey": ["audit", "--gallery", "monkey"],
    "audit_bowl": ["audit", "--gallery", "bowl"],
    "audit_bowl3": ["audit", "--gallery", "bowl3"],
    # both sphere zeros on the seam of the two stereographic charts, with
    # no perturbation
    "audit_bowl3_shifted": ["audit", "--gallery", "bowl3", "--domain",
                            "ball:0.3,0,0:1"],
    "audit_fig13a": ["audit", "--gallery", "fig13a", "--n", "4"],
    "audit_saddle_box_csv": ["audit", "--gallery", "saddle", "--domain",
                             "box:-1,-1:1,1", "--format", "csv"],
    # no interior zero: the corners (0.5, 0.5) and (2, 2) carry the total
    "audit_bowl_box_corners": ["audit", "--gallery", "bowl", "--domain",
                               "box:0.5,0.5:2,2"],
    "flow_bowl3": ["flow", "--gallery", "bowl3", "--seed", "777"],
    "flow_saddle_csv": ["flow", "--gallery", "saddle", "--seed", "777",
                        "--format", "csv"],
    # a radius below the cap, so the radius bisection runs
    "flow_twogauss_point": ["flow", "--gallery", "twogauss", "--point",
                            "0.4,0", "--seed", "777"],
    # an off-diagonal Hessian, where FMA and summation order can show
    "flow_trio": ["flow", "--gallery", "trio", "--n", "4", "--seed", "777"],
    # a non-default RK4 step, through the trajectory
    "flow_trio_step_csv": ["flow", "--gallery", "trio", "--n", "4",
                           "--point", "1,0", "--ode-step", "0.01",
                           "--sample", "0.005,0", "--format", "csv"],
    # a 1-d flow, through the elementwise 1-d wrapper
    "flow_fig10_csv": ["flow", "--gallery", "fig10", "--n", "4", "--seed",
                       "777", "--format", "csv"],
    # a 2-d flow on a bump-based field
    "flow_fig13b": ["flow", "--gallery", "fig13b", "--n", "4", "--seed",
                    "777"],
    "mountain_twogauss": ["mountain", "--gallery", "twogauss"],
    "mountain_twogauss_pit_csv": ["mountain", "--gallery", "twogauss_pit",
                                  "--format", "csv"],
    "mountain_twogauss_box": ["mountain", "--gallery", "twogauss",
                              "--domain", "box:-1,-1:1,1"],
    # a boundary certificate: p3, c and the alignment of the tangency
    "mountain_twogauss_pit": ["mountain", "--gallery", "twogauss_pit"],
    "mountain_twogauss_pit_box": ["mountain", "--gallery", "twogauss_pit",
                                  "--domain", "box:-0.9,-0.5:0.9,0.5"],
    "sequence_fig4c_csv": ["sequence", "--gallery", "fig4c", "--n", "4,16",
                           "--format", "csv"],
    "sequence_fig10": ["sequence", "--gallery", "fig10", "--n", "4,16"],
    # C^k distances through the bump's value, gradient and Hessian
    "sequence_fig13b": ["sequence", "--gallery", "fig13b", "--n", "4,16"],
    # C^k distances and improper extrema on a box lattice
    "sequence_trio": ["sequence", "--gallery", "trio", "--n", "4,16"],
    # the one sequence family on a disk, so the lattice's inside mask counts
    "sequence_twist": ["sequence", "--gallery", "twist", "--n", "4,16"],
    # the refine_heavy sequence command, a five-branch bump field
    "sequence_singlemax": ["sequence", "--gallery", "singlemax", "--n", "4"],
    "gallery_json": ["gallery"],
    "gallery_csv": ["gallery", "--format", "csv"],
    # --threads has no effect, but the config block echoes a given flag, so
    # these goldens hold "threads": 1; the pin keeps that echo covered
    "montecarlo_d1": ["montecarlo", "--config", "mc_d1.json", "--grid", "64",
                      "--threads", "1"],
    "montecarlo_d2": ["montecarlo", "--config", "mc_d2.json", "--grid", "16",
                      "--threads", "1"],
    "montecarlo_d1_csv": ["montecarlo", "--config", "mc_d1.json", "--grid",
                          "64", "--format", "csv"],
    # the README config at its default grid (512) up to n = 1000, cut to
    # four trials
    "montecarlo_readme": ["montecarlo", "--config", "mc_readme.json"],
}

STREAMS = ("rc", "out", "err")


def run_command(argv: list[str]) -> tuple[dict[str, bytes], list]:
    """Exit code, stdout and stderr of one in-process CLI run, and the
    warnings it raised."""
    from critsense.cli import main

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        # warnings are recorded, not printed: where they go depends on the
        # process-wide filter state, so they stay out of the streams
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            rc = main(list(argv))
    finally:
        os.chdir(cwd)
    return {"rc": f"{rc}\n".encode(), "out": out.getvalue().encode(),
            "err": err.getvalue().encode()}, caught


def first_difference(want: bytes, got: bytes) -> str:
    pairs = itertools.zip_longest(want.decode().splitlines(keepends=True),
                                  got.decode().splitlines(keepends=True))
    for lineno, (a, b) in enumerate(pairs, start=1):
        if a != b:
            return f"line {lineno}: expected {a!r}, got {b!r}"
    return "no line differs"


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_artifact(name):
    got, caught = run_command(COMMANDS[name])
    for stream in STREAMS:
        want = (GOLDEN / f"{name}.{stream}").read_bytes()
        assert got[stream] == want, (
            f"critsense {' '.join(COMMANDS[name])}: {stream} differs from "
            f"{name}.{stream}, {first_difference(want, got[stream])}")
    # numpy reports overflow and invalid operations as RuntimeWarnings
    numpy_warnings = [str(w.message) for w in caught
                      if issubclass(w.category, RuntimeWarning)]
    assert not numpy_warnings, (
        f"critsense {' '.join(COMMANDS[name])} warned: {numpy_warnings}")


def test_every_subcommand_has_json_and_csv_goldens():
    subcommands = ("classify", "audit", "flow", "mountain", "sequence",
                   "montecarlo", "gallery")
    formats = {(argv[0], "csv" if "csv" in argv else "json")
               for argv in COMMANDS.values()}
    missing = [(cmd, fmt) for cmd in subcommands for fmt in ("json", "csv")
               if (cmd, fmt) not in formats]
    assert not missing, f"no golden for {missing}"


def regenerate() -> None:
    for name, argv in sorted(COMMANDS.items()):
        for stream, data in run_command(argv)[0].items():
            (GOLDEN / f"{name}.{stream}").write_bytes(data)
        print(f"wrote {name}")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    regenerate()
