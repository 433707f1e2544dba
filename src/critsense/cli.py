"""Command line frontend.

Subcommands: classify, audit, flow, mountain, sequence, montecarlo,
gallery. Each builds one artifact, with the effective config and toolkit
version, and hands it to ``_write``, the one writer: JSON (default) with
every float in 17 significant digits, or for ``--format csv`` a table
under a commented preamble. Artifacts are byte-identical across runs with
the same config.

Exit codes: 0 success, 1 numeric failure (structured error JSON on
stderr; a failed index audit also exits 1), 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from dataclasses import asdict
from fractions import Fraction

import numpy as np

from . import __version__, detect
from .domains import Ball, Box, Domain, Interval
from .errors import CritsenseError, PreconditionError, UsageError
from .gallery import catalogue, entry as gallery_entry, gallery
from .homindex import classify_by_index, poincare_hopf_audit, probe_radius
from .morse import check_ode_step, make_chart, verify_morse_chart
from .mountainpass import mountain_pass_point
from .randfield import BasisSpec, monte_carlo_convergence
from .sequence import convergence_experiment, counts_from_points

_FLOAT_FMT = ".17g"


def _json(o, indent, level=0) -> str:
    """JSON text of ``o``: keys sorted, finite floats in 17 significant
    digits, ``indent`` spaces per level, or one line with ``", "`` and
    ``": "`` separators when ``indent`` is None. Numpy scalars and arrays
    become Python values; a Fraction becomes ``"n/d"``."""
    if o is None:
        return "null"
    if isinstance(o, bool):
        return "true" if o else "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, np.generic):
        o = o.item()
    elif isinstance(o, np.ndarray):
        o = o.tolist()
    elif isinstance(o, Fraction):
        o = f"{o.numerator}/{o.denominator}"
    if isinstance(o, float) and math.isfinite(o):
        return format(o, _FLOAT_FMT)
    if isinstance(o, dict):
        brackets = "{}"
        items = [json.dumps(k if isinstance(k, str) else _json(k, None))
                 + ": " + _json(v, indent, level + 1)
                 for k, v in sorted(o.items())]
    elif isinstance(o, (list, tuple)):
        brackets = "[]"
        items = [_json(v, indent, level + 1) for v in o]
    else:
        return json.dumps(o)
    if not items:
        return brackets
    if indent is None:
        return brackets[0] + ", ".join(items) + brackets[1]
    pad = "\n" + " " * (indent * level)
    inner = pad + " " * indent
    return brackets[0] + inner + ("," + inner).join(items) + pad + brackets[1]


def dumps(obj) -> str:
    """Artifact JSON: two-space indent, sorted keys, 17-digit floats."""
    return _json(obj, 2)


def _cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return format(float(v), _FLOAT_FMT)
    if v is None:
        return ""
    return str(v)


def parse_domain(text: str) -> Domain:
    """`interval:a,b` | `box:lo1,lo2:hi1,hi2` | `ball:cx,cy:r`."""
    kind, _, rest = text.partition(":")
    try:
        if kind == "interval":
            a, b = (float(t) for t in rest.split(","))
            return Interval(a, b)
        if kind == "box":
            lo_s, hi_s = rest.split(":")
            lo = [float(t) for t in lo_s.split(",")]
            hi = [float(t) for t in hi_s.split(",")]
            return Box(lo, hi)
        if kind == "ball":
            c_s, r_s = rest.split(":")
            center = [float(t) for t in c_s.split(",")]
            return Ball(center, float(r_s))
    except (ValueError, CritsenseError) as err:
        raise UsageError(f"bad domain spec {text!r}: {err}") from None
    raise UsageError(f"unknown domain kind {kind!r} "
                     "(expected interval, box, or ball)")


def _point(text: str, dim: int) -> np.ndarray:
    """Comma-separated finite coordinates of a point in the field's
    dimension."""
    try:
        z = np.array([float(t) for t in text.split(",")])
    except ValueError:
        raise UsageError(f"expected comma-separated reals, got {text!r}")
    if len(z) != dim:
        raise UsageError(f"point {text!r} has dimension {len(z)}; the "
                         f"field has dimension {dim}")
    if not np.isfinite(z).all():
        raise UsageError(f"point {text!r} has a non-finite coordinate")
    return z


def _positive(value, fallback, flag: str):
    """An option's value, or ``fallback`` when the option is not given.
    A given value must be positive and finite."""
    if value is None:
        return fallback
    if not 0 < value < math.inf:
        raise UsageError(f"{flag} must be positive and finite", value=value)
    return value


def _resolve(args):
    ent = gallery_entry(args.gallery)
    field = gallery(args.gallery, args.n)
    dom = parse_domain(args.domain) if args.domain else ent.domain
    return ent, field, dom


def _config(args, **extra) -> dict:
    cfg = {k: v for k, v in vars(args).items()
           if k not in ("func", "out") and v is not None}
    cfg.update(extra)
    return cfg


def _artifact(command: str, args, result, **extra) -> dict:
    return {"command": command, "version": __version__,
            "config": _config(args, **extra), "result": result}


def _coords(dim: int) -> list:
    return [f"x{i + 1}" for i in range(dim)]


def _keyed(header, records, extra=()):
    """A ``table`` whose rows hold each record's values under ``header``."""
    return lambda: (header, [[r[k] for k in header] for r in records], extra)


def _write(args, art, table, rc=0) -> int:
    """The one artifact writer: ``art`` as JSON or, for ``--format csv``,
    ``table()`` = (header, rows, extra preamble) under the artifact's
    commented preamble, to ``--out`` or stdout. Returns ``rc``."""
    if args.format == "csv":
        header, rows, extra = table()
        buf = io.StringIO()
        for k, v in [("command", art["command"]),
                     ("version", art["version"]),
                     ("config", _json(art["config"], None)), *extra]:
            buf.write(f"# {k}: {v}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)
        text = buf.getvalue()
    else:
        text = dumps(art) + "\n"
    if not args.out:
        sys.stdout.write(text)
        return rc
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as err:
        raise UsageError(f"cannot write --out {args.out!r}: "
                         f"{err.strerror}") from None
    return rc


# ---------------------------------------------------------------- #
# subcommands
# ---------------------------------------------------------------- #

def _cmd_classify(args) -> int:
    ent, field, dom = _resolve(args)
    grid = _positive(args.grid, 1024 if ent.dim == 1 else 64, "--grid")
    tol = _positive(args.tol, 1e-9, "--tol")
    cols = ["value", "morse_index", "hom_index", "classification",
            "near_boundary"]
    if args.point:
        z = _point(args.point, field.dim)
        probe = _positive(args.eps, None, "--eps")
        if probe is None:
            if dom.boundary_distance(z) <= 0:
                raise UsageError("--point is not inside the domain; "
                                 "give --eps")
            probe = probe_radius(z, (), dom)
        if np.linalg.norm(field.grad(z)) > tol:
            idx, cls = None, "Regular"
        else:
            idx, cls = classify_by_index(field, z, probe)
        result = {"point": {"location": z, "hom_index": idx,
                            "classification": cls}}
        rows = [(*z, None, None, idx, cls, False)]
    else:
        pts = detect.find_critical_points(field, dom, grid_res=grid,
                                          newton_tol=tol)
        result = {"points": [p.as_record() for p in pts],
                  "counts": counts_from_points(pts),
                  "unresolved": pts.unresolved}
        rows = [(*r["location"], *(r[k] for k in cols))
                for r in result["points"]]
    art = _artifact("classify", args, result, grid=grid, tol=tol)
    return _write(args, art, lambda: (_coords(field.dim) + cols, rows, []))


def _cmd_audit(args) -> int:
    ent, field, dom = _resolve(args)
    grid = _positive(args.grid, 1024 if ent.dim == 1 else 48, "--grid")
    tol = _positive(args.tol, 1e-9, "--tol")
    res = poincare_hopf_audit(field, dom, grid_res=grid, newton_tol=tol)
    rec = res.as_record()
    art = _artifact("audit", args, rec, grid=grid, tol=tol)
    return _write(args, art, lambda: (
        _coords(ent.dim) + ["index", "weight"],
        [(*p["location"], p["index"], p["weight"]) for p in rec["per_point"]],
        [("total", rec["total"]), ("target", rec["target"]),
         ("pass", _cell(res.passed))]), 0 if res.passed else 1)


def _cmd_flow(args) -> int:
    ent, field, dom = _resolve(args)
    tol = _positive(args.tol, 1e-9, "--tol")
    ode_step = _positive(args.ode_step, 1e-3, "--ode-step")
    check_ode_step(ode_step)  # before the refinement and the chart search
    lo, hi = dom.bounding_box()
    seed_pt = (_point(args.point, field.dim) if args.point
               else 0.5 * (lo + hi))
    center = detect.refine_newton(field, seed_pt, tol=tol)
    cap = float(dom.boundary_distance(center))
    if cap <= 0:
        raise PreconditionError("refined critical point is not inside the "
                                "domain", center=center, boundary_distance=cap)
    chart = make_chart(field, center, search_cap=cap, ode_step=ode_step)
    path = None
    if args.format == "csv":
        # the trajectory is one more row of the verification batch
        path = np.empty((chart.n_steps + 1, ent.dim))
        path[0] = center + (_point(args.sample, field.dim) if args.sample
                            else 0.5 * chart.radius * np.eye(ent.dim)[0])
    ver = verify_morse_chart(field, chart, seed=args.seed, path=path)
    result = {"chart": chart.as_record(), "verification": ver}
    art = _artifact("flow", args, result, tol=tol, ode_step=ode_step)
    return _write(args, art, lambda: (
        ["t"] + _coords(ent.dim),
        [(t, *p) for t, p in zip(np.linspace(0.0, 1.0, len(path)), path)],
        []))


def _two_peaks(field, dom, grid, tol):
    pts = detect.find_critical_points(field, dom, grid_res=grid,
                                      newton_tol=tol)
    maxima = sorted((p for p in pts if p.classification == "Max"),
                    key=lambda p: -p.value)
    if len(maxima) < 2:
        raise PreconditionError("need two local maxima for a pass search",
                                found=len(maxima))
    return maxima[0].location, maxima[1].location


def _cmd_mountain(args) -> int:
    ent, field, dom = _resolve(args)
    grid = _positive(args.grid, 64, "--grid")
    tol = _positive(args.tol, 1e-6, "--tol")
    if args.p1 and args.p2:
        p1, p2 = _point(args.p1, field.dim), _point(args.p2, field.dim)
    elif args.p1 or args.p2:
        raise UsageError("give both --p1 and --p2, or neither")
    else:
        p1, p2 = _two_peaks(field, dom, grid, min(tol, 1e-9))
    res = mountain_pass_point(field, dom, p1, p2, grid_res=grid,
                              pass_tol=tol)
    art = _artifact("mountain", args, asdict(res), grid=grid, tol=tol,
                    p1=p1, p2=p2)
    return _write(args, art, lambda: (
        ["knot"] + _coords(ent.dim) + ["f"],
        [(i, *k, v) for i, (k, v) in
         enumerate(zip(res.path, field.value(res.path)))], []))


def _cmd_sequence(args) -> int:
    try:
        n_list = [int(t) for t in args.n.split(",")]
    except ValueError:
        raise UsageError(f"--n expects comma-separated integers, "
                         f"got {args.n!r}") from None
    dom = parse_domain(args.domain) if args.domain else None
    rep = convergence_experiment(args.gallery, n_list, domain=dom,
                                 grid_res=args.grid,
                                 newton_tol=_positive(args.tol, 1e-9, "--tol"))
    header = ["n", "N_C", "N_M", "N_m", "N_S", "N_und", "N_unclassified",
              "N_IM", "N_Im", "d0", "d1", "d2", "resolution",
              "boundary_min_gradient", "matched", "unmatched_n",
              "unmatched_limit", "multi_match", "unresolved"]
    rows = [{**r, **r["counts"]} for r in rep.rows]
    return _write(args, _artifact("sequence", args, asdict(rep)),
                  _keyed(header, rows, [("verdict", rep.verdict)]))


def _load_mc_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as err:
        raise UsageError(f"cannot read config file: {err}")
    except json.JSONDecodeError as err:
        raise UsageError(f"config file is not valid JSON: {err}")
    if not isinstance(cfg, dict):
        raise UsageError("config file must hold a JSON object")
    for key in ("D", "degree", "noise", "n_list", "trials", "seed"):
        if key not in cfg:
            raise UsageError(f"config missing required key {key!r}")
    noise = cfg["noise"]
    if not isinstance(noise, dict) or "amplitude" not in noise:
        raise UsageError("config key 'noise' must be an object with "
                         "at least 'amplitude'")
    if not isinstance(cfg["n_list"], list) or not cfg["n_list"]:
        raise UsageError("config key 'n_list' must be a non-empty list")
    return cfg


def _cmd_montecarlo(args) -> int:
    cfg = _load_mc_config(args.config)
    noise_cfg = cfg["noise"]

    # JSON true/false are Python bools, which int() and float() accept;
    # float() also parses numeric strings
    def real(key, value) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError(f"{key} must be a number, got {value!r}")
        return float(value)

    def whole(key, value) -> int:
        n = int(value)
        if isinstance(value, bool) or n != value:
            raise ValueError(f"{key} must be a whole number, got {value!r}")
        return n
    try:
        dim, degree = whole("D", cfg["D"]), whole("degree", cfg["degree"])
        spec = BasisSpec(dim=dim, degree=degree,
                         amplitude=real("amplitude",
                                        cfg.get("amplitude", 1.0)),
                         decay=real("decay", cfg.get("decay", 2.0)))
        noise_degree = whole("noise.degree", noise_cfg.get("degree", degree))
        noise = BasisSpec(dim=dim, degree=noise_degree,
                          amplitude=real("noise.amplitude",
                                         noise_cfg["amplitude"]),
                          decay=real("noise.decay",
                                     noise_cfg.get("decay", 2.0)))
        n_list = [whole("n_list", n) for n in cfg["n_list"]]
        trials = whole("trials", cfg["trials"])
        seed = args.seed if args.seed is not None else \
            whole("seed", cfg["seed"])
    except (TypeError, ValueError, OverflowError) as err:
        raise UsageError(f"config values must be numbers: {err}") from None
    rep = monte_carlo_convergence(spec, noise, n_list, trials=trials,
                                  seed=seed, grid_res=args.grid)
    header = ["n", "frequency", "matches", "denominator",
              "excluded_hypothesis", "failed", "min_R_hat",
              "median_R_gap", "tv_distance_N_M"]
    return _write(args, _artifact("montecarlo", args, rep, seed=seed),
                  _keyed(header, rep["per_n"]))


def _cmd_gallery(args) -> int:
    rows = catalogue()
    header = ["name", "dim", "family", "origin", "domain", "note"]
    return _write(args, _artifact("gallery", args, rows),
                  _keyed(header, rows))


# ---------------------------------------------------------------- #
# parser
# ---------------------------------------------------------------- #

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="critsense",
        description="Critical point detection, index audits, Morse "
                    "charts, mountain passes, and convergence labs.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, grid=True):
        sp.add_argument("--gallery", required=True,
                        help="gallery field name (see the gallery command)")
        sp.add_argument("--domain", help="interval:a,b | "
                        "box:lo1,lo2:hi1,hi2 | ball:cx,cy:r")
        if grid:
            sp.add_argument("--grid", type=int,
                            help="detection grid resolution")
        sp.add_argument("--tol", type=float, help="refinement tolerance")
        sp.add_argument("--out", help="write the artifact to this path")
        sp.add_argument("--format", choices=("json", "csv"), default="json")

    sp = sub.add_parser("classify", help="detect and classify critical "
                        "points, or classify one --point")
    common(sp)
    sp.add_argument("--n", type=int, default=1, help="family member index")
    sp.add_argument("--point", help="classify this point only (x,y)")
    sp.add_argument("--eps", type=float, help="probe radius for --point")
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("audit", help="Poincare-Hopf index audit")
    common(sp)
    sp.add_argument("--n", type=int, default=1)
    sp.set_defaults(func=_cmd_audit)

    sp = sub.add_parser("flow", help="Morse chart at a critical point, "
                        "with optional trajectory CSV")
    common(sp, grid=False)
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--point", help="Newton seed (defaults to the domain "
                    "center)")
    sp.add_argument("--ode-step", type=float, help="RK4 step in t")
    sp.add_argument("--sample", help="offset from the center for the "
                    "trajectory (csv format)")
    sp.add_argument("--seed", type=int, default=0,
                    help="verification sample seed")
    sp.set_defaults(func=_cmd_flow)

    sp = sub.add_parser("mountain", help="mountain pass between two maxima")
    common(sp)
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--p1", help="first peak (x,y); auto-detected if "
                    "omitted")
    sp.add_argument("--p2", help="second peak (x,y)")
    sp.set_defaults(func=_cmd_mountain)

    sp = sub.add_parser("sequence", help="family-vs-limit convergence "
                        "report")
    common(sp)
    sp.add_argument("--n", default="4,16,64",
                    help="comma-separated member indices")
    sp.set_defaults(func=_cmd_sequence)

    sp = sub.add_parser("montecarlo", help="random-field count agreement "
                        "frequencies")
    sp.add_argument("--config", required=True,
                    help="JSON file: D, degree, decay, amplitude, noise "
                    "{amplitude, degree, decay}, n_list, trials, seed")
    sp.add_argument("--threads", type=int,
                    help="no effect: trials always run one after another "
                    "(kept so existing scripts still parse)")
    sp.add_argument("--grid", type=int)
    sp.add_argument("--seed", type=int, help="override the config seed")
    sp.add_argument("--out")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.set_defaults(func=_cmd_montecarlo)

    sp = sub.add_parser("gallery", help="list the field catalogue")
    sp.add_argument("--out")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.set_defaults(func=_cmd_gallery)
    return p


_POINT_FLAGS = ("--point", "--sample", "--p1", "--p2")


def _join_negative_points(argv) -> list:
    """argparse reads a token like ``-0.4,0`` as an option, so a point
    flag followed by one becomes the single token ``--p2=-0.4,0``."""
    out = []
    for tok in argv:
        if out and out[-1] in _POINT_FLAGS and re.match(r"-[\d.]", tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_points(
        sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except CritsenseError as err:
        sys.stderr.write(dumps({"error": {
            **err.record(), "message": str(err)}}) + "\n")
        return 2 if isinstance(err, UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())
