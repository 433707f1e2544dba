"""C^k distances, critical point matching, and convergence experiments.

Measures how a gallery family approaches its limit: sup-norm distances
of values and derivatives, per-member critical point counts, pairwise
matching against the limit's points, and a verdict on whether the
counting theorems' hypotheses and conclusions hold at the tested n.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field as _dcfield

import numpy as np

from . import detect
from .domains import Domain
from .errors import UsageError
from .fields import ScalarField, near_pairs, sup_spectral_norm
from .gallery import entry as gallery_entry, gallery, limit_field

# counting-theorem hypotheses, shared with randfield's Monte Carlo trials
HYPOTHESIS_BOUNDARY_TOL = 1e-4
HYPOTHESIS_RESOLUTION_TOL = 1e-3


def ck_distance(f: ScalarField, g: ScalarField, domain: Domain,
                grid_res: int = 128, *, on_lattice=None) -> tuple:
    """Sup distances (d0, d1, d2) over the lattice nodes inside the
    domain: values, Euclidean gradient gap, and spectral Hessian gap by
    :func:`~critsense.fields.sup_spectral_norm`.

    ``on_lattice``, if given, is ``(inside, f_jet, g_jet)``: the
    ``domain.contains`` mask and both fields' order-2 jets on
    ``domain.lattice(grid_res)``, which a caller that has already
    evaluated the fields there passes in instead of evaluating them
    again."""
    if on_lattice is None:
        lat = domain.lattice(grid_res)
        on_lattice = (domain.contains(lat), f.jet(lat, 2), g.jet(lat, 2))
    inside, f_jet, g_jet = on_lattice
    inside = np.asarray(inside)
    whole = bool(inside.all())

    def gap(k):  # one part's difference at the nodes inside, made on use
        diff = f_jet[k] - g_jet[k]
        return diff if whole else diff[inside]

    return (float(np.max(np.abs(gap(0)))),
            float(np.max(np.linalg.norm(gap(1), axis=-1))),
            sup_spectral_norm(gap(2)))


# ---------------------------------------------------------------- #
# matching
# ---------------------------------------------------------------- #

@dataclass
class Matching:
    pairs: list            # (i_n, i_limit, distance)
    unmatched_n: list      # indices into pts_n
    unmatched_limit: list  # indices into pts_limit
    multi_match: bool
    radius: float
    index_agreement: list  # per pair: {"hom": bool|None, "morse": bool|None}

    @property
    def bijective(self) -> bool:
        return not self.unmatched_n and not self.unmatched_limit

    def as_record(self) -> dict:
        return {
            "pairs": [(int(i), int(j), float(d)) for i, j, d in self.pairs],
            "unmatched_n": [int(i) for i in self.unmatched_n],
            "unmatched_limit": [int(i) for i in self.unmatched_limit],
            "multi_match": self.multi_match,
            "radius": self.radius,
            "bijective": self.bijective,
            "index_agreement": self.index_agreement,
        }


def match_critical_points(pts_n, pts_limit, radius: float | None = None,
                          domain: Domain | None = None) -> Matching:
    """Greedy nearest-pair matching under a radius cap.

    Candidate pairs are ordered by distance with a lexicographic tie
    break on the sorted location pair, so match(A, B) and match(B, A)
    agree. MultiMatch flags a limit point with two or more family points
    inside its radius: a resolution-assumption violation witness.
    """
    locs_n = detect.locations(pts_n)
    locs_l = detect.locations(pts_limit)
    if radius is None:
        cap = domain.diameter / 10.0 if domain is not None else np.inf
        radius = min(detect.resolution(pts_limit) / 2.0, cap)
    if not radius > 0:
        raise UsageError("matching radius must be positive")
    i_n, i_l, dist = near_pairs(locs_n, locs_l, radius)
    cands = sorted((d, *sorted([tuple(locs_n[i]), tuple(locs_l[j])]), i, j)
                   for i, j, d in zip(i_n.tolist(), i_l.tolist(),
                                      dist.tolist()))
    used_n, used_l, pairs = set(), set(), []
    for d, _, _, i, j in cands:
        if i not in used_n and j not in used_l:
            used_n.add(i)
            used_l.add(j)
            pairs.append((i, j, d))
    multi = bool(np.bincount(i_l).max(initial=0) >= 2)

    def same(i, j, key):  # None where either index is missing
        a, b = (getattr(p, f"{key}_index", None)
                for p in (pts_n[i], pts_limit[j]))
        return None if a is None or b is None else bool(a == b)

    agree = [{k: same(i, j, k) for k in ("hom", "morse")} for i, j, _ in pairs]
    return Matching(
        pairs=pairs,
        unmatched_n=sorted(set(range(len(locs_n))) - used_n),
        unmatched_limit=sorted(set(range(len(locs_l))) - used_l),
        multi_match=multi,
        radius=float(radius),
        index_agreement=agree,
    )


# ---------------------------------------------------------------- #
# counting
# ---------------------------------------------------------------- #

def counts_from_points(points) -> dict:
    cls = [p.classification for p in points]
    n = {k: cls.count(k) for k in ("Max", "Min", "Undulation")}
    n_sad = sum(c.startswith("Saddle") for c in cls)
    hom = Counter("unavailable" if p.hom_index is None
                  else str(int(p.hom_index)) for p in points)
    morse = Counter("degenerate" if p.morse_index is None
                    else str(int(p.morse_index)) for p in points)
    return {
        "N_C": len(points),
        "N_M": n["Max"],
        "N_m": n["Min"],
        "N_S": n_sad,
        "N_und": n["Undulation"],
        "N_unclassified": len(points) - sum(n.values()) - n_sad,
        "hom": dict(sorted(hom.items())),
        "morse": dict(sorted(morse.items())),
    }


# the lattice of the C^k distances, and of the 2-d improper extrema
_CK_GRID = 256


def _detect_and_count(field: ScalarField, domain: Domain, grid_res: int,
                      imp_res: int, newton_tol: float = 1e-9, lattice=None):
    """Detected points; their counts plus the improper extrema
    ``N_IM``/``N_Im`` on an ``imp_res`` lattice; and, given ``lattice =
    (nodes, inside)`` on the ``_CK_GRID`` lattice, the field's order-2 jet
    there (else None).

    The jet is made after the detection, so that no jet of the field is
    alive during it. When ``imp_res`` is ``_CK_GRID`` (2-d), its values
    serve the improper extrema."""
    pts = detect.find_critical_points(field, domain, grid_res=grid_res,
                                      newton_tol=newton_tol)
    counts = counts_from_points(pts)
    jet = on_lattice = None
    if lattice is not None:
        jet = field.jet(lattice[0], 2)
        if imp_res == _CK_GRID:
            on_lattice = (lattice[1], jet[0])
    imp = detect.improper_extrema(field, domain, grid_res=imp_res,
                                  on_lattice=on_lattice)
    counts["N_IM"] = imp["n_improper_max"]
    counts["N_Im"] = imp["n_improper_min"]
    return pts, counts, jet


def _default_grid(dim: int, n: int) -> int:
    if dim == 1:
        return max(1024, 32 * n)
    return max(64, 16 * n)


@dataclass
class SequenceReport:
    family: str
    n_list: list
    rows: list = _dcfield(default_factory=list)
    limit_counts: dict = _dcfield(default_factory=dict)
    limit_resolution: float = float("inf")
    hypothesis: dict = _dcfield(default_factory=dict)
    conclusion: dict = _dcfield(default_factory=dict)
    verdict: str = ""


def convergence_experiment(family: str, n_list, domain: Domain | None = None,
                           grid_res: int | None = None,
                           newton_tol: float = 1e-9) -> SequenceReport:
    """Per-n counts, distances, and matchings against the family limit,
    with a consistency verdict.

    The verdict is "inconsistent" only when the counting theorems'
    hypotheses hold numerically (boundary gradient and resolution above
    the documented thresholds) yet the count conclusions fail at the
    largest n; every other combination is "consistent".
    """
    ent = gallery_entry(family)
    if ent.limit is None:
        raise UsageError("family has no documented limit",
                         family=ent.name)
    dom = domain if domain is not None else ent.domain
    # one evaluation of each field on one lattice serves the C^k
    # distances and, in 2-d, the improper extrema as well
    lat = dom.lattice(_CK_GRID)
    lattice = (lat, np.asarray(dom.contains(lat)))
    imp_res = 4096 if ent.dim == 1 else _CK_GRID

    f_limit = limit_field(ent.name)
    lim_res = grid_res if grid_res is not None else _default_grid(ent.dim, 16)
    pts_limit, limit_counts, lim_jet = _detect_and_count(
        f_limit, dom, lim_res, imp_res, newton_tol, lattice)
    limit_resolution = detect.resolution(pts_limit)

    rows = []
    for n in n_list:
        f_n = gallery(ent.name, n)
        res = grid_res if grid_res is not None else _default_grid(ent.dim, n)
        pts, counts, jet = _detect_and_count(f_n, dom, res, imp_res,
                                             newton_tol, lattice)
        d = ck_distance(f_n, f_limit, dom, grid_res=_CK_GRID,
                        on_lattice=(lattice[1], jet, lim_jet))
        del jet  # freed before the next member's detection
        m = match_critical_points(pts, pts_limit, domain=dom)
        rows.append({
            "n": int(n),
            "counts": counts,
            "d0": d[0], "d1": d[1], "d2": d[2],
            "resolution": detect.resolution(pts),
            "boundary_min_gradient": detect.boundary_min_gradient(f_n, dom),
            "matched": len(m.pairs),
            "unmatched_n": len(m.unmatched_n),
            "unmatched_limit": len(m.unmatched_limit),
            "multi_match": m.multi_match,
            "matching": m.as_record(),
            "unresolved": len(pts.unresolved),
        })

    hyp_boundary = bool(rows) and all(
        r["boundary_min_gradient"] > HYPOTHESIS_BOUNDARY_TOL for r in rows)
    res_seq = [r["resolution"] for r in rows]
    above_floor = bool(res_seq) and all(
        r > HYPOTHESIS_RESOLUTION_TOL for r in res_seq)
    # A resolution that halves across the tested range is treated as a
    # decreasing-to-zero trend even while still above the floor.
    shrinking = len(res_seq) >= 2 and np.isfinite(res_seq[0]) and \
        res_seq[-1] <= 0.5 * res_seq[0]
    hyp_resolution = above_floor and not shrinking
    hypothesis = {
        "boundary_gradient_holds": hyp_boundary,
        "resolution_holds": hyp_resolution,
        "resolution_above_floor": above_floor,
        "resolution_shrinking": bool(shrinking),
        "boundary_tol": HYPOTHESIS_BOUNDARY_TOL,
        "resolution_tol": HYPOTHESIS_RESOLUTION_TOL,
    }
    conclusion = {}
    if rows:
        last = rows[-1]["counts"]
        conclusion = {
            "counts_equal": all(
                last[k] == limit_counts[k]
                for k in ("N_C", "N_M", "N_m", "N_S")),
            "hom_counts_equal": last["hom"] == limit_counts["hom"],
        }
    holds = bool(conclusion) and conclusion["counts_equal"] and \
        conclusion["hom_counts_equal"]
    if hyp_boundary and hyp_resolution and not holds:
        verdict = "inconsistent"
    else:
        verdict = "consistent"
    return SequenceReport(
        family=ent.name, n_list=[int(n) for n in n_list], rows=rows,
        limit_counts=limit_counts, limit_resolution=limit_resolution,
        hypothesis=hypothesis, conclusion=conclusion, verdict=verdict)

