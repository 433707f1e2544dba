"""Random trigonometric fields and Monte Carlo count-agreement rates.

The model: a limit field G with i.i.d. normal coefficients on a tensor
trigonometric basis over [0, 2pi]^D, and empirical means
Ghat_n = G + (1/n) * sum_i E_i with i.i.d. basis noise fields E_i.
Coefficient decay makes every draw smooth; the finite basis makes
Ghat_n -> G uniform with all derivatives, so the counting theorems'
hypotheses are checkable per trial.

Randomness is counter-based (Philox keyed by seed, trial, stream), so
a trial's result does not depend on which trials ran before it. A
trial's streams are drawn from one generator that is re-keyed for each
stream, not rebuilt: a key and a zero counter fix a Philox state, so
the bits are those of a freshly keyed generator.

Because stream i is E_i whatever n asks for it, one pass per trial
serves every n of the table: the noise streams 1..max(n) are drawn in
fixed-size blocks, each block is scaled once, and a sequential cumsum
whose first row carries the running sum gives the prefix sums, with the
bits of adding the E_i one at a time. Memory is one block, whatever n.

Trials run in passes of up to ``PASS_LIMIT_BYTES // (bytes per trial)``
trials. A pass makes one detection: the G and every Ghat_n of each of its
trials are the members of one stacked ``BasisField``, scanned on one
lattice and refined and classified in lockstep, each with the bits of its
own detection. The hypothesis statistics of the pass's G fields come from
one stack too.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from . import detect
from .domains import LATTICE_LIMIT_BYTES, Box
from .errors import UsageError
from .fields import ScalarField
from .morse import morse_statistic
from .sequence import HYPOTHESIS_BOUNDARY_TOL, HYPOTHESIS_RESOLUTION_TOL, \
    counts_from_points

HYPOTHESIS_M_TOL = 1e-6
# a pass's stacked lattice gradient stays within this, unless one trial
# alone exceeds it: 16 trials of the README config, one of a 2-d config of
# three mean fields at grid 64
PASS_LIMIT_BYTES = 272 << 10

_EINSUM_AXES = "ijklmn"


@dataclass(frozen=True)
class BasisSpec:
    """Law of one random basis field: dimension, per-axis degree, and
    the coefficient scale amplitude * prod_a (1 + j_a)^(-decay)."""

    dim: int
    degree: int
    amplitude: float = 1.0
    decay: float = 2.0

    def __post_init__(self):
        if self.dim < 1 or self.dim > len(_EINSUM_AXES):
            raise UsageError("dim must be between 1 and 6", dim=self.dim)
        if self.degree < 1:
            raise UsageError("degree must be >= 1", degree=self.degree)
        if not np.isfinite([self.amplitude, self.decay]).all():
            raise UsageError("amplitude and decay must be finite")


def _harmonics(degree: int) -> np.ndarray:
    k = np.arange(2 * degree + 1)
    return (k + 1) // 2


@lru_cache(maxsize=64)
def _scale_tensor(spec: BasisSpec) -> np.ndarray:
    """The coefficient scale of ``spec``; cached, so it is read-only."""
    per_axis = (1.0 + _harmonics(spec.degree)) ** (-spec.decay)
    scale = per_axis
    for _ in range(spec.dim - 1):
        scale = np.multiply.outer(scale, per_axis)
    scale = spec.amplitude * scale
    scale.flags.writeable = False
    return scale


def _axis_tables(x: np.ndarray, degree: int, order: int) -> tuple:
    """Basis values along one axis, and their derivatives up to ``order``
    (0, 1 or 2), in the index order (1, cos x, sin x, cos 2x, sin 2x,
    ...). Each array has the bits it has in the order-2 build."""
    shape = x.shape + (2 * degree + 1,)
    j = np.arange(1, degree + 1)
    jx = x[..., None] * j
    c = np.cos(jx)
    s = np.sin(jx)
    b = np.empty(shape)
    b[..., 0] = 1.0
    b[..., 1::2] = c
    b[..., 2::2] = s
    if order == 0:
        return (b,)
    db = np.empty(shape)
    db[..., 0] = 0.0
    db[..., 1::2] = -j * s
    db[..., 2::2] = j * c
    if order == 1:
        return b, db
    d2b = np.empty(shape)
    d2b[..., 0] = 0.0
    d2b[..., 1::2] = (-j * j) * c
    d2b[..., 2::2] = (-j * j) * s
    return b, db, d2b


class BasisField(ScalarField):
    """Finite trigonometric sum with closed-form derivatives.

    The coefficient tensor has shape (2*degree+1,)**dim with per-axis
    index order (1, cos x, sin x, cos 2x, sin 2x, ...). A tensor with one
    more leading axis is a stack of members, all of one degree: row j of
    points ``(..., k, dim)`` is evaluated on member j, and points
    ``(..., 1, dim)`` on every member. Each row has the bits of its
    member's own field: every sum is one ``einsum``, whose coefficient
    operand broadcasts like the points (a ``matmul`` would sum
    differently).
    """

    def __init__(self, coeffs: np.ndarray, dim: int):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.ndim not in (dim, dim + 1) \
                or len(set(coeffs.shape[coeffs.ndim - dim:])) != 1:
            raise UsageError("coefficient tensor must be (m,)**dim, or a "
                             "stack of them", shape=coeffs.shape)
        if coeffs.shape[-1] % 2 != 1:
            raise UsageError("axis length must be odd (1 + 2*degree)")
        super().__init__(self._value_at, dim, grad_fn=self._grad_at,
                         hess_fn=self._hess_at, jet_fn=self._jet_at)
        self.coeffs = coeffs
        self.degree = (coeffs.shape[-1] - 1) // 2
        axes = _EINSUM_AXES[:dim]
        self._subscripts = ",".join(["..." + a for a in axes]
                                    + ["..." + axes]) + "->..."

    @property
    def members(self) -> int | None:
        return len(self.coeffs) if self.coeffs.ndim > self.dim else None

    def rows(self, member) -> BasisField:
        """See :meth:`ScalarField.rows`; ``coeffs[member]`` of a stack."""
        if self.members is None:
            return self
        return BasisField(self.coeffs[member], self.dim)

    def _tables(self, s: np.ndarray, order: int):
        return [_axis_tables(s[..., a], self.degree, order)
                for a in range(self.dim)]

    def _lead(self, s: np.ndarray) -> tuple:
        """Points' shape, broadcast against a stack's member axis."""
        return np.broadcast_shapes(s.shape[:-1], self.coeffs.shape[:-self.dim])

    def _sum(self, tables, which) -> np.ndarray:
        ops = [tables[a][which[a]] for a in range(self.dim)]
        return np.einsum(self._subscripts, *ops, self.coeffs)

    def _value_at(self, s: np.ndarray) -> np.ndarray:
        return self._sum(self._tables(s, 0), (0,) * self.dim)

    def _grad_at(self, s: np.ndarray, t=None) -> np.ndarray:
        t = self._tables(s, 1) if t is None else t
        out = np.empty(self._lead(s) + (self.dim,))
        for a in range(self.dim):
            which = tuple(1 if b == a else 0 for b in range(self.dim))
            out[..., a] = self._sum(t, which)
        return out

    def _hess_at(self, s: np.ndarray, t=None) -> np.ndarray:
        t = self._tables(s, 2) if t is None else t
        out = np.empty(self._lead(s) + (self.dim, self.dim))
        for a in range(self.dim):
            for b in range(a, self.dim):
                which = tuple((2 if a == b else 1) if c in (a, b) else 0
                              for c in range(self.dim))
                v = self._sum(t, which)
                out[..., a, b] = v
                out[..., b, a] = v
        return out

    def _jet_at(self, s: np.ndarray, order: int) -> tuple:
        """One table build, to ``order``, for every part."""
        t = self._tables(s, order)
        parts = self._sum(t, (0,) * self.dim), self._grad_at(s, t)
        return parts + (self._hess_at(s, t),) if order == 2 else parts


def standard_domain(dim: int) -> Box:
    return Box([0.0] * dim, [2.0 * np.pi] * dim)


class _TrialStreams:
    """The Philox streams of one (seed, trial): stream k is keyed
    ``[seed, trial << 20 | k]``. One generator serves every stream; each
    re-key sets it to the state a fresh ``Philox(key=...)`` starts in."""

    def __init__(self, seed: int, trial: int):
        if not 0 <= seed < 1 << 64:
            raise UsageError("seed must be in [0, 2**64)", seed=seed)
        if trial < 0:
            raise UsageError("trial must be >= 0 and stream in [0, 2**20)")
        self.seed = seed
        self.trial = trial
        self.rng = np.random.Generator(np.random.Philox(
            key=np.array([seed, trial << 20], dtype=np.uint64)))
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": [seed, trial << 20]},
            "buffer": [0, 0, 0, 0], "buffer_pos": 4,
            "has_uint32": 0, "uinteger": 0}

    def rekey(self, stream: int):
        """Point the generator at the start of ``stream``."""
        if not 0 <= stream < 1 << 20:
            raise UsageError("trial must be >= 0 and stream in [0, 2**20)")
        self._state["state"]["key"][1] = (self.trial << 20) | stream
        self.rng.bit_generator.state = self._state

    def draw(self, spec: BasisSpec, stream: int) -> np.ndarray:
        """Coefficients of ``spec`` from ``stream``."""
        self.rekey(stream)
        z = self.rng.standard_normal(size=(2 * spec.degree + 1,) * spec.dim)
        return z * _scale_tensor(spec)


def _draw_coeffs(spec: BasisSpec, seed: int, trial: int,
                 stream: int) -> np.ndarray:
    return _TrialStreams(seed, trial).draw(spec, stream)


def sample_limit_field(spec: BasisSpec, seed: int, trial: int = 0
                       ) -> BasisField:
    """One draw of the limit field G (stream 0 of the trial)."""
    return BasisField(_draw_coeffs(spec, seed, trial, 0), spec.dim)


def _embed(coeffs: np.ndarray, m: int) -> np.ndarray:
    if coeffs.shape[0] == m:
        return coeffs
    out = np.zeros((m,) * coeffs.ndim)
    out[tuple(slice(0, coeffs.shape[0]) for _ in range(coeffs.ndim))] = coeffs
    return out


_BLOCK = 128  # noise streams drawn, scaled and summed together


def empirical_mean_field(G: BasisField, noise_spec: BasisSpec, n_list,
                         seed: int, trial: int = 0) -> list:
    """Ghat_n = G + (1/n) * sum_{i=1..n} E_i, exact in coefficient space,
    for each n of ``n_list``, in its order.

    Noise stream i draws E_i, so Ghat_10 and Ghat_100 from the same seed
    share their first ten noise fields. One pass draws streams 1..max(n)
    in blocks of ``_BLOCK``; each block's first row carries the running
    sum into a sequential cumsum, so every prefix sum has the bits of
    adding the E_i one by one.
    """
    for n in n_list:
        if n < 1:
            raise UsageError("n must be >= 1", n=n)
    if noise_spec.dim != G.dim:
        raise UsageError("noise dimension must match G",
                         noise_dim=noise_spec.dim, field_dim=G.dim)
    m = 2 * max(G.degree, noise_spec.degree) + 1
    streams = _TrialStreams(seed, trial)
    top = max(n_list, default=0)
    if top:
        streams.rekey(top)  # an out-of-range stream fails before any draw
    scale = _scale_tensor(noise_spec)
    block = np.zeros((_BLOCK + 1,) + scale.shape)
    means = {}
    done = 0
    while done < top:
        k = min(_BLOCK, top - done)
        rows = block[:k + 1]
        for j in range(1, k + 1):
            streams.rekey(done + j)
            streams.rng.standard_normal(out=rows[j])
        rows[1:] *= scale
        np.cumsum(rows, axis=0, out=rows)
        for n in n_list:
            if done < n <= done + k:
                means[n] = _embed(rows[n - done], m) / n
        block[0] = rows[k]
        done += k
    base = _embed(G.coeffs, m)
    return [BasisField(base + means[n], G.dim) for n in n_list]


# ---------------------------------------------------------------- #
# Monte Carlo
# ---------------------------------------------------------------- #

_TRIPLE = ("N_M", "N_m", "N_S")  # the counts a trial must match


def _counts(points) -> dict:
    c = counts_from_points(points)
    return {k: c[k] for k in _TRIPLE + ("N_C",)}


def _run_trial(spec: BasisSpec, noise_spec: BasisSpec, n_list, seed: int,
               trials: range, grid_res: int) -> list:
    """The records of the trials ``trials``, from one pass: one detection
    of every trial's G and Ghat_n, and one stack of the G fields for the
    hypothesis statistics."""
    dom = standard_domain(spec.dim)
    Gs = [sample_limit_field(spec, seed, t) for t in trials]
    hats = [f for G, t in zip(Gs, trials)
            for f in empirical_mean_field(G, noise_spec, n_list, seed, t)]
    G = BasisField(np.stack([f.coeffs for f in Gs]), spec.dim)
    # one detection for every member; a wider noise degree embeds G's
    # coefficients, and zero padding would change its sums' bits, so then
    # the G fields are detected on their own
    stacks = [Gs + hats] if noise_spec.degree <= spec.degree else [Gs, hats]
    found = [pts for members in stacks for pts in detect.find_critical_points(
        BasisField(np.stack([f.coeffs for f in members]), spec.dim), dom,
        grid_res=grid_res).split()]
    stat_l = detect.boundary_min_gradient(G, dom)
    stat_m = morse_statistic(G, dom, grid_res=grid_res)
    records = []
    for i, t in enumerate(trials):
        pts_G = found[i]
        stat_r = detect.resolution(pts_G)
        counts_G = _counts(pts_G)
        # "failed" is always false: detection lists a stalled seed as
        # unresolved and never raises; the key keeps the artifact's schema
        rec = {
            "trial": t, "failed": False,
            "L": stat_l[i], "R": stat_r, "M": stat_m[i],
            "counts_G": counts_G,
            "hypothesis_ok": bool(stat_l[i] > HYPOTHESIS_BOUNDARY_TOL
                                  and stat_r > HYPOTHESIS_RESOLUTION_TOL
                                  and stat_m[i] > HYPOTHESIS_M_TOL),
            "per_n": [],
        }
        first = len(Gs) + i * len(n_list)
        for n, pts_n in zip(n_list, found[first:first + len(n_list)]):
            counts_n = _counts(pts_n)
            rec["per_n"].append({
                "n": int(n), "failed": False,
                "counts": counts_n,
                "R_hat": detect.resolution(pts_n),
                "match": all(counts_n[k] == counts_G[k] for k in _TRIPLE),
            })
        records.append(rec)
    return records


def monte_carlo_convergence(spec: BasisSpec, noise_spec: BasisSpec, n_list,
                            trials: int, seed: int,
                            grid_res: int | None = None) -> dict:
    """Per-n frequency of exact (N_M, N_m, N_S) agreement between
    Ghat_n and G over hypothesis-passing trials.

    Trials run in passes, in trial order; a pass stacks the fields of as
    many trials as ``PASS_LIMIT_BYTES`` allows (at least one) into one
    detection. Each trial draws only from its own Philox streams and each
    member keeps the bits of its own detection, so the table is
    bit-identical on every run and whatever the pass size.
    """
    if trials < 1:
        raise UsageError("trials must be >= 1", trials=trials)
    n_list = [int(n) for n in n_list]
    for n in n_list:
        if not 1 <= n < 1 << 20:
            raise UsageError(f"n_list entry {n} is outside [1, 2**20)",
                             n_list=n_list, n=n)
    res = grid_res if grid_res is not None else (
        512 if spec.dim == 1 else 64)
    # per lattice vertex: a basis table row, every member's gradient, or
    # the Hessian of morse_statistic
    width = max(2 * max(spec.degree, noise_spec.degree) + 1,
                (1 + len(n_list)) * spec.dim, spec.dim ** 2)
    nbytes = 8 * (res + 1) ** spec.dim * width
    if nbytes > LATTICE_LIMIT_BYTES:
        raise UsageError(
            f"a trial's largest lattice array would take {nbytes} bytes, "
            f"over the limit of {LATTICE_LIMIT_BYTES}", bytes=nbytes,
            limit=LATTICE_LIMIT_BYTES, dim=spec.dim, grid_res=res)
    # a trial's members' gradients on the lattice, as the pass stacks them
    per_trial = 8 * (res + 1) ** spec.dim * (1 + len(n_list)) * spec.dim
    size = max(1, PASS_LIMIT_BYTES // per_trial)
    records = [rec for t in range(0, trials, size)
               for rec in _run_trial(spec, noise_spec, n_list, seed,
                                     range(t, min(t + size, trials)), res)]

    per_n = []
    for idx, n in enumerate(n_list):
        kept = [(rec, rec["per_n"][idx]) for rec in records
                if rec["hypothesis_ok"]]
        denom = len(kept)
        matches = sum(int(row["match"]) for _, row in kept)
        r_hats = [row["R_hat"] for _, row in kept]
        r_gaps = [abs(row["R_hat"] - rec["R"]) for rec, row in kept
                  if np.isfinite(row["R_hat"]) and np.isfinite(rec["R"])]
        # the N_M histograms of Ghat_n and G, as one difference
        gap = Counter(row["counts"]["N_M"] for _, row in kept)
        gap.subtract(rec["counts_G"]["N_M"] for rec, _ in kept)
        tv = 0.5 * sum(map(abs, gap.values())) / denom if denom else None
        per_n.append({
            "n": n,
            "matches": matches,
            "denominator": denom,
            "frequency": (matches / denom) if denom else None,
            "excluded_hypothesis": len(records) - denom,
            "failed": 0,  # kept in the schema; see _run_trial
            "min_R_hat": min(r_hats) if r_hats else None,
            "median_R_gap": float(np.median(r_gaps)) if r_gaps else None,
            "tv_distance_N_M": tv,
        })

    def stratum_rate(mask_fn):
        sel = [r for r in records if mask_fn(r["M"])]
        hits = sum(int(r["per_n"][-1]["match"]) for r in sel)
        return {"trials": len(sel),
                "frequency": (hits / len(sel)) if sel else None}

    report = {
        "spec": asdict(spec),
        "noise": asdict(noise_spec),
        "n_list": n_list,
        "trials": trials,
        "seed": int(seed),
        "grid_res": res,
        "per_n": per_n,
        "strata_last_n": {
            "M_below_1e-4": stratum_rate(lambda m: m < 1e-4),
            "M_above_1e-2": stratum_rate(lambda m: m > 1e-2),
        },
        "hypothesis_tols": {"L": HYPOTHESIS_BOUNDARY_TOL,
                            "R": HYPOTHESIS_RESOLUTION_TOL,
                            "M": HYPOTHESIS_M_TOL},
        "records": records,
    }
    return report
