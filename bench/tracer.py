"""Outside-in span tracer for critsense.

The tracer wraps public functions and the ``ScalarField`` / ``Domain``
methods from outside the package, so the program itself is unchanged.
Each call becomes a span with a name, start, end and parent; a span's
self time is its duration minus the time of its children. Every thread
keeps its own span stack, so trials running on a worker pool nest under
their own roots.

Leaf layers (``fields`` and ``domains``) are called up to millions of
times per pass; their spans are aggregated (calls, time, self time,
points) but not kept one by one. Every other span is kept in memory and
returned by :meth:`Tracer.spans`.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
import threading
import time
from types import ModuleType

import numpy as np


def _points(shape) -> int:
    """Number of points in a ``(..., dim)`` array shape."""
    return math.prod(shape[:-1])


class _ThreadState:
    def __init__(self, ident: int):
        self.ident = ident
        self.stack: list = []    # frames [start, child_time, span_id]
        self.agg: dict = {}      # name -> [calls, total_s, self_s]
        self.counts: dict = {}   # counter name -> int
        self.spans: list = []    # (span_id, parent_id, name, start, end)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count(1)

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState(threading.get_ident())
            self._local.st = st
            with self._lock:
                self._states.append(st)
        return st

    def wrap(self, name: str, fn, counters=None, keep: bool = True):
        """Return ``fn`` wrapped in a span named ``name``.

        ``counters`` maps a counter name to ``f(args, result) -> int``,
        added up over the calls that return normally.
        """
        perf = time.perf_counter
        state = self._state
        ids = self._ids
        counters = tuple((counters or {}).items())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = state()
            stack = st.stack
            frame = [perf(), 0.0, next(ids)]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - frame[0]
                if stack:
                    stack[-1][1] += dur
                agg = st.agg.get(name)
                if agg is None:
                    agg = st.agg[name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
                if keep:
                    st.spans.append((frame[2], stack[-1][2] if stack else 0,
                                     name, frame[0], end))
            for key, count in counters:
                st.counts[key] = st.counts.get(key, 0) + count(args, result)
            return result

        return traced

    def patch(self, modules: list[ModuleType], owner, attr: str, name: str,
              **kw):
        """Wrap ``owner.attr`` and rebind every module-level alias of it in
        ``modules``, so names imported with ``from x import f`` are traced
        too. ``owner`` may be a module or a class."""
        orig = getattr(owner, attr)
        wrapped = self.wrap(name, orig, **kw)
        setattr(owner, attr, wrapped)
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapped)

    def totals(self) -> tuple[dict, dict]:
        """Merged ``({name: [calls, total_s, self_s]}, {counter: n})``."""
        agg: dict = {}
        counts: dict = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, (calls, total, own) in st.agg.items():
                a = agg.setdefault(name, [0, 0.0, 0.0])
                a[0] += calls
                a[1] += total
                a[2] += own
            for key, n in st.counts.items():
                counts[key] = counts.get(key, 0) + n
        return agg, counts

    def spans(self) -> list:
        """Kept spans as ``(thread, span_id, parent_id, name, start, end)``."""
        with self._lock:
            states = list(self._states)
        return [(st.ident,) + s for st in states for s in st.spans]


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of every critsense module."""
    # import_module, because the package rebinds some submodule names
    # (``critsense.gallery``) to functions of the same name.
    names = ("cli", "detect", "domains", "fields", "gallery", "homindex",
             "morse", "mountainpass", "randfield", "sequence")
    mods = [importlib.import_module("critsense")] + [
        importlib.import_module(f"critsense.{n}") for n in names]
    (cli, detect, domains, fields, gallery, homindex, morse, mountainpass,
     randfield, sequence) = mods[1:]

    for meth in ("value", "grad", "hess"):
        tracer.patch(mods, fields.ScalarField, meth, f"fields.{meth}",
                     counters={f"fields.{meth}.points": _arg_points},
                     keep=False)
    for cls in (domains.Domain, domains.Interval, domains.Box, domains.Ball):
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") or not callable(val):
                continue
            counters = ({"domains.lattice.points":
                         lambda a, r: _points(r.shape)}
                        if attr == "lattice" else None)
            tracer.patch(mods, cls, attr, f"domains.{attr}",
                         counters=counters, keep=False)

    tracer.patch(mods, gallery, "gallery", "gallery.build")
    tracer.patch(mods, gallery, "limit_field", "gallery.build")

    tracer.patch(mods, detect, "find_critical_points", "detect.find",
                 counters={"detect.points": lambda a, r: len(r),
                           "detect.unresolved":
                           lambda a, r: len(r.unresolved)})
    tracer.patch(mods, detect, "refine_newton", "detect.refine")
    tracer.patch(mods, detect, "least_squares", "detect.rescue")
    tracer.patch(mods, detect, "improper_extrema", "detect.improper")
    tracer.patch(mods, detect, "boundary_min_gradient",
                 "detect.boundary_grad")

    tracer.patch(mods, homindex, "homological_index", "homindex.hom_index")
    tracer.patch(mods, homindex, "winding_index_2d", "homindex.winding")
    tracer.patch(mods, homindex, "classify_by_index", "homindex.classify")
    tracer.patch(mods, homindex, "boundary_index", "homindex.boundary")
    tracer.patch(mods, homindex, "poincare_hopf_audit", "homindex.audit")

    tracer.patch(mods, morse, "morse_classify", "morse.classify")
    tracer.patch(mods, morse, "make_chart", "morse.chart")
    tracer.patch(mods, morse, "morse_flow_map", "morse.flow")
    tracer.patch(mods, morse, "morse_flow_trajectory", "morse.flow")
    tracer.patch(mods, morse, "verify_morse_chart", "morse.verify")
    tracer.patch(mods, morse, "morse_statistic", "morse.statistic")

    tracer.patch(mods, mountainpass, "mountain_pass_point",
                 "mountainpass.pass")

    tracer.patch(mods, sequence, "convergence_experiment",
                 "sequence.experiment")
    tracer.patch(mods, sequence, "ck_distance", "sequence.ck")
    tracer.patch(mods, sequence, "match_critical_points", "sequence.match")

    tracer.patch(mods, randfield, "monte_carlo_convergence", "randfield.mc")
    tracer.patch(mods, randfield, "_run_trial", "randfield.trial")
    tracer.patch(mods, randfield, "empirical_mean_field",
                 "randfield.mean_field")
    tracer.patch(mods, randfield, "sample_limit_field",
                 "randfield.limit_field")

    tracer.patch(mods, cli, "main", "cli.main")
    tracer.patch(mods, cli, "dumps", "cli.dumps")


def _arg_points(args, result) -> int:
    """Points in the ``s`` argument of ``ScalarField.value(self, s)``."""
    return _points(np.shape(args[1]))
