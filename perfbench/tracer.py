"""In-memory span tracer for the benchmark's traced run.

The tracer never edits the package: it wraps callables at each layer
boundary from the outside and restores them afterwards. A name bound by
``from ... import`` is patched in every ``randers_lab`` module that holds
it, because patching only the defining module misses those call sites.
Methods that every space, field or family implements (``h_distance``,
``flow``, ``finsler_norm``, ...) are patched on their classes.

A span is ``(name, start, end, parent, counters)``; spans stay in memory
and are written out once, when the run ends.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
from contextlib import contextmanager, nullcontext

PHASE = "phase."


def _rows(x) -> int:
    """Batch size of a point array: product of its leading axes."""
    shape = getattr(x, "shape", None)
    if shape is None:
        return 1
    n = 1
    for s in shape[:-1]:
        n *= int(s)
    return n


class NullTracer:
    """Tracing off: phase markers cost nothing."""

    enabled = False

    def phase(self, name):
        return nullcontext()


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, counters]
        self._stack = []
        self._undo = []
        self.origin = time.perf_counter()

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx, counters=None):
        self.spans[idx][2] = time.perf_counter()
        if counters:
            self.spans[idx][4] = counters
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def phase(self, name):
        return self.span(PHASE + name)

    @property
    def current(self):
        """Index of the innermost open span."""
        return self._stack[-1]

    def wrap(self, name, fn, count=None):
        """Wrapper recording a span per call; count(args, kwargs, result)
        returns a dict of counters attached to the span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._close(idx, count(args, kwargs, result) if count else None)

        return traced

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_method(self, cls, attr, name, count=None):
        if attr in cls.__dict__:
            self._set(cls, attr, self.wrap(name, cls.__dict__[attr], count))

    def patch_global(self, original, name, count=None):
        """Replace every randers_lab module-level binding of `original`."""
        traced = self.wrap(name, original, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "randers_lab" or mod_name.startswith("randers_lab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, traced)

    def install(self):
        """Wrap every layer boundary the per-layer metrics need."""
        import numpy as np
        import scipy.optimize

        from randers_lab import cw, geodesics, killing, oracle, randers, spaces

        def rows_x(args, kwargs, result):
            return {"rows": _rows(args[1])}

        def rows_xy(args, kwargs, result):
            return {"rows": max(_rows(args[1]), _rows(args[2]))}

        # spaces: methods on every space class, plus the shared frame helper
        for cls in (spaces.Euclidean, spaces.Sphere, spaces.CompactGroup, spaces.Product):
            for attr in ("h_distance", "h_log", "h_exp", "h_dexp"):
                self.patch_method(cls, attr, "spaces." + attr, rows_x)
        self.patch_global(spaces.frame, "spaces.frame")

        # killing: exact flows and family matching, on their classes
        for cls in (killing.EuclideanKilling, killing.SphereKilling,
                    killing.GroupKilling, killing.ProductKilling):
            self.patch_method(cls, "flow", "killing.flow", rows_x)
        for cls in (killing.SphereFamily, killing.EuclideanFamily,
                    killing.GroupFamily, killing.ProductFamily):
            self.patch_method(cls, "match", "killing.match")

        # randers: the navigation norm and the sampled wind bound
        self.patch_method(randers.NavigationData, "finsler_norm", "randers.finsler_norm", rows_xy)
        self.patch_method(randers.NavigationData, "wind_bound", "randers.wind_bound")

        # geodesics
        self.patch_global(geodesics.f_distance_batch, "geodesics.f_distance_batch",
                          lambda a, k, r: {"pairs": _rows(a[1])})
        self.patch_global(geodesics.f_distance, "geodesics.f_distance")
        self.patch_global(geodesics.f_geodesic_ode, "geodesics.f_geodesic_ode",
                          lambda a, k, r: {"steps": len(r.ts) - 1 if r is not None else 0})
        self.patch_global(geodesics.f_geodesic_flowcurve, "geodesics.f_geodesic_flowcurve")
        self.patch_global(geodesics._chart_rhs, "geodesics._chart_rhs")

        # oracle: module callables, and the third-party names it looks up
        for fn in (oracle.build_graph, oracle._knn_edges, oracle._load,
                   oracle._best_two_arc, oracle.oracle_distance_pairs,
                   oracle.oracle_distance):
            self.patch_global(fn, "oracle." + fn.__name__)
        self.patch_global(oracle._arc_weights, "oracle._arc_weights", rows_x)
        self.patch_global(oracle.connected_components, "oracle.connected_components")
        self.patch_global(oracle.dijkstra, "oracle.dijkstra",
                          lambda a, k, r: {"sources": int(np.size(k.get("indices", 0)))})
        self._set(oracle, "cKDTree", self._traced_kdtree(oracle.cKDTree))
        self._set(oracle, "np", _NumpyProxy(np, {
            "unique": self.wrap("oracle.unique", np.unique,
                                lambda a, k, r: {"rows": len(a[0]),
                                                 "kept": len(r) if r is not None else 0}),
            "savez_compressed": self.wrap("oracle.savez_compressed", np.savez_compressed,
                                          lambda a, k, r: {"bytes": _file_size(a[0])}),
        }))

        # cw: the checks, plus Nelder-Mead runs of the cw_connect fallback
        for fn in (cw.cw_displacement_check, cw.direction_exhaustion_check, cw.cw_connect):
            self.patch_global(fn, "cw." + fn.__name__)
        self._set(scipy.optimize, "minimize",
                  self.wrap("cw.nelder_mead", scipy.optimize.minimize))

        # cli and reports, when the CLI module is loaded in this process
        cli = sys.modules.get("randers_lab.cli")
        if cli is not None:
            for attr, value in list(vars(cli).items()):
                if attr.startswith("cmd_") and callable(value):
                    self._set(cli, attr, self.wrap("cli." + attr, value))
            self.patch_global(cli.render_json, "reports.render_json")

    def _traced_kdtree(self, base):
        tracer = self

        class TracedKDTree(base):
            def query(self, x, *args, **kwargs):
                idx = tracer._open("oracle.knn_query")
                try:
                    return base.query(self, x, *args, **kwargs)
                finally:
                    tracer._close(idx, {"rows": _rows(x)})

        return TracedKDTree

    def adopt(self, path, parent):
        """Attach the spans a child process dumped with `origin=0` under
        span `parent`; perf_counter is one monotonic clock for all
        processes, so their times need no shift."""
        base = len(self.spans)
        with open(path) as f:
            for line in f:
                rec = json.loads(line)
                p = rec.pop("parent")
                span = [rec.pop("name"), rec.pop("start"), rec.pop("end"),
                        p + base if p >= 0 else parent]
                rec.pop("id")
                self.spans.append(span + [rec or None])

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output ------------------------------------------------------------

    def dump(self, path, origin=None):
        """Write the spans as JSON lines, times relative to `origin`
        (default: the tracer's start)."""
        origin = self.origin if origin is None else origin
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as f:
            for i, (name, t0, t1, parent, counters) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start": t0 - origin,
                       "end": t1 - origin, "parent": parent}
                if counters:
                    rec.update(counters)
                f.write(json.dumps(rec) + "\n")


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class _NumpyProxy:
    """Stands in for `np` inside one module: the listed functions are
    traced, every other attribute is numpy's own."""

    def __init__(self, module, overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------

# spaces primitives, split by the benchmark phase they ran under
SPACES_SPLIT = {
    "h_distance": ("build", "query", "fdist", "claims"),
    "h_log": ("build", "query", "claims"),
    "frame": ("ode",),
    "h_exp": ("ode",),
    "h_dexp": ("ode",),
}
NORM_PHASES = ("build", "query", "ode")
CLI_VERBS = ("distance", "cw-check", "exhaust", "connect", "oracle-query")

PER_LAYER = (
    [("oracle.knn_query_s", "s"), ("oracle.dedupe_s", "s"),
     ("oracle.dedupe_keep_ratio", "ratio"), ("oracle.rerank_s", "s"),
     ("oracle.rerank_rows", "count"), ("oracle.edge_weights_s", "s"),
     ("oracle.edge_rows", "count"), ("oracle.eps_s", "s"), ("oracle.scc_s", "s"),
     ("oracle.k_retries", "count"), ("oracle.cache_write_s", "s"),
     ("oracle.cache_mb", "MiB"), ("oracle.cache_read_s", "s"),
     ("oracle.cache_hits", "count"), ("oracle.dijkstra_s", "s"),
     ("oracle.dijkstra_sources", "count"), ("oracle.two_arc_s", "s"),
     ("geodesics.solve_s", "s"), ("geodesics.flow_calls_per_solve", "count"),
     ("geodesics.ode_step_s", "s"),
     ("randers.wind_bound_s", "s"), ("randers.wind_bound_calls", "count")]
    + [(f"randers.finsler_norm_s.{p}", "s") for p in NORM_PHASES]
    + [(f"randers.finsler_norm_rows.{p}", "count") for p in NORM_PHASES]
    + [("randers.norm_calls_per_ode_step", "count"),
       ("killing.flow_s", "s"), ("killing.flow_rows_per_pair", "count"),
       ("killing.match_s", "s"), ("killing.match_calls", "count")]
    + [(f"spaces.{fn}_s.{p}", "s") for fn, phases in SPACES_SPLIT.items() for p in phases]
    + [("cw.displacement_s", "s"), ("cw.exhaustion_s", "s"), ("cw.connect_s", "s"),
       ("cw.connect_fallbacks", "count"), ("cli.import_s", "s")]
    + [(f"cli.verb_ms.{v}", "ms") for v in CLI_VERBS]
    + [("reports.render_json_s", "s"),
       ("trace.overhead_s", "s"), ("trace.overhead_pct", "%"), ("trace.spans", "count")]
)


def summarize(spans) -> dict:
    """Per-layer values from a span list (parents precede children).

    Phase times of the oracle and the CLI are inclusive span durations;
    layer times (geodesics, randers, killing, spaces, cw) are self times:
    a span's duration minus that of its direct children.
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    self_t = list(dur)
    phase = [None] * n
    pname = [None] * n
    for i, (name, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            self_t[parent] -= dur[i]
            pname[i] = spans[parent][0]
            phase[i] = phase[parent]
        if name.startswith(PHASE):
            phase[i] = name[len(PHASE):]

    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def sel(name, parent=None, in_phase=None, outer=False):
        return [i for i in by_name.get(name, ()) if (parent is None or pname[i] == parent)
                and (in_phase is None or phase[i] == in_phase)
                and (not outer or pname[i] != name)]

    def tot(idx, field="dur"):
        if field == "dur":
            return float(sum(dur[i] for i in idx))
        if field == "self":
            return float(sum(self_t[i] for i in idx))
        return float(sum((spans[i][4] or {}).get(field, 0) for i in idx))

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    knn = "oracle._knn_edges"
    m["oracle.knn_query_s"] = tot(sel("oracle.knn_query", parent=knn))
    dd = sel("oracle.unique", parent=knn)
    m["oracle.dedupe_s"] = tot(dd)
    m["oracle.dedupe_keep_ratio"] = ratio(tot(dd, "kept"), tot(dd, "rows"))
    rr = sel("spaces.h_distance", parent=knn)
    m["oracle.rerank_s"] = tot(rr)
    m["oracle.rerank_rows"] = tot(rr, "rows")
    ew = sel("oracle._arc_weights", parent="oracle.build_graph")
    m["oracle.edge_weights_s"] = tot(ew)
    m["oracle.edge_rows"] = tot(ew, "rows")
    m["oracle.eps_s"] = tot(sel("spaces.h_distance", parent="oracle.build_graph"))
    m["oracle.scc_s"] = tot(sel("oracle.connected_components"))
    builds_with_knn = {spans[i][3] for i in sel(knn)}
    m["oracle.k_retries"] = float(len(sel(knn)) - len(builds_with_knn))
    wr = sel("oracle.savez_compressed")
    m["oracle.cache_write_s"] = tot(wr)
    m["oracle.cache_mb"] = ratio(tot(wr, "bytes"), len(wr)) / 2**20
    ld = sel("oracle._load")
    m["oracle.cache_read_s"] = tot(ld)
    m["oracle.cache_hits"] = float(len(ld))
    dj = sel("oracle.dijkstra")
    m["oracle.dijkstra_s"] = tot(dj)
    m["oracle.dijkstra_sources"] = tot(dj, "sources")
    m["oracle.two_arc_s"] = tot(sel("oracle._best_two_arc", outer=True))

    solves = sel("geodesics.f_distance_batch")
    m["geodesics.solve_s"] = tot(solves, "self")
    solve_flows = sel("killing.flow", parent="geodesics.f_distance_batch")
    m["geodesics.flow_calls_per_solve"] = ratio(len(solve_flows), len(solves))
    odes = sel("geodesics.f_geodesic_ode")
    steps = tot(odes, "steps")
    m["geodesics.ode_step_s"] = ratio(tot(odes), steps)

    wb = sel("randers.wind_bound")
    m["randers.wind_bound_s"] = tot(wb, "self")
    m["randers.wind_bound_calls"] = float(len(wb))
    for p in NORM_PHASES:
        fn = sel("randers.finsler_norm", in_phase=p)
        m[f"randers.finsler_norm_s.{p}"] = tot(fn, "self")
        m[f"randers.finsler_norm_rows.{p}"] = tot(fn, "rows")
    m["randers.norm_calls_per_ode_step"] = ratio(
        len(sel("randers.finsler_norm", in_phase="ode")), steps)

    m["killing.flow_s"] = tot(sel("killing.flow"), "self")
    m["killing.flow_rows_per_pair"] = ratio(tot(solve_flows, "rows"), tot(solves, "pairs"))
    m["killing.match_s"] = tot(sel("killing.match"), "self")
    m["killing.match_calls"] = float(len(sel("killing.match", outer=True)))

    for fn, phases in SPACES_SPLIT.items():
        for p in phases:
            m[f"spaces.{fn}_s.{p}"] = tot(sel("spaces." + fn, in_phase=p), "self")

    m["cw.displacement_s"] = tot(sel("cw.cw_displacement_check"), "self")
    m["cw.exhaustion_s"] = tot(sel("cw.direction_exhaustion_check"), "self")
    m["cw.connect_s"] = tot(sel("cw.cw_connect"), "self")
    m["cw.connect_fallbacks"] = float(len(sel("cw.nelder_mead")))

    imports = sel("cli.import")
    m["cli.import_s"] = ratio(tot(imports), len(imports))
    for v in CLI_VERBS:
        calls = sel(PHASE + "cli." + v)
        verb = [i for name, idx in by_name.items() if name.startswith("cli.cmd_")
                for i in idx if phase[i] == "cli." + v]
        m[f"cli.verb_ms.{v}"] = 1e3 * ratio(tot(verb), len(calls))
    rj = sel("reports.render_json")
    m["reports.render_json_s"] = ratio(tot(rj), len(rj))
    m["trace.spans"] = float(n)
    return m

