"""Span tracing from outside the package.

The verification runners and the CLI call library functions through
names bound in their own module namespaces (``geoknot.validation``,
``geoknot.cli``), and the library workloads call through the defining
modules.  ``Tracer.install`` rebinds those names to timing wrappers and
``Tracer.uninstall`` puts the originals back, so nothing under ``src/``
changes.  A name that is no longer where this table expects it raises
``TraceError``: a traced run must never silently measure less than it
claims.

Spans are kept in memory as (id, parent, request, name, start, end) and
written out once at the end.  ``request`` is the id of the span's
top-level ancestor below the ``bench.*`` root, so all spans caused by
one CLI call or library call share it.
"""

import json
import time
from collections import Counter, defaultdict

import numpy as np

import geoknot.cli
import geoknot.graph
import geoknot.paths
import geoknot.surfaces
import geoknot.validation

_V = geoknot.validation
_C = geoknot.cli

# (module, attribute, span name or None for a pure counter).
WRAPPED = (
    (_V, "sample_surface", "surfaces.sample"),
    (_V, "covering_radius", "surfaces.covering_radius"),
    (_V, "geodesic_oracle", None),
    (_V, "build_graph", "graph.build"),
    (_V, "shortest_distances", "paths.bulk_search"),
    (_V, "path_max_curvature", "paths.path_curvature"),
    (_V, "select_pairs", "validation.select_pairs"),
    (_C, "main", "cli.main"),
    (_C, "sample_surface", "surfaces.sample"),
    (_C, "read_points_csv", "surfaces.points_io"),
    (_C, "write_points_csv", "surfaces.points_io"),
    (_C, "build_graph", "graph.build"),
    (_C, "graph_stats", "graph.stats"),
    (_C, "read_graph_csv", "graph.csv_read"),
    (_C, "write_graph_csv", "graph.csv_write"),
    (_C, "dijkstra", "paths.dijkstra"),
    (_C, "constrained_shortest", "paths.constrained"),
    (_C, "path_max_curvature", "paths.path_curvature"),
    (_C, "verify_unconstrained_upper", "validation.runner"),
    (_C, "verify_unconstrained_lower", "validation.runner"),
    (_C, "verify_constrained_upper", "validation.runner"),
    (_C, "verify_constrained_lower", "validation.runner"),
    (_C, "write_report_csv", "validation.report_write"),
    (_C, "write_summary_json", "validation.report_write"),
    (geoknot.surfaces, "sample_surface", "surfaces.sample"),
    (geoknot.graph, "build_graph", "graph.build"),
    (geoknot.graph, "graph_stats", "graph.stats"),
    (geoknot.paths, "shortest_distances", "paths.bulk_search"),
)

# Per-layer metric -> how it is derived from one traced process.
# "incl:" sums span durations, "self:" sums self time of spans whose
# name starts with the prefix, "count:" reads a counter, and
# "ratio:a/b" divides counter a by counter (or span time) b.
LAYER_METRICS = {
    "surfaces.covering_radius_s": "incl:surfaces.covering_radius",
    "surfaces.reference_points": "count:surfaces.reference_points",
    "surfaces.sample_s": "incl:surfaces.sample",
    "surfaces.points_io_s": "incl:surfaces.points_io",
    "surfaces.self_s": "self:surfaces.",
    "graph.build_s": "incl:graph.build",
    "graph.edges": "count:graph.edges",
    "graph.edges_per_s": "ratio:graph.edges/graph.build",
    "graph.stats_s": "incl:graph.stats",
    "graph.csv_read_s": "incl:graph.csv_read",
    "graph.csv_write_s": "incl:graph.csv_write",
    "graph.self_s": "self:graph.",
    "paths.bulk_search_s": "incl:paths.bulk_search",
    "paths.bulk_sources": "count:paths.bulk_sources",
    "paths.engine_init_s": "incl:paths.engine_init",
    "paths.engine_query_s": "incl:paths.engine_query",
    "paths.engine_queries": "count:paths.engine_queries",
    "paths.state_pairs": "count:paths.state_pairs",
    "paths.dijkstra_s": "incl:paths.dijkstra",
    "paths.constrained_s": "incl:paths.constrained",
    "paths.path_curvature_s": "incl:paths.path_curvature",
    "paths.self_s": "self:paths.",
    "validation.select_pairs_s": "incl:validation.select_pairs",
    "validation.oracle_calls": "count:validation.oracle_calls",
    "validation.pair_yield":
        "ratio:validation.admitted_pairs/validation.oracle_calls",
    "validation.runner_self_s": "self:validation.runner",
    "validation.report_write_s": "incl:validation.report_write",
    "validation.pairs": "count:validation.pairs",
    "validation.self_s": "self:validation.",
    "cli.self_s": "self:cli.",
    "bench.self_s": "self:bench.",
}


class TraceError(RuntimeError):
    """A name the trace wraps is missing from its module."""


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._saved = []

    # -- recording --------------------------------------------------------

    def begin(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        if parent is None or parent[3].startswith("bench."):
            request = sid
        else:
            request = parent[2]
        span = [sid, None if parent is None else parent[0], request, name,
                time.perf_counter(), None]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: list):
        span[5] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        span = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(span)

    # -- installation -----------------------------------------------------

    def _wrapper(self, name, fn, attr):
        if name is None:
            # The oracle runs hundreds of times per pair selection; it is
            # counted, and its time stays in the select_pairs span.
            def counted(*args, **kwargs):
                self.counts["validation.oracle_calls"] += 1
                return fn(*args, **kwargs)
            return counted

        def timed(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            self._count_result(attr, args, kwargs, result)
            return result

        return timed

    def _count_result(self, attr, args, kwargs, result):
        if attr == "covering_radius":
            self.counts["surfaces.reference_points"] += result.reference_size
        elif attr == "build_graph":
            self.counts["graph.edges"] += result.edge_count
        elif attr == "shortest_distances":
            sources = args[1] if len(args) > 1 else kwargs["sources"]
            self.counts["paths.bulk_sources"] += len(sources)
        elif attr == "select_pairs":
            self.counts["validation.admitted_pairs"] += len(result)
        elif attr.startswith("verify_"):
            reports = result if isinstance(result, list) else [result]
            self.counts["validation.pairs"] += sum(len(r.rows) for r in reports)

    def _engine_class(self, base):
        tracer = self

        class TracedEdgeStateEngine(base):
            def __init__(self, g):
                deg = np.diff(g.indptr)
                tracer.counts["paths.state_pairs"] += int(np.dot(deg, deg))
                span = tracer.begin("paths.engine_init")
                try:
                    super().__init__(g)
                finally:
                    tracer.end(span)

            def distances(self, kappa, sources):
                tracer.counts["paths.engine_queries"] += 1
                span = tracer.begin("paths.engine_query")
                try:
                    return super().distances(kappa, sources)
                finally:
                    tracer.end(span)

        return TracedEdgeStateEngine

    def install(self):
        """Rebind every traced name; raise TraceError if one is gone."""
        targets = [(m, a, self._wrapper(n, self._lookup(m, a), a))
                   for m, a, n in WRAPPED]
        engine = self._lookup(_V, "EdgeStateEngine")
        if not isinstance(engine, type):
            raise TraceError("geoknot.validation.EdgeStateEngine is no class")
        targets.append((_V, "EdgeStateEngine", self._engine_class(engine)))
        for module, attr, replacement in targets:
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, replacement)

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @staticmethod
    def _lookup(module, attr):
        fn = getattr(module, attr, None)
        if not callable(fn):
            raise TraceError(
                f"{module.__name__}.{attr} is gone; the trace table in "
                "perfbench/tracing.py must follow the package"
            )
        return fn

    # -- results ----------------------------------------------------------

    def span_times(self):
        """Inclusive and self seconds summed per span name."""
        incl = defaultdict(float)
        child = defaultdict(float)
        for sid, parent, _, name, start, end in self.spans:
            incl[name] += end - start
            if parent is not None:
                child[parent] += end - start
        self_t = defaultdict(float)
        for sid, _, _, name, start, end in self.spans:
            self_t[name] += (end - start) - child[sid]
        return incl, self_t

    def layer_metrics(self) -> dict:
        incl, self_t = self.span_times()
        out = {}
        for metric, rule in LAYER_METRICS.items():
            kind, arg = rule.split(":", 1)
            if kind == "incl":
                value = incl.get(arg, 0.0)
            elif kind == "self":
                value = sum(v for k, v in self_t.items() if k.startswith(arg))
            elif kind == "count":
                value = self.counts.get(arg, 0)
            else:
                num, den = arg.split("/")
                top = self.counts.get(num, 0)
                bottom = (self.counts.get(den, 0) if den in self.counts
                          else incl.get(den, 0.0))
                value = top / bottom if bottom else 0.0
            out[metric] = value
        return out

    def dump(self, path, meta: dict):
        keys = ("id", "parent", "request", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta,
                       "counts": dict(self.counts),
                       "spans": [dict(zip(keys, s[:6])) for s in self.spans]},
                      fh)

